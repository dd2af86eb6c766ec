"""Service behaviour: session isolation, backpressure, timeouts,
shutdown checkpointing and WAL resume — all against a real server on a
background thread (:class:`repro.service.server.ServiceThread`)."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.api.registry import spec_for
from repro.api.types import PROTOCOL_VERSION
from repro.api.wire import encode_request, parse_response
from repro.core import wal
from repro.errors import ReproError
from repro.service.client import ServiceClient
from repro.service.serve import ServiceThread


def call_error_code(client: ServiceClient, method: str, **params) -> str:
    with pytest.raises(ReproError) as excinfo:
        client.call(method, **params)
    return excinfo.value.code


@pytest.fixture(scope="module")
def server():
    with ServiceThread(max_sessions=4) as srv:
        yield srv


def client_for(server, session=None, **kwargs) -> ServiceClient:
    host, port = server.address
    return ServiceClient(host, port, session=session, **kwargs)


class TestRoundTrip:
    def test_ping(self, server):
        with client_for(server) as client:
            pong = client.call("service.ping")
        assert pong.version == PROTOCOL_VERSION

    def test_typed_results(self, server):
        with client_for(server, session="rt") as client:
            client.call("new_cell", name="top")
            created = client.call(
                "create", at=(0, 20000), cell_name="nand", name="n0"
            )
            assert (created.name, created.x, created.y) == ("n0", 0, 20000)
            moved = client.call("move", name="n0", to=(400, 20000))
            assert (moved.name, moved.x, moved.y) == ("n0", 400, 20000)
            client.call("create", at=(0, 30000), cell_name="srcell", nx=4, name="sr")
            client.call(
                "connect",
                from_instance="n0",
                from_connector="A",
                to_instance="sr",
                to_connector="TAP[0,0]",
            )
            abutted = client.call("do_abut")
            assert abutted.made == 1

    def test_unknown_method(self, server):
        with client_for(server, session="rt") as client:
            assert call_error_code(client, "frobnicate") == "api.unknown_command"
        with client_for(server) as client:
            assert (
                call_error_code(client, "service.frobnicate")
                == "api.unknown_command"
            )

    def test_missing_session_field(self, server):
        with client_for(server) as client:
            assert call_error_code(client, "do_abut") == "api.bad_request"

    def test_bad_session_name(self, server):
        with client_for(server, session="../escape") as client:
            assert call_error_code(client, "do_abut") == "service.bad_session"

    def test_strict_params(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            f = sock.makefile("rwb")
            line = {
                "method": "rotate",
                "params": {"name": "g0", "sideways": True},
                "id": 1,
                "session": "rt",
                "v": PROTOCOL_VERSION,
            }
            f.write(json.dumps(line).encode() + b"\n")
            f.flush()
            envelope = parse_response(f.readline())
        assert not envelope.ok
        assert envelope.error.code == "api.bad_request"
        assert "sideways" in envelope.error.message


class TestIsolation:
    def test_sessions_do_not_share_state(self, server):
        with client_for(server, session="iso.a") as a, client_for(
            server, session="iso.b"
        ) as b:
            a.call("new_cell", name="left")
            b.call("new_cell", name="right")
            a.call("create", at=(0, 0), cell_name="nand", name="g0")
            # b has no g0: same name, different editor.
            assert call_error_code(b, "rotate", name="g0") == "args.key"
            # a's g0 is untouched by b's failure.
            a.call("rotate", name="g0")

    def test_failed_command_rolls_back_and_session_continues(self, server):
        with client_for(server, session="iso.roll") as client:
            client.call("new_cell", name="c")
            client.call("create", at=(0, 0), cell_name="nand", name="g0")
            code = call_error_code(
                client,
                "connect",
                from_instance="g0",
                from_connector="NOPE",
                to_instance="g0",
                to_connector="A",
            )
            assert code == "riot.connection"
            # The editor is still consistent and serving.
            client.call("rotate", name="g0")
            with client_for(server) as control:
                info = {
                    s.name: s for s in control.call("service.sessions").sessions
                }
            assert info["iso.roll"].failed == 1
            assert info["iso.roll"].executed == 3


class TestLimits:
    def test_session_limit(self, server):
        # The module fixture allows 4 sessions; spend the rest, then
        # one more must be refused while existing sessions still work.
        with client_for(server) as control:
            open_now = control.call("service.ping").sessions
        clients = []
        try:
            for i in range(4 - open_now):
                client = client_for(server, session=f"fill{i}")
                clients.append(client)
                client.call("new_cell", name="c")
            with client_for(server, session="overflow") as extra:
                assert (
                    call_error_code(extra, "new_cell", name="c")
                    == "service.session_limit"
                )
            if clients:
                clients[0].call("new_cell", name="again")
        finally:
            for client in clients:
                client.close()

    def test_backpressure_bounds_the_queue(self):
        with ServiceThread(queue_limit=1) as srv:
            host, port = srv.address
            with socket.create_connection((host, port), timeout=30) as sock:
                f = sock.makefile("rwb")
                # Pipeline a burst at a brand-new session: its init is
                # still running on the worker thread, so the queue can
                # only drain after the burst has all arrived.
                total = 50
                for i in range(total):
                    request = spec_for("new_cell").request(name=f"c{i}")
                    line = encode_request(
                        "new_cell", request, id=i, session="burst"
                    )
                    f.write(line.encode() + b"\n")
                f.flush()
                by_code: dict[str | None, int] = {}
                for _ in range(total):
                    envelope = parse_response(f.readline())
                    code = None if envelope.ok else envelope.error.code
                    by_code[code] = by_code.get(code, 0) + 1
            assert by_code.get(None, 0) >= 1
            assert by_code.get("service.backpressure", 0) >= 1
            assert sum(by_code.values()) == total
            # The session recovers once the burst is over.
            with ServiceClient(host, port, session="burst") as client:
                client.call("new_cell", name="after")

    def test_timeout_answers_but_command_completes(self):
        with ServiceThread(timeout=0.0) as srv:
            with client_for(srv, session="slow") as client:
                # A zero deadline always expires before the session
                # thread can report back, so the command times out...
                assert (
                    call_error_code(client, "new_cell", name="c")
                    == "service.timeout"
                )
            # ...but still runs to completion on the session thread.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                worker = srv.service.workers["slow"]
                if worker.executed == 1:
                    break
                time.sleep(0.01)
            assert worker.executed == 1


class TestShutdownAndResume:
    def test_shutdown_checkpoints_and_wal_resumes(self, tmp_path):
        journal_dir = tmp_path / "wals"
        with ServiceThread(journal_dir=journal_dir) as srv:
            with client_for(srv, session="persist") as client:
                client.call("new_cell", name="keep")
                client.call("create", at=(0, 0), cell_name="nand", name="g0")
            with client_for(srv) as control:
                ack = control.call("service.shutdown")
            assert ack.sessions == 1
            assert ack.journaled == 1
        path = journal_dir / "persist.wal"
        assert path.exists()
        journal = wal.load_path(path)
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == ["new_cell", "create"]

        # A new server life: the session name picks its state back up.
        with ServiceThread(journal_dir=journal_dir) as srv:
            with client_for(srv, session="persist") as client:
                client.call("rotate", name="g0")  # exists only via replay
            with client_for(srv) as control:
                control.call("service.shutdown")
        journal = wal.load_path(path)
        assert [e.command for e in journal.entries] == [
            "new_cell",
            "create",
            "rotate",
        ]

    def test_commands_refused_while_draining(self, tmp_path):
        with ServiceThread(journal_dir=tmp_path / "wals") as srv:
            with client_for(srv, session="drain") as client:
                client.call("new_cell", name="c")
                with client_for(srv) as control:
                    control.call("service.shutdown")
                # The ack races the drain: a command sent right after
                # may still execute, but within the deadline the
                # session must be refused (or the socket closed).
                outcome = None
                deadline = time.monotonic() + 30
                while outcome is None and time.monotonic() < deadline:
                    try:
                        client.call("new_cell", name="late")
                    except ReproError as exc:
                        if exc.code in ("service.shutdown", "service.error"):
                            outcome = exc.code
                    except (OSError, ValueError):
                        outcome = "closed"
                    else:
                        time.sleep(0.005)
                assert outcome in ("service.shutdown", "service.error", "closed")
