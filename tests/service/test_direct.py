"""The direct-to-shard data plane, end to end: the negotiated routing
handshake, direct traffic bypassing the supervisor, the supervisor
executing no session command, a shard refusing another shard's
sessions and a stale route generation after a restart, route retries
through a kill, and the chaos crash-point invariant on the direct
path — all against real shard subprocesses via :class:`ServiceThread`."""

from __future__ import annotations

import os
import signal
import socket
import time

import pytest

from repro.api import wire
from repro.api.types import PROTOCOL_VERSION
from repro.core import wal
from repro.errors import ReproError
from repro.service.client import (
    NO_RETRY,
    RetryPolicy,
    ServiceClient,
    method_types,
)
from repro.service.serve import ServiceThread
from repro.service.supervisor import HashRing

#: Retry schedule used by tests that ride out a shard restart.
PATIENT = RetryPolicy(
    attempts=12, base_delay=0.05, max_delay=0.5, connect_window=15.0, seed=5
)


def client_for(sup, session=None, **kwargs) -> ServiceClient:
    host, port = sup.address
    kwargs.setdefault("retry", PATIENT)
    return ServiceClient(host, port, session=session, **kwargs)


def shard_pid_for(client, index: int) -> int:
    stats = client.call("service.stats")
    (pid,) = [s.pid for s in stats.shards if s.index == index]
    assert pid is not None
    return pid


def restarts_of(client, index: int) -> int:
    stats = client.call("service.stats")
    return next(s.restarts for s in stats.shards if s.index == index)


def other_shards_session(ring: HashRing, mine: str, stem: str) -> str:
    """A session name the ring gives a different shard than ``mine``."""
    i = 0
    while ring.shard_for(f"{stem}{i}") == ring.shard_for(mine):
        i += 1
    return f"{stem}{i}"


def send_new_cell(host: str, port: int, session: str, **stamp):
    """One raw ``new_cell`` line on a fresh socket (``stamp`` may carry
    a ``generation``); the decoded response envelope."""
    request_cls, _ = method_types("new_cell")
    line = wire.encode_request(
        "new_cell", request_cls(name="x"), id=1, session=session, **stamp
    )
    with socket.create_connection((host, port), timeout=30) as sock:
        with sock.makefile("rwb") as file:
            file.write(line.encode("utf-8") + b"\n")
            file.flush()
            return wire.parse_response(file.readline())


def wait_for_restart(
    client, index: int, *, past: int = 0, deadline: float = 20.0
) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        stats = client.call("service.stats")
        shard = next(s for s in stats.shards if s.index == index)
        if shard.alive and shard.restarts > past:
            return
        time.sleep(0.05)
    raise TimeoutError(f"shard {index} did not restart")


@pytest.fixture(scope="module")
def sup(tmp_path_factory):
    journal_dir = tmp_path_factory.mktemp("direct-wals")
    with ServiceThread(shards=2, journal_dir=journal_dir) as srv:
        yield srv


class TestHandshake:
    def test_hello_advertises_direct_routing(self, sup):
        with client_for(sup) as control:
            hello = control.call("service.hello", client="test/1")
        assert hello.version == PROTOCOL_VERSION
        assert hello.server == "supervisor"
        assert "direct_routing" in hello.capabilities
        assert "telemetry" in hello.capabilities
        assert control.capabilities == hello.capabilities

    def test_route_matches_the_ring_at_generation_zero(self, sup):
        ring = HashRing(2)
        with client_for(sup) as control:
            for name in ("dr-a", "dr-b", "dr-c"):
                route = control.call("service.route", session=name)
                assert route.session == name
                assert route.direct
                assert route.shard == ring.shard_for(name)
                assert route.host and route.port
                assert route.generation == 0

    def test_route_performs_admission(self, sup):
        with client_for(sup, retry=NO_RETRY) as control:
            with pytest.raises(ReproError) as excinfo:
                control.call("service.route", session=".dotfile")
        assert excinfo.value.code == "service.bad_session"


class TestDirectPath:
    def test_session_traffic_bypasses_the_supervisor(self, sup):
        with client_for(sup, session="dr-bypass") as client:
            client.call("new_cell", name="top")
            client.call("create", at=(0, 20000), cell_name="nand", name="g0")
            for _ in range(3):
                client.call("rotate", name="g0")
            stages = dict(client.last_stages)
        assert client.direct_calls == 5
        assert client.route_refreshes == 1  # one route covered the burst
        assert "direct" in stages and "relay" not in stages
        with client_for(sup) as control:
            stats = control.call("service.stats")
        assert stats.direct_requests >= 5

    def test_direct_request_to_the_wrong_shard_is_refused(self, sup):
        # Dial shard A's data socket, stamp its generation, but name a
        # session the ring assigns to shard B: the shard itself refuses.
        ring = HashRing(2)
        mine = "dr-wrong-a"
        other = other_shards_session(ring, mine, "dr-wrong-b")
        with client_for(sup, session=mine) as client:
            client.call("new_cell", name="top")  # direct wire is live
            route = client._route
            assert route is not None
            with ServiceClient(
                route.host, route.port, session=other, retry=NO_RETRY
            ) as intruder:
                # Forge a direct envelope by stamping the generation.
                request_cls, _ = method_types("new_cell")
                with pytest.raises(ReproError) as excinfo:
                    intruder._round_trip(
                        "new_cell",
                        request_cls(name="x"),
                        file=intruder._file,
                        generation=route.generation,
                    )
        assert excinfo.value.code == "service.moved"

    def test_unstamped_command_for_another_shards_session_is_refused(
        self, sup
    ):
        # No generation on the line, so no route was followed: the
        # ring check alone keeps the session off a second shard.
        ring = HashRing(2)
        mine = "dr-split-a"
        other = other_shards_session(ring, mine, "dr-split-b")
        with client_for(sup) as control:
            route = control.call("service.route", session=mine)
        answer = send_new_cell(route.host, route.port, other)
        assert not answer.ok
        assert answer.error.code == "service.moved"
        wrong = sup.service.journal_dir / f"shard-{route.shard}"
        assert not (wrong / f"{other}.wal").exists()


@pytest.fixture(scope="class")
def restartable(tmp_path_factory):
    # Its own deployment, since these tests kill shards.
    journal_dir = tmp_path_factory.mktemp("restart-wals")
    with ServiceThread(shards=2, journal_dir=journal_dir) as srv:
        yield srv


def kill_and_restart(srv, index: int) -> None:
    with client_for(srv) as control:
        past = restarts_of(control, index)
        os.kill(shard_pid_for(control, index), signal.SIGKILL)
        wait_for_restart(control, index, past=past)


class TestRestartedShard:
    def test_previous_generation_is_refused(self, restartable):
        ring = HashRing(2)
        name = "dr-stale"
        index = ring.shard_for(name)
        with client_for(restartable, session=name) as client:
            client.call("new_cell", name="top")
            stale = client._route.generation
        kill_and_restart(restartable, index)
        with client_for(restartable) as control:
            route = control.call("service.route", session=name)
        assert route.generation > stale
        supervisor = restartable.service  # every life asks for a fresh port
        respawn = supervisor._shard_command(supervisor.shards[index])
        assert respawn[respawn.index("--port") + 1] == "0"
        path = supervisor.journal_dir / f"shard-{index}" / f"{name}.wal"
        before = path.read_bytes()
        answer = send_new_cell(route.host, route.port, name, generation=stale)
        assert not answer.ok
        assert answer.error.code == "service.moved"
        assert path.read_bytes() == before
        assert [e.command for e in wal.load_path(path).entries] == ["new_cell"]

    def test_next_command_after_a_kill_follows_a_fresh_route(
        self, restartable
    ):
        ring = HashRing(2)
        name = "dr-reroute"
        with client_for(restartable, session=name) as client:
            client.call("new_cell", name="top")
            client.call("create", at=(0, 20000), cell_name="nand", name="g0")
            assert client.route_refreshes == 1
            kill_and_restart(restartable, ring.shard_for(name))
            assert client.call("rotate", name="g0").name == "g0"
            assert client.retries >= 1
            assert client.route_refreshes > 1
            assert client._route.generation >= 1
        # Replay preserved the pre-crash state on the direct path too.
        with client_for(restartable, session=name) as fresh:
            assert "top" in fresh.call("cells").names


class TestFailover:
    def test_kill_mid_burst_fails_over_then_re_redirects(self, tmp_path):
        name = "dr-failover"
        with ServiceThread(shards=1, journal_dir=tmp_path) as srv:
            with client_for(srv, session=name) as client:
                client.call("new_cell", name="top")
                client.call(
                    "create", at=(0, 20000), cell_name="nand", name="g0"
                )
                assert client.direct_calls == 2
                with client_for(srv) as control:
                    os.kill(shard_pid_for(control, 0), signal.SIGKILL)
                # The direct socket is dead: the client asks for a new
                # route, which the supervisor refuses while the shard
                # restarts, and retries until the restarted shard
                # takes the command directly.
                moved = client.call("move", name="g0", to=(400, 20000))
                assert moved.x == 400
                assert client.retries >= 1
                assert client.direct_calls == 3
                assert client.route_refreshes >= 2
                with client_for(srv) as control:
                    wait_for_restart(control, 0)
                assert client.call("rotate", name="g0").name == "g0"
                assert client.direct_calls == 4
        journal = wal.load_path(tmp_path / "shard-0" / f"{name}.wal")
        assert journal.corruption is None
        assert journal.entries[0].command == "new_cell"


class TestOnePath:
    """The supervisor is a control plane only: it executes no session
    command, and answers for a down shard with a retry hint."""

    def test_session_command_sent_to_the_supervisor_answers_moved(self, sup):
        name = "dr-one-path"
        with client_for(sup, session=name, retry=NO_RETRY) as client:
            route = client.call("service.route", session=name)
            request_cls, _ = method_types("new_cell")
            with pytest.raises(ReproError) as excinfo:
                client._round_trip(
                    "new_cell", request_cls(name="top"), file=client._file
                )
        assert excinfo.value.code == "service.moved"
        journal_dir = sup.service.journal_dir
        wal_path = journal_dir / f"shard-{route.shard}" / f"{name}.wal"
        assert not wal_path.exists()
        with client_for(sup) as control:
            listed = control.call("service.sessions").sessions
        assert name not in {s.name for s in listed}

    def test_the_supervisor_admits_no_session_it_is_sent(self, sup):
        host, port = sup.address
        with client_for(sup) as control:
            admitted = control.call("service.stats").sessions
            answer = send_new_cell(host, port, "dr-not-admitted")
            assert answer.error.code == "service.moved"
            assert control.call("service.stats").sessions == admitted


def route_error_while_down(control, session: str, deadline: float = 1.5):
    """Poll ``service.route`` until the supervisor refuses it."""
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        try:
            control.call("service.route", session=session)
        except ReproError as exc:
            return exc
        time.sleep(0.01)
    raise TimeoutError("the route never reported the shard down")


#: A deterministic restart window: the supervisor waits two seconds
#: before respawning a dead shard.
SLOW_RESTART = {"base_delay": 2.0, "max_delay": 2.0}


class TestDownShardRoute:
    def test_route_to_a_killed_shard_answers_shard_failed(self, tmp_path):
        name = "dr-down"
        with ServiceThread(
            shards=1, journal_dir=tmp_path, governor_kwargs=SLOW_RESTART
        ) as srv:
            with client_for(srv, session=name) as client:
                client.call("new_cell", name="top")
            with client_for(srv, retry=NO_RETRY) as control:
                os.kill(shard_pid_for(control, 0), signal.SIGKILL)
                error = route_error_while_down(control, name)
        assert error.code == "service.shard_failed"
        assert error.retry_after_ms is not None and error.retry_after_ms > 0

    def test_non_replayable_command_sent_while_down_runs_once_back(
        self, tmp_path
    ):
        name = "dr-down-io"
        with ServiceThread(
            shards=1, journal_dir=tmp_path, governor_kwargs=SLOW_RESTART
        ) as srv:
            with client_for(srv, session=name) as client:
                client.call("new_cell", name="top")
            with client_for(srv, retry=NO_RETRY) as control:
                os.kill(shard_pid_for(control, 0), signal.SIGKILL)
                route_error_while_down(control, name)
            # writecif is not replayable, but a refused route sent
            # nothing: the client waits the restart out and the command
            # runs once the shard is back.
            with client_for(srv, session=name) as client:
                written = client.call("writecif", cell="top", path="top.cif")
                assert (written.cell, written.path) == ("top", "top.cif")
                assert client.retries >= 1
                assert client.direct_calls == 1


class TestChaosCrashPointDirect:
    """The WAL invariant holds on the data plane: a shard SIGKILLed
    right after acknowledging its N-th command — acknowledged on its
    own data socket, no supervisor in the loop — must replay to
    exactly the acknowledged prefix."""

    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_wal_holds_exactly_the_acknowledged_prefix(
        self, tmp_path, monkeypatch, kill_after
    ):
        monkeypatch.setenv("REPRO_CHAOS", f"kill-shard-after:{kill_after}")
        name = "dr-crashy"
        commands = [("new_cell", {"name": "top"})] + [
            (
                "create",
                {"at": (i * 8000, 20000), "cell_name": "nand", "name": f"g{i}"},
            )
            for i in range(4)
        ]
        acked = []
        with ServiceThread(shards=1, journal_dir=tmp_path) as srv:
            with client_for(srv, session=name, retry=NO_RETRY) as client:
                failure = None
                for method, params in commands:
                    try:
                        client.call(method, **params)
                        acked.append(method)
                    except (ReproError, ConnectionError, OSError) as exc:
                        failure = exc
                        break
                assert failure is not None
                assert len(acked) == kill_after
                assert client.direct_calls == kill_after  # all direct
        journal = wal.load_path(tmp_path / "shard-0" / f"{name}.wal")
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == acked

    def test_retrying_client_completes_interrupted_direct_workload(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "kill-shard-after:3")
        name = "dr-storm"
        with ServiceThread(shards=1, journal_dir=tmp_path) as srv:
            with client_for(srv, session=name) as client:
                client.call("new_cell", name="top")
                for i in range(6):
                    client.call(
                        "create",
                        at=(i * 8000, 20000),
                        cell_name="nand",
                        name=f"g{i}",
                    )
                assert client.retries >= 1  # the storm really hit
                assert client.direct_calls >= 1
            with client_for(srv) as control:
                stats = control.call("service.stats")
                assert stats.shards[0].restarts >= 1
                control.call("service.shutdown")
        # every acknowledged command — and only those — replays clean
        journal = wal.load_path(tmp_path / "shard-0" / f"{name}.wal")
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == ["new_cell"] + [
            "create"
        ] * 6
