"""``service.stats``, field by field, on both server shapes.

Each test drives one counted event and asserts the exact change of
every count field between two ``service.stats`` answers, on a
single-process server and on a supervisor over two shards.  Requests
go out as raw protocol-v1 lines, so the count of each is known: no
hello, no route refresh and no retry hides inside a client.  The
supervisor's own requests to its shards — its heartbeats and the
fan-out behind each ``service.stats`` — travel the shards' pipes and
count nowhere; on a supervisor, every count field is its own count
plus every shard's.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import time

import pytest

from repro.service.chaos import ChaosPolicy
from repro.service.serve import ServiceThread
from repro.service.supervisor import HashRing

#: The count fields of ``ServiceStatsResult``.
COUNTS = (
    "connections",
    "requests",
    "errors",
    "timeouts",
    "backpressure",
    "shed",
    "shard_failures",
    "direct_requests",
    "library_publishes",
    "library_conflicts",
    "library_cascades",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
)

#: How long a session command sleeps on the slow servers.
SLOW_MS = 300


class Wire:
    """One raw protocol-v1 connection."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.file = self.sock.makefile("rwb")
        self.ids = itertools.count(1)

    def line(
        self, method: str, params=None, *, session=None, generation=None
    ) -> bytes:
        envelope = {
            "v": 1,
            "id": next(self.ids),
            "method": method,
            "params": params or {},
        }
        if session is not None:
            envelope["session"] = session
        if generation is not None:
            envelope["generation"] = generation
        return json.dumps(envelope).encode() + b"\n"

    def send(self, *lines: bytes) -> list[dict]:
        """Write every line in one go, then read one answer per line
        (in the order the server finished them)."""
        self.file.write(b"".join(lines))
        self.file.flush()
        return [json.loads(self.file.readline()) for _ in lines]

    def call(self, method: str, params=None, **kwargs) -> dict:
        (response,) = self.send(self.line(method, params, **kwargs))
        return response

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def code(response: dict) -> str | None:
    return None if response["ok"] else response["error"]["code"]


def changes(before: dict, after: dict) -> dict:
    """The change of every count field between two stats answers."""
    return {f: after.get(f, 0) - before.get(f, 0) for f in COUNTS}


class Server:
    """A running server, the control wire ``service.stats`` goes over,
    and one open data wire per address session commands execute at."""

    def __init__(self, srv: ServiceThread, shards: int) -> None:
        self.srv = srv
        self.shards = shards
        self.control = Wire(srv.address)
        self.wires: dict[tuple[str, int], Wire] = {}
        self.names = itertools.count()

    def close(self) -> None:
        for wire in (self.control, *self.wires.values()):
            wire.close()

    def stats(self) -> dict:
        response = self.control.call("service.stats")
        assert response["ok"], response
        return response["result"]

    def delta(self, action) -> dict:
        """The change of every count field across ``action()``."""
        before = self.stats()
        action()
        return changes(before, self.stats())

    def expect(self, **deltas) -> dict:
        """``deltas`` and zero elsewhere, plus the one request of the
        ``service.stats`` call inside a delta."""
        out = dict.fromkeys(COUNTS, 0)
        out.update(deltas)
        out["requests"] += 1
        return out

    def route(self, session: str) -> tuple[tuple[str, int], int]:
        """Claim ``session``: the address its commands execute at and
        the lease generation they stamp (0 on a single-process server,
        where every stamped request counts as direct too)."""
        response = self.control.call("service.route", {"session": session})
        assert response["ok"], response
        route = response["result"]
        if not route["direct"]:
            return self.srv.address, 0
        return (route["host"], route["port"]), route["generation"]

    def session(self, prefix: str = "s", shard: int | None = None):
        """A fresh, routed and warmed-up session: its name, the open
        wire its commands go over and its generation.  ``shard`` picks
        a name the ring puts on that shard."""
        ring = HashRing(max(1, self.shards))
        name = f"{prefix}{next(self.names)}"
        while shard is not None and ring.shard_for(name) != shard:
            name = f"{prefix}{next(self.names)}"
        address, generation = self.route(name)
        if address not in self.wires:
            self.wires[address] = Wire(address)
        wire = self.wires[address]
        wire.call("cells", session=name, generation=generation)
        return name, wire, generation

    def wait_idle(self) -> None:
        deadline = time.monotonic() + 30
        while self.stats()["queued"] and time.monotonic() < deadline:
            time.sleep(0.02)


def start(shards: int, **kwargs) -> ServiceThread:
    if shards:
        kwargs["shards"] = shards
    return ServiceThread(**kwargs).start()


@pytest.fixture(scope="module", params=[0, 2], ids=["single", "sharded"])
def server(request, tmp_path_factory):
    srv = start(
        request.param,
        queue_limit=1,
        shed_at=2,
        library_dir=str(tmp_path_factory.mktemp("lib")),
    )
    shape = Server(srv, request.param)
    yield shape
    shape.close()
    srv.stop()


@pytest.fixture(scope="module", params=[0, 2], ids=["single", "sharded"])
def slow_server(request):
    """Every session command sleeps SLOW_MS and the deadline is zero,
    so each one answers ``service.timeout`` and stays queued a while."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CHAOS", f"slow-worker:{SLOW_MS}")
        # Shards read the variable; a single-process server takes the
        # policy itself (a supervisor has no such argument).
        kwargs = {"timeout": 0.0}
        if not request.param:
            kwargs["chaos"] = ChaosPolicy(slow_worker_ms=SLOW_MS)
        srv = start(request.param, **kwargs)
    shape = Server(srv, request.param)
    yield shape
    shape.close()
    srv.stop()


class TestCounts:
    def test_a_connection_and_its_request(self, server):
        def connect():
            wire = Wire(server.srv.address)
            assert wire.call("service.ping")["ok"]
            wire.close()

        assert server.delta(connect) == server.expect(
            connections=1, requests=1
        )

    def test_a_connection_where_the_session_executes(self, server):
        name, wire, generation = server.session()
        address = wire.sock.getpeername()

        def connect():
            fresh = Wire(address)
            response = fresh.call("cells", session=name, generation=generation)
            assert response["ok"]
            fresh.close()

        assert server.delta(connect) == server.expect(
            connections=1, requests=1, direct_requests=1
        )

    def test_an_unparseable_line(self, server):
        def broken():
            (response,) = server.control.send(b"{broken\n")
            assert code(response) == "api.bad_request"

        assert server.delta(broken) == server.expect(requests=1, errors=1)

    def test_a_direct_request(self, server):
        name, wire, generation = server.session()
        assert server.delta(
            lambda: wire.call("cells", session=name, generation=generation)
        ) == server.expect(requests=1, direct_requests=1)

    def test_a_failed_command(self, server):
        name, wire, generation = server.session()

        def fail():
            response = wire.call(
                "rotate", {"name": "nope"}, session=name, generation=generation
            )
            assert not response["ok"]

        assert server.delta(fail) == server.expect(
            requests=1, direct_requests=1, errors=1
        )

    def test_a_backpressure_refusal(self, server):
        # queue_limit=1: the second of two pipelined commands finds the
        # first still queued.
        name, wire, generation = server.session()

        def burst():
            line = wire.line("cells", session=name, generation=generation)
            codes = sorted(map(code, wire.send(line, line)), key=str)
            assert codes == [None, "service.backpressure"]

        assert server.delta(burst) == server.expect(
            requests=2, direct_requests=2, backpressure=1
        )

    def test_a_shed_refusal(self, server):
        # shed_at=2: two sessions of one shard each have a command in
        # flight when the third arrives.
        one, wire, generation = server.session("shed", shard=0)
        two, _, _ = server.session("shed", shard=0)

        def burst():
            lines = [
                wire.line("cells", session=s, generation=generation)
                for s in (one, two, one)
            ]
            codes = sorted(map(code, wire.send(*lines)), key=str)
            assert codes == [None, None, "service.overloaded"]

        assert server.delta(burst) == server.expect(
            requests=3, direct_requests=3, shed=1
        )

    def test_library_publish_conflict_and_cascade(self, server):
        name, wire, generation = server.session()

        def call(method, **params):
            return lambda: wire.call(
                method, params, session=name, generation=generation
            )

        # A publish replays its dependents: one cascade.
        assert server.delta(
            call("library.publish", name="nand")
        ) == server.expect(
            requests=1,
            direct_requests=1,
            library_publishes=1,
            library_cascades=1,
        )
        assert server.delta(
            call("library.publish", name="nand", expected_version=0)
        ) == server.expect(
            requests=1, direct_requests=1, errors=1, library_conflicts=1
        )
        assert server.delta(
            call("library.impact", ref="nand")
        ) == server.expect(requests=1, direct_requests=1, library_cascades=1)

    def test_a_verify_cache_miss_then_hit(self, server, tmp_path):
        name, wire, generation = server.session()
        for method, params in (
            ("new_cell", {"name": "top"}),
            ("create", {"cell_name": "nand", "name": "g0", "at": [0, 0]}),
        ):
            response = wire.call(
                method, params, session=name, generation=generation
            )
            assert response["ok"], response

        def verify():
            response = wire.call(
                "verify",
                {"cells": ["top"], "cache": str(tmp_path)},
                session=name,
                generation=generation,
            )
            assert response["ok"], response

        # One artifact per verify stage: expand, cif, elaborate, drc,
        # extract.
        assert server.delta(verify) == server.expect(
            requests=1, direct_requests=1, cache_misses=5
        )
        assert server.delta(verify) == server.expect(
            requests=1, direct_requests=1, cache_hits=5
        )


class TestSessionsAndQueue:
    def test_a_new_session_over_a_new_connection(self, server):
        before = server.stats()
        name = f"new{next(server.names)}"
        address, generation = server.route(name)
        wire = Wire(address)
        assert wire.call("cells", session=name, generation=generation)["ok"]
        wire.close()
        after = server.stats()
        assert after["sessions"] == before["sessions"] + 1
        assert after["queued"] == 0
        assert changes(before, after) == server.expect(
            connections=1, requests=2, direct_requests=1
        )

    def test_a_timeout_leaves_its_command_queued(self, slow_server):
        name, wire, generation = slow_server.session()
        slow_server.wait_idle()
        before = slow_server.stats()
        response = wire.call("cells", session=name, generation=generation)
        assert code(response) == "service.timeout"
        after = slow_server.stats()
        # The command still runs on the session's thread.
        assert after["queued"] == 1
        assert changes(before, after) == slow_server.expect(
            requests=1, direct_requests=1, timeouts=1
        )
        slow_server.wait_idle()
        assert slow_server.stats()["queued"] == 0


class TestIdle:
    def test_an_idle_supervisor_counts_only_its_callers(self):
        # Two seconds of the default heartbeat: four pings to each
        # shard, none of which is a client's request.
        srv = start(2)
        server = Server(srv, 2)
        try:
            before = server.stats()
            time.sleep(2.0)
            assert changes(before, server.stats()) == server.expect()
        finally:
            server.close()
            srv.stop()


class TestRestart:
    def test_no_count_falls_when_a_shard_restarts(self):
        srv = start(2)
        server = Server(srv, 2)
        try:
            name, wire, generation = server.session()
            for _ in range(20):
                assert wire.call("cells", session=name, generation=generation)["ok"]
            before = server.stats()
            # The telemetry call refreshes every shard's snapshot, so the
            # supervisor holds everything the doomed shard counted.
            assert server.control.call("service.telemetry")["ok"]
            index = HashRing(2).shard_for(name)
            (shard,) = [s for s in before["shards"] if s["index"] == index]
            os.kill(shard["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                after = server.stats()
                (shard,) = [s for s in after["shards"] if s["index"] == index]
                if shard["alive"] and shard["restarts"]:
                    break
                time.sleep(0.05)
            else:
                raise TimeoutError(f"shard {index} did not restart")
            assert after["direct_requests"] >= 21
            assert {
                field: (before[field], after[field])
                for field in COUNTS
                if after[field] < before[field]
            } == {}
        finally:
            server.close()
            srv.stop()
