"""The supervised sharded service, end to end: consistent-hash
routing, per-shard stats, admission control, crash detection + restart
+ WAL resume, and the deterministic chaos crash-point invariant — all
against real shard subprocesses via :class:`ServiceThread`."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core import wal
from repro.errors import ReproError
from repro.service.client import NO_RETRY, RetryPolicy, ServiceClient
from repro.service.serve import ServiceThread
from repro.service.supervisor import HashRing

#: Retry schedule used by tests that ride out a shard restart.
PATIENT = RetryPolicy(
    attempts=10, base_delay=0.05, max_delay=0.5, connect_window=10.0, seed=11
)


def client_for(sup, session=None, **kwargs) -> ServiceClient:
    host, port = sup.address
    kwargs.setdefault("retry", PATIENT)
    return ServiceClient(host, port, session=session, **kwargs)


def error_code(client, method, **params) -> str:
    with pytest.raises(ReproError) as excinfo:
        client.call(method, **params)
    return excinfo.value.code


def shard_pid_for(client, index: int) -> int:
    stats = client.call("service.stats")
    (pid,) = [s.pid for s in stats.shards if s.index == index]
    assert pid is not None
    return pid


def wait_for_restart(client, index: int, deadline: float = 20.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        stats = client.call("service.stats")
        shard = next(s for s in stats.shards if s.index == index)
        if shard.alive and shard.restarts >= 1:
            return
        time.sleep(0.05)
    raise TimeoutError(f"shard {index} did not restart")


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        names = [f"session-{i}" for i in range(200)]
        assert [a.shard_for(n) for n in names] == [
            b.shard_for(n) for n in names
        ]

    def test_covers_every_shard(self):
        ring = HashRing(4)
        owners = {ring.shard_for(f"s{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_single_shard_takes_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for(f"s{i}") for i in range(50)} == {0}

    def test_growing_the_ring_moves_few_keys(self):
        names = [f"cell-{i}" for i in range(1000)]
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            1 for n in names if before.shard_for(n) != after.shard_for(n)
        )
        # consistent hashing: ~1/5 of the keys move, nowhere near all
        assert moved < 450

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            HashRing(0)


@pytest.fixture(scope="module")
def sup(tmp_path_factory):
    journal_dir = tmp_path_factory.mktemp("sup-wals")
    with ServiceThread(shards=2, journal_dir=journal_dir) as srv:
        yield srv


class TestRouting:
    def test_typed_commands_round_trip(self, sup):
        with client_for(sup, session="alice") as client:
            client.call("new_cell", name="top")
            created = client.call(
                "create", at=(0, 20000), cell_name="nand", name="n0"
            )
            assert (created.name, created.x, created.y) == ("n0", 0, 20000)
            names = client.call("cells").names
            assert "top" in names

    def test_sessions_carry_their_shard_index(self, sup):
        ring = HashRing(2)
        with client_for(sup, session="bob") as client:
            client.call("new_cell", name="b")
        with client_for(sup) as control:
            listed = control.call("service.sessions").sessions
        by_name = {s.name: s for s in listed}
        assert "bob" in by_name
        for info in by_name.values():
            assert info.shard == ring.shard_for(info.name)

    def test_same_session_lands_on_same_shard(self, sup):
        with client_for(sup, session="carol") as client:
            client.call("new_cell", name="c")
            client.call("create", at=(0, 20000), cell_name="nand", name="g0")
        with client_for(sup) as control:
            listed = control.call("service.sessions").sessions
        shards = [s.shard for s in listed if s.name == "carol"]
        assert len(shards) == 1  # one entry, one shard — never split

    def test_bad_session_name_rejected(self, sup):
        with client_for(sup, session=".dotfile") as client:
            assert error_code(client, "cells") == "service.bad_session"

    def test_session_commands_need_a_session(self, sup):
        with client_for(sup) as client:
            assert error_code(client, "cells") == "api.bad_request"

    def test_ping_counts_sessions_globally(self, sup):
        with client_for(sup) as client:
            pong = client.call("service.ping")
        assert pong.sessions >= 2  # alice, bob, carol live here


class TestStats:
    def test_per_shard_figures(self, sup):
        with client_for(sup) as client:
            stats = client.call("service.stats")
        assert stats.pid == os.getpid()  # the answering supervisor
        assert len(stats.shards) == 2
        assert [s.index for s in stats.shards] == [0, 1]
        pids = [s.pid for s in stats.shards]
        assert all(isinstance(p, int) for p in pids)
        assert len(set(pids)) == 2 and os.getpid() not in pids
        for shard in stats.shards:
            assert shard.alive
            assert shard.restarts == 0
            assert not shard.circuit_open
        # sessions aggregate matches the sum of per-shard counts
        assert stats.sessions == sum(s.sessions for s in stats.shards)

    def test_original_fields_still_aggregate(self, sup):
        with client_for(sup) as client:
            stats = client.call("service.stats")
        assert stats.requests >= 1
        assert stats.connections >= 1
        assert stats.timeouts == 0


class TestAdmissionControl:
    def test_global_session_cap(self, tmp_path):
        with ServiceThread(shards=2, max_sessions=2) as srv:
            with client_for(srv, session="one") as c1:
                c1.call("new_cell", name="a")
            with client_for(srv, session="two") as c2:
                c2.call("new_cell", name="b")
            with client_for(srv, session="three", retry=NO_RETRY) as c3:
                assert error_code(c3, "cells") == "service.session_limit"

    def test_shed_answers_overloaded_with_pacing_hint(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "slow-worker:400")
        with ServiceThread(shards=1, shed_at=1) as srv:
            with client_for(srv, session="busy", retry=NO_RETRY) as slow:
                slow.call("new_cell", name="t")  # session is warm

                t = threading.Thread(
                    target=lambda: slow.call(
                        "create", at=(0, 20000), cell_name="nand", name="g0"
                    )
                )
                t.start()
                time.sleep(0.15)  # let the slow command get in flight
                with client_for(srv, session="busy", retry=NO_RETRY) as c2:
                    with pytest.raises(ReproError) as excinfo:
                        c2.call("cells")
                t.join()
            assert excinfo.value.code == "service.overloaded"
            assert excinfo.value.retry_after_ms is not None
            with client_for(srv) as control:
                assert control.call("service.stats").shed >= 1


class TestCrashRecovery:
    def test_sigkilled_shard_restarts_and_session_resumes(self, tmp_path):
        ring = HashRing(2)
        name = "phoenix"
        with ServiceThread(shards=2, journal_dir=tmp_path) as srv:
            with client_for(srv, session=name) as client:
                client.call("new_cell", name="top")
                client.call(
                    "create", at=(0, 20000), cell_name="nand", name="n0"
                )
                index = ring.shard_for(name)
                os.kill(shard_pid_for(client, index), signal.SIGKILL)
                # the retrying client rides out the restart...
                moved = client.call("move", name="n0", to=(400, 20000))
                assert moved.x == 400
                assert client.retries >= 1
                stats = client.call("service.stats")
                shard = next(s for s in stats.shards if s.index == index)
                assert shard.restarts >= 1
                # ...and replay preserved the pre-crash state
                assert "top" in client.call("cells").names
            with client_for(srv) as control:
                control.call("service.shutdown")
        journal = wal.load_path(
            tmp_path / f"shard-{index}" / f"{name}.wal"
        )
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == [
            "new_cell",
            "create",
            "move",
        ]

    def test_other_shards_keep_serving_through_a_crash(self, tmp_path):
        ring = HashRing(2)
        victim, bystander = "vic", "safe0"
        # pick a bystander session hashed onto the other shard
        i = 0
        while ring.shard_for(bystander) == ring.shard_for(victim):
            i += 1
            bystander = f"safe{i}"
        with ServiceThread(shards=2, journal_dir=tmp_path) as srv:
            with client_for(srv, session=victim) as cv, client_for(
                srv, session=bystander
            ) as cb:
                cv.call("new_cell", name="v")
                cb.call("new_cell", name="s")
                os.kill(
                    shard_pid_for(cv, ring.shard_for(victim)), signal.SIGKILL
                )
                # the untouched shard answers instantly, no retries needed
                before = cb.retries
                assert "s" in cb.call("cells").names
                assert cb.retries == before
                wait_for_restart(cb, ring.shard_for(victim))


class TestChaosCrashPoint:
    """The WAL invariant under deterministic kills: a shard SIGKILLed
    right after acknowledging its N-th command must replay to exactly
    the acknowledged prefix — nothing lost, nothing extra."""

    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_wal_holds_exactly_the_acknowledged_prefix(
        self, tmp_path, monkeypatch, kill_after
    ):
        monkeypatch.setenv("REPRO_CHAOS", f"kill-shard-after:{kill_after}")
        name = "crashy"
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
        journal = wal.load_path(tmp_path / "shard-0" / f"{name}.wal")
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == acked

    def test_retrying_client_completes_interrupted_workload(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "kill-shard-after:3")
        name = "storm"
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


class TestCrashLoopBreaker:
    @pytest.mark.parametrize("journaled", [False, True], ids=["memory", "wal"])
    def test_shard_serving_direct_traffic_is_not_crash_looping(
        self, monkeypatch, tmp_path, journaled
    ):
        # Every life acknowledges one command on its data socket and
        # dies: a productive life each time, so restarts stay prompt
        # and the circuit never opens.  With WALs too: the one
        # acknowledgement of a life is always the client's.
        monkeypatch.setenv("REPRO_CHAOS", "kill-shard-after:1")
        journal_dir = tmp_path if journaled else None
        with ServiceThread(shards=1, journal_dir=journal_dir) as srv:
            governor = srv.service.shards[0].governor
            with client_for(srv, session="looper") as client:
                for call in range(8):
                    t0 = time.monotonic()
                    assert "nand" in client.call("cells").names
                    elapsed = time.monotonic() - t0
                    assert elapsed < 2.0, (call, elapsed)
                    assert not governor.circuit_open, call
                assert client.direct_calls == 8
            assert governor.failures == 0

    def test_silent_shard_is_killed_until_the_circuit_opens(
        self, monkeypatch
    ):
        # Every life answers two heartbeats, then goes silent without
        # serving anything: each is killed at the heartbeat timeout,
        # and three such deaths in a row open the circuit.
        monkeypatch.setenv("REPRO_CHAOS", "drop-heartbeat-after:2")
        with ServiceThread(
            shards=1,
            heartbeat_interval=0.1,
            heartbeat_timeout=0.5,
            governor_kwargs={"max_failures": 3},
        ) as srv:
            with client_for(srv) as control:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    (shard,) = control.call("service.stats").shards
                    if shard.restarts >= 2 and shard.circuit_open:
                        break
                    time.sleep(0.1)
                else:
                    raise TimeoutError(f"circuit never opened: {shard}")
