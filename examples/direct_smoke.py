"""Direct-routing smoke test: the shard data plane under a kill.

The scenario CI runs (job ``direct-path-smoke``):

1. start ``python -m repro serve --shards 2`` with per-session
   journaling; clients negotiate ``service.hello`` and learn the
   server speaks ``direct_routing``;
2. four sessions (two per shard, chosen via the consistent-hash ring)
   drive a command burst — every session command travels the owning
   shard's own data socket; the supervisor executes none;
3. SIGKILL one shard mid-burst: its clients lose their data socket,
   ask for a new route, are refused (``service.shard_failed`` with a
   restart estimate) while the shard is down, and retry until the
   restarted shard — routed under a bumped generation — takes their
   commands; the other shard's sessions stay undisturbed;
4. every acknowledged command, before and after the kill, went
   direct to a shard;
5. one shard's address, from ``service.route``, gets an unstamped
   ``new_cell`` (no generation) for a session the ring gives the other
   shard: it answers ``service.moved``, and no WAL for that session
   appears under the wrong shard;
6. shut down gracefully, then recover every session's WAL offline and
   strict-replay it: every acknowledged command is durable, in order,
   nothing torn.

Run directly: ``python examples/direct_smoke.py``.  Exit code 0 on
success.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.service.client import RetryPolicy, ServiceClient  # noqa: E402
from repro.service.supervisor import HashRing  # noqa: E402

SHARDS = 2
SESSIONS = 4
BURST = 40  # commands per session per phase (three phases)
VICTIM_SHARD = 0

#: Enough attempts to ride out a restart (spawn ~0.5s) mid-command.
PATIENT = RetryPolicy(
    attempts=12, base_delay=0.05, max_delay=1.0, connect_window=30.0
)


def pick_session_names() -> list[str]:
    """Deterministic session names covering both shards evenly."""
    ring = HashRing(SHARDS)
    per_shard: dict[int, list[str]] = {i: [] for i in range(SHARDS)}
    i = 0
    while any(len(names) < SESSIONS // SHARDS for names in per_shard.values()):
        name = f"direct-{i}"
        owner = per_shard[ring.shard_for(name)]
        if len(owner) < SESSIONS // SHARDS:
            owner.append(name)
        i += 1
    return sorted(n for names in per_shard.values() for n in names)


def start_server(journal_dir: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_CHAOS", None)  # this smoke stages its own kill
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--shards", str(SHARDS), "--journal-dir", journal_dir],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline()
    match = re.match(r"listening on (\S+):(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, match.group(1), int(match.group(2))


def burst(clients: dict[str, ServiceClient], count: int, acked: dict) -> None:
    """Interleave ``count`` edits across every session, round-robin, so
    a kill always lands mid-burst.  They are rotations and relative
    moves: delivery is at-least-once, so a retried edit whose
    acknowledgement was lost applies twice, and each stays valid under
    strict replay."""
    for i in range(count):
        for name, client in clients.items():
            if i % 2:
                client.call("move_by", name="g0", dx=100, dy=0)
            else:
                client.call("rotate", name="g0")
            acked[name] += 1


def send_unstamped(host: str, port: int, session: str):
    """One ``new_cell`` line with no generation, on a fresh socket: the
    decoded response envelope."""
    from repro.api import wire
    from repro.api.types import NewCellRequest

    line = wire.encode_request(
        "new_cell", NewCellRequest(name="stray"), id=1, session=session
    )
    with socket.create_connection((host, port), timeout=30) as sock:
        with sock.makefile("rwb") as file:
            file.write(line.encode("utf-8") + b"\n")
            file.flush()
            return wire.parse_response(file.readline())


def wait_for_restart(control, index: int, deadline: float = 30.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        stats = control.call("service.stats")
        shard = next(s for s in stats.shards if s.index == index)
        if shard.alive and shard.restarts >= 1:
            return
        time.sleep(0.05)
    raise TimeoutError(f"shard {index} did not restart")


def recover_journal(path: Path):
    from repro.core import wal
    from repro.core.editor import RiotEditor
    from repro.library.stock import filter_library

    editor = RiotEditor()
    editor.library = filter_library(editor.technology)
    journal = wal.load_path(path)
    report = journal.replay(editor, mode="strict")
    return journal, report, editor


def main() -> int:
    names = pick_session_names()
    ring = HashRing(SHARDS)
    victims = [n for n in names if ring.shard_for(n) == VICTIM_SHARD]
    bystanders = [n for n in names if ring.shard_for(n) != VICTIM_SHARD]
    print("sessions: "
          + ", ".join(f"{n}->shard-{ring.shard_for(n)}" for n in names))

    tmp = tempfile.mkdtemp(prefix="direct_smoke_wal_")
    t0 = time.perf_counter()
    server, host, port = start_server(tmp)
    clients: dict[str, ServiceClient] = {}
    try:
        control = ServiceClient(host, port, retry=PATIENT)
        assert "direct_routing" in control.capabilities, control.capabilities
        for name in names:
            client = ServiceClient(host, port, session=name, retry=PATIENT)
            clients[name] = client
            client.call("new_cell", name="work")
            client.call(
                "create", at=(0, 20000), cell_name="nand", name="g0"
            )
        acked = {name: 2 for name in names}

        # Phase 1: everything travels the data plane.
        burst(clients, BURST, acked)
        for name, client in clients.items():
            assert client.direct_calls == acked[name], (
                name, client.direct_calls, acked[name]
            )
        print(f"ok: {sum(acked.values())} commands all direct-to-shard")

        # Phase 2: kill the victim shard mid-burst.  Its sessions
        # re-route and wait the restart out; the bystanders never
        # notice.
        stats = control.call("service.stats")
        (victim_pid,) = [
            s.pid for s in stats.shards if s.index == VICTIM_SHARD
        ]
        bystander_retries = sum(clients[n].retries for n in bystanders)
        refreshes = {n: clients[n].route_refreshes for n in victims}
        os.kill(victim_pid, signal.SIGKILL)
        burst(clients, BURST, acked)
        assert sum(clients[n].retries for n in victims) >= 1
        assert (
            sum(clients[n].retries for n in bystanders)
            == bystander_retries
        )
        assert all(
            clients[n].route_refreshes > refreshes[n] for n in victims
        ), "victims never re-routed after the kill"
        print("ok: kill absorbed; the victims re-routed to the restarted "
              "shard while the bystanders stayed undisturbed")

        # Phase 3: the restarted shard is routed under a bumped
        # generation, and every command so far went direct.
        wait_for_restart(control, VICTIM_SHARD)
        route = control.call("service.route", session=victims[0])
        assert route.direct and route.generation >= 1, route
        burst(clients, BURST, acked)
        for name, client in clients.items():
            assert client.direct_calls == acked[name], (
                name, client.direct_calls, acked[name]
            )
        print("ok: every acknowledged command went direct to a shard "
              f"(victim route generation {route.generation})")

        # Phase 4: a session command with no generation, sent to the
        # wrong shard, runs nowhere: a shard checks the ring on every
        # session command, so no session gets a second WAL.
        stray = bystanders[0]
        answer = send_unstamped(route.host, route.port, stray)
        assert not answer.ok and answer.error.code == "service.moved", answer
        wrong_wal = Path(tmp) / f"shard-{route.shard}" / f"{stray}.wal"
        assert not wrong_wal.exists(), wrong_wal
        print(f"ok: shard-{route.shard} refused unstamped {stray} "
              f"(owned by shard-{ring.shard_for(stray)}) with service.moved; "
              "no WAL under the wrong shard")

        # The merged direct-request counter is a lower bound only: a
        # killed shard's last heartbeat snapshot survives it, but what
        # it counted after that heartbeat died with it, so check
        # against the bystanders — their shard never restarted.
        stats = control.call("service.stats")
        assert stats.direct_requests >= sum(
            clients[n].direct_calls for n in bystanders
        ), stats
        restarts = {s.index: s.restarts for s in stats.shards}
        assert restarts[VICTIM_SHARD] >= 1, restarts
        for client in clients.values():
            client.close()
        wall = time.perf_counter() - t0
        print(f"ok: {SESSIONS} sessions, {sum(acked.values())} commands "
              f"in {wall:.1f}s (restarts: {restarts})")
        control.call("service.shutdown")
        control.close()
        server.wait(timeout=60)
    finally:
        if server.poll() is None:  # pragma: no cover - failure path
            server.kill()
            server.wait()

    # Offline recovery: every acknowledged command is in the WAL and
    # strict-replays clean.
    for name in names:
        shard = ring.shard_for(name)
        path = Path(tmp) / f"shard-{shard}" / f"{name}.wal"
        journal, report, editor = recover_journal(path)
        assert journal.corruption is None, journal.corruption
        commands = [e.command for e in journal.entries]
        assert len(commands) >= acked[name], (name, len(commands))
        assert commands[:2] == ["new_cell", "create"], commands[:2]
        assert set(commands[2:]) <= {"rotate", "move_by"}, set(commands)
        assert report.clean, report.to_text()
        assert report.executed == len(commands), report.to_text()
        assert "work" in editor.library.names
        print(f"ok: {name} WAL replayed {report.executed} command(s) clean "
              f"from shard-{shard}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
