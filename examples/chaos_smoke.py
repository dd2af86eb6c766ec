"""Chaos smoke test: supervised shards under deterministic kills.

The scenario CI runs (job ``chaos-smoke``):

1. start ``python -m repro serve --shards 2`` with per-session
   journaling and ``REPRO_CHAOS=kill-shard-after:50`` in the server's
   environment — every shard process SIGKILLs *itself* immediately
   after acknowledging its 50th session command, over and over, on
   every restart;
2. four sessions (chosen so the consistent-hash ring puts two on each
   shard) each drive 200 commands through retrying clients;
3. assert every session completes its full tape despite the kill
   storm, that the supervisor really restarted shards, then shut down
   gracefully;
4. recover every session's WAL offline and strict-replay it: no
   acknowledged command may be missing, nothing torn, nothing
   half-applied.

The acknowledgement invariant this proves: the service WAL-appends
*before* executing and acknowledges *after*, so a command the client
saw succeed is durable even if the shard dies in the same millisecond.
A command killed in flight was either never appended (client retries
it fresh) or appended-but-unacknowledged (the retry may append it a
second time) — which is why the workload's steady-state edits are
rotations and relative moves, commands whose re-execution is legal
under strict replay.

Run directly: ``REPRO_CHAOS=kill-shard-after:50 python
examples/chaos_smoke.py``.  Exit code 0 on success.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.service.client import RetryPolicy, ServiceClient  # noqa: E402
from repro.service.supervisor import HashRing  # noqa: E402

SHARDS = 2
SESSIONS = 4
COMMANDS_PER_SESSION = 200
CHAOS_SPEC = os.environ.get("REPRO_CHAOS", "kill-shard-after:50")

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
        name = f"chaos-{i}"
        owner = per_shard[ring.shard_for(name)]
        if len(owner) < SESSIONS // SHARDS:
            owner.append(name)
        i += 1
    return sorted(n for names in per_shard.values() for n in names)


def session_tape(name: str) -> list[tuple[str, dict]]:
    """200 commands: a setup prefix, then replay-idempotent edits."""
    tape: list[tuple[str, dict]] = [
        ("new_cell", {"name": "work"}),
        ("create", {"at": (0, 20000), "cell_name": "nand", "name": "g0"}),
    ]
    for i in range(COMMANDS_PER_SESSION - len(tape)):
        if i % 2:
            tape.append(("move_by", {"name": "g0", "dx": 100, "dy": 0}))
        else:
            tape.append(("rotate", {"name": "g0"}))
    return tape


def start_server(journal_dir: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CHAOS"] = CHAOS_SPEC
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


def run_session(host: str, port: int, name: str, acked: dict, errors: list):
    try:
        with ServiceClient(host, port, session=name, retry=PATIENT) as client:
            count = 0
            for method, params in session_tape(name):
                client.call(method, **params)
                count += 1
            acked[name] = count
            acked[f"{name}.retries"] = client.retries
    except Exception as exc:  # pragma: no cover - failure path
        errors.append((name, exc))


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
    print(f"chaos: {CHAOS_SPEC!r}; sessions "
          + ", ".join(f"{n}->shard-{ring.shard_for(n)}" for n in names))

    tmp = tempfile.mkdtemp(prefix="chaos_smoke_wal_")
    t0 = time.perf_counter()
    server, host, port = start_server(tmp)
    try:
        acked: dict = {}
        errors: list = []
        threads = [
            threading.Thread(
                target=run_session, args=(host, port, name, acked, errors)
            )
            for name in names
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive(), "a session hung past the deadline"
        assert not errors, f"sessions failed: {errors!r}"
        for name in names:
            assert acked[name] == COMMANDS_PER_SESSION, (name, acked)
        retries = sum(acked[f"{n}.retries"] for n in names)
        wall = time.perf_counter() - t0
        print(
            f"ok: {SESSIONS} sessions x {COMMANDS_PER_SESSION} commands "
            f"completed in {wall:.1f}s with {retries} client retries"
        )

        with ServiceClient(host, port, retry=PATIENT) as control:
            stats = control.call("service.stats")
            restarts = {s.index: s.restarts for s in stats.shards}
            assert stats.sessions == SESSIONS, stats
            assert all(r >= 1 for r in restarts.values()), restarts
            # A kill surfaces to clients as a dropped data socket and
            # refused routes, so the supervisor's shard_failures
            # counter (its own requests failed in flight) only moves
            # when the storm catches a heartbeat or a fan-out on the
            # shard's pipe; the client retry count above is the
            # storm's client-side witness either way.
            assert stats.shard_failures >= 1 or retries >= 1, stats
            control.call("service.shutdown")
        server.wait(timeout=60)
        print(f"ok: kill storm really hit (restarts per shard: {restarts}); "
              "graceful shutdown")
    finally:
        if server.poll() is None:  # pragma: no cover - failure path
            server.kill()
            server.wait()

    # Offline recovery: every acknowledged command is in the WAL and
    # the whole journal strict-replays into a fresh editor.
    for name in names:
        shard = ring.shard_for(name)
        path = Path(tmp) / f"shard-{shard}" / f"{name}.wal"
        journal, report, editor = recover_journal(path)
        assert journal.corruption is None, journal.corruption
        commands = [e.command for e in journal.entries]
        # nothing acknowledged may be lost; in-flight commands killed
        # after the append but before the ack may appear twice
        assert len(commands) >= COMMANDS_PER_SESSION, (name, len(commands))
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
