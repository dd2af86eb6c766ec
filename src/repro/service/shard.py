"""One worker process of the sharded service.

A shard is a full :class:`repro.service.server.RiotService` — the same
session workers, queues, deadlines and per-session WALs as the
single-process server — running in its own interpreter with its own
WAL directory, listening on a loopback port it prints at startup
(``listening on HOST:PORT``).  That socket is the shard's **data
plane**: clients holding a ``service.route`` lease dial it directly,
stamping the lease's generation on each request; the shard refuses
stale generations and wrong-shard sessions with ``service.moved``.
Crash isolation is the point: a shard that segfaults, OOMs, or is
SIGKILLed takes only its own sessions down, and those resume by WAL
salvage + replay when the supervisor restarts it.

The supervisor speaks ordinary protocol v1 to the shard on a
connection of its own (there is no second wire format to version):
``service.ping`` doubles as the heartbeat, and a warm-up ``cells``
read replays each session's WAL after a restart.  Two pipes tie the
shard to its supervisor: it prints one ``progress`` line on stdout at
its first acknowledged session command — the crash-loop breaker's
evidence that this life was productive — and it watches its stdin,
draining gracefully on EOF, so an orphaned shard never outlives a
dead supervisor.

Runnable directly for debugging::

    python -m repro.service.shard --index 0 --journal-dir wals/shard-0
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading

from repro.cli import add_obs_flags, obs_from_flags
from repro.obs import metrics, trace
from repro.service.chaos import ChaosPolicy
from repro.service.server import RiotService


def _watch_stdin(loop: asyncio.AbstractEventLoop, service: RiotService) -> None:
    """Block until the supervisor's pipe closes, then drain.

    Reads the raw fd, not ``sys.stdin.buffer``: this daemon thread may
    still be blocked here when a graceful shutdown finalizes the
    interpreter, and holding the buffered reader's lock at that point
    aborts the process (``_enter_buffered_busy``)."""
    try:
        fd = sys.stdin.fileno()
        while os.read(fd, 4096):
            pass
    except (OSError, ValueError):  # pragma: no cover - closed abruptly
        pass
    loop.call_soon_threadsafe(service.request_shutdown)


async def amain(args) -> None:
    service = await RiotService(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        journal_dir=args.journal_dir,
        library_dir=args.library_dir,
        chaos=ChaosPolicy.from_env(),
        process_label=f"shard{args.index}",
        shard_count=args.shards,
        shard_index=args.index,
        generation=args.generation,
        shed_at=args.shed_at,
    ).start()
    metrics.register_export_provider(service.export_metrics)
    print(f"listening on {service.host}:{service.port}", flush=True)
    if not sys.stdin.isatty():
        threading.Thread(
            target=_watch_stdin,
            args=(asyncio.get_running_loop(), service),
            name=f"shard-{args.index}-stdin",
            daemon=True,
        ).start()
    await service.serve_forever()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.shard",
        description="One worker process of the sharded Riot service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--index", type=int, default=0,
        help="this shard's index (labels, and ring-ownership checks "
             "for direct requests when --shards > 1)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="total shard count; > 1 enables the consistent-hash "
             "ownership check on direct-to-shard requests",
    )
    parser.add_argument(
        "--generation", type=int, default=0,
        help="restart generation the supervisor spawned this shard "
             "with; direct requests carrying a different generation "
             "are refused with service.moved",
    )
    parser.add_argument(
        "--shed-at", type=int, default=None,
        help="refuse session commands (service.overloaded) once this "
             "many are in flight process-wide (default: no shedding)",
    )
    parser.add_argument("--max-sessions", type=int, default=1024)
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="this shard's own WAL directory (one NAME.wal per session)",
    )
    parser.add_argument(
        "--library-dir", metavar="DIR", default=None,
        help="the shared cell library directory (same for every shard; "
             "the store's file lock serializes cross-shard publishes)",
    )
    add_obs_flags(parser)
    args = parser.parse_args(argv)
    trace.set_process_label(f"shard{args.index}")
    with obs_from_flags(args.trace, args.metrics):
        try:
            asyncio.run(amain(args))
        except KeyboardInterrupt:  # pragma: no cover - interactive use only
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
