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

Two pipes tie the shard to its supervisor, and they are the only
channel between them (:class:`SupervisorPipe`).  The supervisor's own
requests — ``service.ping``, which doubles as the heartbeat, the
``service.*`` fan-outs and ``service.shutdown`` — arrive on stdin as
ordinary protocol-v1 lines (there is no second wire format to
version), and their answers leave on stdout.  So does one
``progress`` line at the shard's first acknowledged session command,
the crash-loop breaker's evidence that this life was productive.
When stdin closes the shard drains gracefully, so an orphaned shard
never outlives a dead supervisor.  None of this touches the socket:
the shard's counts and request histograms are its clients' alone.

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


class SupervisorPipe:
    """The shard's end of its supervisor's stdin and stdout pipes.

    One thread (:meth:`serve`) reads stdin: it hands each request line
    to the event loop — to :meth:`LineServer._respond`, the code a
    socket line meets — waits for the answer and writes it to stdout
    itself, so the event loop never waits on the pipe and a supervisor
    that stops reading can stall only its own requests.  Session
    threads write the ``progress`` line to the same stdout
    (:meth:`RiotService.note_progress`), so every write is one whole
    line under one lock.

    Both ends use the raw fds, not ``sys.stdin.buffer`` or
    ``sys.stdout``: the reader thread is a daemon that may still be
    blocked in a read when a graceful shutdown finalizes the
    interpreter, and holding a buffered stream's lock at that point
    aborts the process (``_enter_buffered_busy``)."""

    def __init__(
        self, loop: asyncio.AbstractEventLoop, service: RiotService
    ) -> None:
        self.loop = loop
        self.service = service
        self._lock = threading.Lock()

    def write_line(self, text: str) -> None:
        data = text.encode("utf-8") + b"\n"
        with self._lock:
            while data:
                data = data[os.write(sys.stdout.fileno(), data) :]

    def serve(self) -> None:
        """Answer the supervisor's requests until its pipe closes, then
        drain."""
        rest = b""
        try:
            fd = sys.stdin.fileno()
            while chunk := os.read(fd, 65536):
                *lines, rest = (rest + chunk).split(b"\n")
                for line in lines:
                    answer = asyncio.run_coroutine_threadsafe(
                        self.service._respond(line), self.loop
                    ).result()
                    if answer is not None:  # None: chaos swallowed a ping
                        self.write_line(answer)
        except (OSError, ValueError):  # pragma: no cover - closed abruptly
            pass
        self.loop.call_soon_threadsafe(self.service.request_shutdown)


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
        service.pipe = SupervisorPipe(asyncio.get_running_loop(), service)
        threading.Thread(
            target=service.pipe.serve,
            name=f"shard-{args.index}-pipe",
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
