"""``python -m repro serve``, and the same servers run in-process.

``--shards N`` runs a :class:`~repro.service.supervisor.Supervisor`
over N shard subprocesses; without it the process is one
:class:`~repro.service.server.RiotService`.  :func:`_server` imports
only the shape it starts, so a supervisor never loads the session
stack (the editor, the command registry and the wire dataclasses of
:mod:`repro.api.types`) that only its shards run.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
import threading

from repro.cli import add_obs_flags, obs_from_flags
from repro.obs import metrics, trace
from repro.service.errors import ServiceError


def _server(**kwargs):
    """The server ``kwargs`` describe: a supervisor over ``shards``
    worker processes when that is set, else a single process — the
    ``serve --shards`` rule."""
    if kwargs.get("shards"):
        from repro.service.supervisor import Supervisor

        return Supervisor(**kwargs)
    from repro.service.server import RiotService

    return RiotService(**kwargs)


# -- in-process harness (tests, benchmarks) ---------------------------------


class ServiceThread:
    """Run a server on a background thread's event loop.

    A context manager::

        with ServiceThread(journal_dir=tmp) as srv:
            client = ServiceClient(*srv.address, session="alice")

    The keyword arguments are the server's.  With ``shards=N`` the
    harness runs a :class:`~repro.service.supervisor.Supervisor` over
    N real shard subprocesses, so a test exercises the full
    crash-isolation story; otherwise a single-process
    :class:`~repro.service.server.RiotService`.  Note the GIL applies
    to the in-process server: concurrent sessions overlap their waits
    but not their compute.  The benchmark drives a subprocess server
    for honest numbers; this harness is for tests.
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self.service = None  # the running server, once started
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = None
        self._ready = None
        self._startup_error: BaseException | None = None

    def start(self) -> "ServiceThread":
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._run()),
            name="riot-service",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise ServiceError("service thread failed to start")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    async def _run(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.service = await _server(**self._kwargs).start()
        except BaseException as exc:
            self._startup_error = exc
            return
        finally:
            self._ready.set()
        await self.service.serve_forever()

    @property
    def address(self) -> tuple[str, int]:
        return self.service.host, self.service.port

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=120)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- the serve subcommand ----------------------------------------------------


async def _amain(args) -> None:
    options = dict(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        journal_dir=args.journal_dir,
        library_dir=args.library_dir,
    )
    if args.shards > 0:
        trace.set_process_label("supervisor")
        options.update(
            shards=args.shards,
            shed_at=args.shed_at,
            heartbeat_timeout=args.heartbeat_timeout,
            trace_path=args.trace,
        )
    else:
        from repro.service.chaos import ChaosPolicy

        options["chaos"] = ChaosPolicy.from_env()
    service = await _server(**options).start()
    metrics.register_export_provider(service.export_metrics)
    print(f"listening on {service.host}:{service.port}", flush=True)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, service.request_shutdown)
    await service.serve_forever()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Host many concurrent Riot editor sessions over newline-"
            "delimited JSON (protocol v1).  Each session gets its own "
            "editor, stock cell library and, with --journal-dir, its "
            "own crash-safe write-ahead journal."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free one, printed at startup)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=32,
        help="refuse new session names beyond this many (default 32)",
    )
    parser.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="per-session write-ahead journals (NAME.wal) live here; "
             "an existing journal is recovered when its session opens",
    )
    parser.add_argument(
        "--library-dir", metavar="DIR", default=None,
        help="shared cell library (repro.cellstore) enabling the "
             "library.* commands; sessions — across every shard — "
             "publish and consume versioned cells here",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds (default 30)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=16,
        help="per-session command queue bound; a full queue answers "
             "service.backpressure (default 16)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="run a supervisor over this many crash-isolated worker "
             "processes (default 0: single process, no supervisor); "
             "sessions map to shards by consistent hash and resume "
             "from their WALs when a dead shard is restarted",
    )
    parser.add_argument(
        "--shed-at", type=int, default=256,
        help="supervisor mode: refuse (service.overloaded, with a "
             "retry_after_ms hint) once a shard has this many requests "
             "in flight (default 256)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=2.0,
        help="supervisor mode: SIGKILL a shard whose health ping goes "
             "unanswered this long (default 2.0); raise it for "
             "saturating workloads where a busy-but-healthy shard may "
             "be slow to reach the ping",
    )
    add_obs_flags(parser)
    args = parser.parse_args(argv)
    with obs_from_flags(args.trace, args.metrics):
        try:
            asyncio.run(_amain(args))
        except KeyboardInterrupt:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
