"""The asyncio socket server hosting many editor sessions.

Concurrency model, in one paragraph: each session is a
:class:`SessionWorker` — an editor + :class:`repro.api.session.Session`
behind a bounded queue drained by one dedicated thread (a
single-worker executor), so commands *within* a session execute
strictly one at a time, in arrival order, while commands in
*different* sessions run on different threads and overlap freely (one
session's slow ROUTE, or its WAL fsync, never stalls another's).  A
full queue answers immediately with
``service.backpressure`` instead of buffering unboundedly; a command
that outlives the per-request deadline answers ``service.timeout`` but
still runs to completion before its session takes the next command, so
the editor is never mutated concurrently.

Crash isolation: a failing command is rolled back by the editor's
transactional wrapper (memory and WAL tail both) and reported as an
error response; nothing a session does — including dying mid-command
with its client — can disturb another session's state.  With
``--journal-dir`` every session writes its own fsync-per-command WAL,
checkpointed on graceful shutdown; an existing WAL for a session name
is salvaged and replayed when the session opens, which is the paper's
REPLAY recovery story, per seat.

The socket side — accept loop, request lines, the ``service.*``
dispatch, graceful drain — is the shared
:class:`~repro.service.frontend.LineServer`.  A shard of the sharded
deployment is this same server in its own process
(:mod:`repro.service.shard`).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from pathlib import Path

from repro.api import wire
from repro.api.session import Session
from repro.api.store import MemoryStore
from repro.core.editor import RiotEditor
from repro.errors import error_code as wire_error_code
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.service import control, telemetry
from repro.service.errors import (
    BackpressureError,
    OverloadedError,
    ServiceTimeout,
    SessionMovedError,
)
from repro.service.frontend import LineServer, check_session_name
from repro.service.health import PROGRESS


class SessionWorker:
    """One session: an editor behind a single-thread executor.

    The executor's one thread *is* the serialization guarantee —
    commands run in submission order, one at a time — and its queue,
    bounded by the ``depth`` count kept on the event loop, is the
    session's command queue.  Session init (library build, WAL
    salvage) is simply the first job submitted, so it is ordered
    before every command without any handshake.
    """

    def __init__(self, service: "RiotService", name: str) -> None:
        import concurrent.futures

        self.service = service
        self.name = name
        self.depth = 0  # commands submitted and not yet finished
        self.executed = 0
        self.failed = 0
        self.session: Session | None = None
        self.journal_path: Path | None = None
        if service.journal_dir is not None:
            self.journal_path = service.journal_dir / f"{name}.wal"
        self._init_error: Exception | None = None
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"session-{name}"
        )
        self.executor.submit(self._init)

    # -- blocking parts, always run on the session's one thread -------------

    def _init(self) -> None:
        """Build the editor (stock library, own store, scoped obs) and
        wire up — salvaging first, when a previous life left a WAL."""
        try:
            from repro.library.stock import filter_library

            editor = RiotEditor()
            editor.library = filter_library(editor.technology)
            self.session = Session(
                editor=editor,
                store=MemoryStore(),
                cellstore=self.service.cellstore,
                scoped_obs=True,
            )
            if self.journal_path is None:
                return
            from repro.core import wal

            if self.journal_path.exists():
                wal.recover(editor, wal.load_path(self.journal_path), mode="skip")
            editor.journal.attach(wal.JournalWriter(self.journal_path))
        except Exception as exc:
            self._init_error = exc

    def _journal_writer(self):
        session = self.session
        if session is None:
            return None
        journal = getattr(session.editor, "journal", None)
        return getattr(journal, "writer", None) if journal is not None else None

    def _dispatch(
        self,
        envelope: wire.RequestEnvelope,
        t_enqueue: float | None = None,
        request_span=trace.NULL_SPAN,
    ) -> str:
        import time

        t_start = time.perf_counter()
        trace_id = (envelope.trace or {}).get("id")
        try:
            if self._init_error is not None:
                return wire.encode_error(envelope.id, self._init_error)
            chaos = self.service.chaos
            if chaos is not None and chaos.slow_worker_ms:
                time.sleep(chaos.command_delay())
            writer = self._journal_writer()
            fsync_before = writer.fsync_seconds if writer is not None else 0.0
            t_handler = time.perf_counter()
            error_code = None
            try:
                _, result = self.session.dispatch_named(
                    envelope.method, dict(envelope.params)
                )
            except Exception as exc:
                # The transactional editor already rolled the command
                # back; this session (and every other) continues
                # untouched.
                self.failed += 1
                self.service._errors.inc()
                error_code = wire_error_code(exc)
                result = None
                response_exc = exc
            t_done = time.perf_counter()
            writer = self._journal_writer()
            fsync_s = (
                writer.fsync_seconds - fsync_before
                if writer is not None
                else 0.0
            )
            queue_s = (
                max(0.0, t_start - t_enqueue) if t_enqueue is not None else 0.0
            )
            handler_s = t_done - t_handler
            stages = {
                "shard_queue": telemetry.us(queue_s),
                "handler": telemetry.us(handler_s),
                "fsync": telemetry.us(max(0.0, fsync_s)),
            }
            total_us = telemetry.us(
                t_done - (t_enqueue if t_enqueue is not None else t_start)
            )
            if envelope.generation is not None:
                # A direct request: the shard's own turnaround, from
                # enqueue to handler done (queue + handler).
                stages["direct"] = total_us
            telemetry.record_request(
                self.service.metrics,
                self.service.recorder,
                envelope.method,
                total_us=total_us,
                stages=stages,
                session=self.name,
                shard=self.service.shard_index,
                trace_id=trace_id,
                error=error_code,
            )
            if queue_s > 0:
                rec = trace.record("shard.queue", queue_s, 0.0)
                if rec is not None:
                    rec.trace_id = trace_id
                    rec.remote_parent = request_span.ref
            rec = trace.record(
                "handler.execute", handler_s, 0.0, method=envelope.method
            )
            if rec is not None:
                rec.trace_id = trace_id
                rec.remote_parent = request_span.ref
            if fsync_s > 0:
                rec = trace.record("wal.fsync.request", fsync_s, 0.0)
                if rec is not None:
                    rec.trace_id = trace_id
                    rec.remote_parent = request_span.ref
            if error_code is not None:
                request_span.set("error", error_code)
                return wire.encode_error(
                    envelope.id, response_exc, stages=stages
                )
            self.executed += 1
            self.service.note_progress()
            return wire.encode_result(
                envelope.id, envelope.method, result, stages=stages
            )
        finally:
            request_span.close()

    def _checkpoint(self) -> None:
        journal = self.session.editor.journal if self.session else None
        if journal is not None and journal.writer is not None:
            journal.writer.checkpoint(journal.entries)
            journal.writer.close()

    # -- event-loop side -----------------------------------------------------

    async def execute(self, envelope: wire.RequestEnvelope) -> str:
        """Queue one command and await its response line.

        Raises :class:`BackpressureError` instead of queueing past the
        bound.  On deadline, answers ``service.timeout`` immediately —
        but the command still finishes on the session thread before the
        next one starts, so the editor is never mutated concurrently.
        """
        if self.depth >= self.service.queue_limit:
            raise BackpressureError(
                f"session {self.name!r} already has "
                f"{self.service.queue_limit} command(s) queued; retry later"
            )
        import time

        self.depth += 1
        self.service.inflight += 1
        context = envelope.trace or {}
        request_span = trace.begin(
            "shard.request",
            trace_id=context.get("id"),
            remote_parent=context.get("parent"),
            method=envelope.method,
            session=self.name,
        )
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self.executor,
            self._dispatch,
            envelope,
            time.perf_counter(),
            request_span,
        )
        future.add_done_callback(self._finished)  # runs on the loop
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.service.timeout
            )
        except asyncio.TimeoutError:
            self.service._timeouts.inc()
            return wire.encode_error(
                envelope.id,
                ServiceTimeout(
                    f"{envelope.method} exceeded the "
                    f"{self.service.timeout:g}s deadline"
                ),
            )

    def _finished(self, future: asyncio.Future) -> None:
        self.depth -= 1
        self.service.inflight -= 1
        if not future.cancelled():
            future.exception()  # consume, so abandoned errors don't warn

    async def stop(self) -> None:
        """Drain the queue, then checkpoint and close the WAL."""

        def drain() -> None:
            self.executor.shutdown(wait=True)
            self._checkpoint()

        await asyncio.to_thread(drain)


class RiotService(LineServer):
    """The server: session registry, control plane, graceful drain."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 32,
        queue_limit: int = 16,
        timeout: float = 30.0,
        journal_dir: str | Path | None = None,
        library_dir: str | Path | None = None,
        chaos=None,
        process_label: str = "server",
        shard_count: int = 0,
        shard_index: int | None = None,
        generation: int = 0,
        shed_at: int | None = None,
    ) -> None:
        super().__init__(
            host,
            port,
            max_sessions=max_sessions,
            process_label=process_label,
            chaos=chaos,
        )
        self.queue_limit = queue_limit
        self.timeout = timeout
        #: Sharded-deployment coordinates (supervisor-hosted shards
        #: only): which shard this process is, out of how many, and
        #: the restart generation the supervisor spawned it with.
        #: Direct-to-shard requests stamp the generation from their
        #: route lease; a mismatch — or a session that hashes to a
        #: different shard — answers ``service.moved``.
        self.shard_count = shard_count
        self.shard_index = shard_index
        self.generation = generation
        self._ring = None
        if shard_index is not None and shard_count > 1:
            from repro.service.supervisor import HashRing

            self._ring = HashRing(shard_count)
        #: Shard-level admission control: refuse session commands with
        #: ``service.overloaded`` once this many are in flight process-
        #: wide.  ``None`` (single-process default) disables shedding.
        self.shed_at = shed_at
        #: Commands submitted to any session and not yet finished —
        #: the O(1) process-wide depth the shed check reads.
        self.inflight = 0
        #: The slowest and the errored requests of every session in
        #: this process, stages attached.
        self.recorder = telemetry.FlightRecorder()
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: The shared cell library every session publishes into; the
        #: store's own file lock serializes cross-process publishes, so
        #: shards simply point at the same directory.
        self.cellstore = None
        if library_dir is not None:
            from repro.cellstore import CellStore

            self.cellstore = CellStore(library_dir)
        self.workers: dict[str, SessionWorker] = {}
        self._timeouts = self._counter("timeouts")
        self._backpressure = self._counter("backpressure")
        self._shed = self._counter("shed")
        self._direct = self._counter("direct")
        #: A supervised shard's pipes to its supervisor
        #: (:class:`repro.service.shard.SupervisorPipe`), set by the
        #: shard's entry point; ``None`` anywhere else.
        self.pipe = None
        self._progressed = False

    async def start(self) -> "RiotService":
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        await self._listen()
        return self

    def note_progress(self) -> None:
        """A shard's first acknowledged session command of this life:
        say so, once, on the supervisor's pipe, so its crash-loop
        breaker counts the life as productive.  Runs on the session's
        thread before the response is written, so the line is in the
        pipe before any chaos kill at the acknowledgement point.  Two
        sessions racing here may both write; the supervisor reads any
        number as one."""
        if self._progressed or self.pipe is None:
            return
        self._progressed = True
        with contextlib.suppress(OSError, ValueError):
            self.pipe.write_line(PROGRESS)

    def metrics_snapshot(self) -> dict:
        """The server's registry merged with its sessions' own, which
        outlive the drain, so the ``--metrics`` export sees them too."""
        sessions = [w.session for w in self.workers.values() if w.session]
        return obs_metrics.merge_snapshots(
            self.metrics.snapshot(), *(s.metrics.snapshot() for s in sessions)
        )

    # -- session commands ----------------------------------------------------

    async def _session_command(self, envelope: wire.RequestEnvelope) -> str:
        if envelope.generation is not None:
            self._direct.inc()
            self._check_lease(envelope)
        if self.shed_at is not None and self.inflight >= self.shed_at:
            self._shed.inc()
            return wire.encode_error(
                envelope.id,
                OverloadedError(
                    f"shard has {self.inflight} request(s) in flight "
                    f"(shed threshold {self.shed_at}); retry later",
                    retry_after_ms=min(2000, 25 * self.inflight + 25),
                ),
            )
        worker = self.workers.get(envelope.session)
        if worker is None:
            self._admit(envelope.session, len(self.workers))
            worker = SessionWorker(self, envelope.session)
            self.workers[envelope.session] = worker
        try:
            return await worker.execute(envelope)
        except BackpressureError as exc:
            self._backpressure.inc()
            return wire.encode_error(envelope.id, exc)

    def _check_lease(self, envelope) -> None:
        """Refuse a direct-to-shard request whose route lease is wrong
        (never, on a single-process server — the connection already is
        the data path)."""
        if self.shard_index is None:
            return
        if self._ring is not None:
            owner = self._ring.shard_for(envelope.session)
            if owner != self.shard_index:
                raise SessionMovedError(
                    f"session {envelope.session!r} lives on shard "
                    f"{owner}, not {self.shard_index}; re-route via the "
                    "supervisor",
                    detail=wire.ErrorDetail(shard=owner),
                )
        if envelope.generation != self.generation:
            # This shard restarted since the lease was issued: the WAL
            # has been replayed and the address may have been handed
            # around, so the client must refresh before trusting it.
            raise SessionMovedError(
                f"route lease generation {envelope.generation} is stale "
                f"(shard {self.shard_index} is at {self.generation}); "
                "refresh the route",
                retry_after_ms=25,
                detail=wire.ErrorDetail(
                    shard=self.shard_index,
                    generation=self.generation,
                    host=self.host,
                    port=self.port,
                ),
            )

    # -- the control plane ---------------------------------------------------

    async def _on_route(self, request) -> control.RouteResult:
        check_session_name(request.session)
        # No direct path to offer: this connection already is the data
        # path.
        return control.RouteResult(session=request.session, direct=False)

    async def _on_ping(self, request) -> control.PingResult | None:
        if self.chaos is not None and self.chaos.drop_ping():
            return None  # simulate a wedged worker: no answer at all
        return control.PingResult(
            version=wire.PROTOCOL_VERSION,
            sessions=len(self.workers),
            metrics=self.telemetry_snapshot() if request.telemetry else None,
        )

    async def _on_telemetry(self, request) -> control.TelemetryResult:
        snapshot = self.telemetry_snapshot()
        slowest, errored = (
            (self.recorder.slowest(), self.recorder.errored())
            if request.slow
            else ([], [])
        )
        return control.TelemetryResult(
            process=self.process_label,
            pid=os.getpid(),
            metrics=snapshot,
            merged=snapshot,
            slowest=tuple(control.FlightRecord(**entry) for entry in slowest),
            errored=tuple(control.FlightRecord(**entry) for entry in errored),
        )

    async def _on_sessions(self, request) -> control.SessionsResult:
        return control.SessionsResult(
            sessions=tuple(
                control.SessionInfo(
                    name=w.name,
                    queued=w.depth,
                    executed=w.executed,
                    failed=w.failed,
                    journal=(
                        str(w.journal_path)
                        if w.journal_path is not None
                        else None
                    ),
                )
                for w in self.workers.values()
            )
        )

    async def _on_stats(self, request) -> control.ServiceStatsResult:
        return control.stats_result(
            self.metrics_snapshot(),
            self.counter_prefix,
            sessions=len(self.workers),
            pid=os.getpid(),
            queued=self.inflight,
        )

    async def _on_shutdown(self, request) -> control.ShutdownResult:
        """Ack, then drain in the background."""
        self.request_shutdown()
        return control.ShutdownResult(
            sessions=len(self.workers),
            journaled=sum(
                1 for w in self.workers.values() if w.journal_path is not None
            ),
        )

    async def _drain(self) -> None:
        """Finish queued commands and checkpoint every WAL."""
        for worker in list(self.workers.values()):
            await worker.stop()
