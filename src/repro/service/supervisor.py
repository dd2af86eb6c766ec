"""The supervisor: the control plane of the sharded service.

``python -m repro serve --shards N`` runs this process in front of N
:mod:`repro.service.shard` subprocesses.  It spawns, heartbeats and
restarts the shards, admits sessions, tells clients where each
session lives and aggregates the shards' telemetry; it never executes
or forwards a session command.

* **Routing** — sessions map to shards by consistent hash
  (:class:`HashRing`), so a session name lands on the same shard across
  requests, connections *and shard restarts*.  ``service.route``
  admits the session and answers with its shard's index, its own
  listening address and its restart *generation*.
* **Data plane** — the client dials that address and stamps the
  generation on every session command; the shard refuses stale
  generations and wrong-shard sessions with ``service.moved``, and the
  client asks ``service.route`` again.  A session command sent to the
  supervisor itself is answered with a plain ``service.moved``: the
  supervisor neither runs nor admits it.  Every shard life asks the
  kernel for a port (``--port 0``), so a restart may move the address
  as well as the generation.

Robustness model:

* **Admission control** — a new session name beyond ``max_sessions``
  answers ``service.session_limit``; each shard sheds its own load
  once ``shed_at`` commands are in flight (``service.overloaded`` with
  a ``retry_after_ms`` pacing hint).
* **Crash isolation** — a shard death (exit, SIGKILL, heartbeat
  timeout) touches only that shard's sessions: while it is down, a
  route to it answers ``service.shard_failed`` with a
  ``retry_after_ms`` restart estimate, and every other shard keeps
  serving untouched.
* **Supervision** — the dead shard is restarted under a
  :class:`~repro.service.health.RestartGovernor`: prompt restart after
  productive lives, exponential backoff for crash loops, and a circuit
  breaker that stops restarting a shard that never serves (its routes
  answer ``service.overloaded`` until the cooldown ends).  A shard
  tells the supervisor a life was productive with one ``progress``
  line on its stdout pipe, at its first acknowledged session command.
* **Recovery** — each shard owns a WAL directory
  (``journal_dir/shard-K``), so its sessions' journals survive it; a
  restarted shard recovers a session when that session's next command
  opens it, which salvages + replays its WAL through the registry —
  the paper's REPLAY recovery, per seat, run when the designer comes
  back to it.

The supervisor's own requests — ``service.ping`` (the heartbeat,
which also carries the shard's telemetry back), the ``service.*``
fan-outs and the final ``service.shutdown`` — are protocol-v1 lines
down each shard's stdin, answered on its stdout beside the
``progress`` line.  Nothing the supervisor sends reaches a shard's
socket, so a shard's counts, request histograms and chaos
acknowledgements are its clients' alone.  A shard that stays silent
past the heartbeat timeout is SIGKILLed (a wedged process is as dead
as an exited one); a death is the process's exit.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import os
import sys
from pathlib import Path

from repro.api import wire
from repro.api.codec import from_jsonable
from repro.errors import ReproError
from repro.obs.metrics import merge_snapshots
from repro.service import control
from repro.service.errors import (
    OverloadedError,
    ServiceError,
    SessionMovedError,
    ShardFailedError,
)
from repro.service.frontend import LineServer
from repro.service.health import PROGRESS, RestartGovernor

#: Extra margin on the first restart's ``retry_after_ms`` hint: rough
#: worst-case interpreter start + listen time for a shard subprocess.
_SPAWN_ESTIMATE_MS = 500

#: How long a death waits for the dead life's stdout to close, so a
#: ``progress`` line still in the pipe counts before the breaker judges.
_LAST_WORDS_S = 1.0


class HashRing:
    """Consistent hashing of session names onto shard indexes.

    Each shard owns ``vnodes`` points on a ring keyed by SHA-1, and a
    session maps to the owner of the first point at or after its own
    hash.  Deterministic across processes and Python versions (no
    ``hash()``), stable under restarts, and adding a shard moves only
    ~1/N of the keyspace.
    """

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for index in range(shards):
            for v in range(vnodes):
                points.append((self._hash(f"shard-{index}#{v}"), index))
        points.sort()
        self._keys = [p[0] for p in points]
        self._owners = [p[1] for p in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
        )

    def shard_for(self, session: str) -> int:
        point = bisect.bisect_right(self._keys, self._hash(session))
        if point == len(self._keys):
            point = 0
        return self._owners[point]


class ShardHandle:
    """One supervised worker process (across its restarts)."""

    def __init__(self, supervisor: "Supervisor", index: int) -> None:
        self.index = index
        self.proc: asyncio.subprocess.Process | None = None
        self.alive = False
        #: Bumped on every death; guards stale life/heartbeat callbacks
        #: *and* is the route generation clients stamp on direct
        #: requests (the shard is spawned with ``--generation`` set to
        #: it, so both sides agree).
        self.generation = 0
        #: The current life's own listening address — the direct data
        #: plane, read from its banner.
        self.data_host: str | None = None
        self.data_port: int | None = None
        #: Request id -> response future, for the supervisor's own
        #: requests in flight on the shard's pipes.
        self.pending: dict[int, asyncio.Future] = {}
        self.last_id = 0
        self.restarts = 0
        #: The latest metrics snapshot this shard piggybacked on a
        #: heartbeat pong (``None`` until the first one answers, and
        #: again from a death until the next life's first pong).
        self.last_metrics: dict | None = None
        #: The summed last snapshots of the lives that died, so that
        #: service-wide counts do not fall when the shard restarts.
        self.retired: dict = {}
        #: The task following the current life's stdout until the
        #: process exits; its result is whether the life made progress.
        self.life: asyncio.Task | None = None
        self.governor = RestartGovernor(**supervisor.governor_kwargs)
        #: ms estimate handed out in shard_failed errors while down.
        self.retry_hint_ms = _SPAWN_ESTIMATE_MS
        self.restart_task: asyncio.Task | None = None

    @property
    def pid(self) -> int | None:
        return self.proc.pid if (self.proc and self.alive) else None


class Supervisor(LineServer):
    """Spawn, heartbeat, restart, admit, route and aggregate telemetry
    over a pool of shard subprocesses."""

    capabilities = ("direct_routing", "telemetry")
    counter_prefix = "supervisor"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: int = 2,
        max_sessions: int = 256,
        queue_limit: int = 16,
        timeout: float = 30.0,
        shed_at: int = 256,
        journal_dir: str | Path | None = None,
        library_dir: str | Path | None = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 2.0,
        spawn_timeout: float = 30.0,
        governor_kwargs: dict | None = None,
        trace_path: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if shed_at < 1:
            raise ValueError("shed_at must be >= 1")
        super().__init__(
            host, port, max_sessions=max_sessions, process_label="supervisor"
        )
        self.shard_count = shards
        self.queue_limit = queue_limit
        self.timeout = timeout
        self.shed_at = shed_at
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: One store directory shared by every shard: the store's own
        #: file lock is the cross-process publish serialization point.
        self.library_dir = (
            Path(library_dir) if library_dir is not None else None
        )
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.spawn_timeout = spawn_timeout
        self.governor_kwargs = governor_kwargs or {}
        #: When the supervisor itself is being traced, each shard gets
        #: ``--trace <trace_path>.shard<i>`` so a run leaves one trace
        #: file per process — the set ``tools/check_trace.py`` stitches.
        self.trace_path = trace_path
        self.ring = HashRing(shards)
        self.shards = [ShardHandle(self, i) for i in range(shards)]
        #: session name -> shard index (the admission-control census).
        self.session_shard: dict[str, int] = {}
        self._shard_failures = self._counter("shard_failures")
        self._heartbeat_tasks: list[asyncio.Task] = []

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "Supervisor":
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        await asyncio.gather(*(self._spawn(h) for h in self.shards))
        await self._listen()
        for handle in self.shards:
            self._heartbeat_tasks.append(
                asyncio.ensure_future(self._heartbeat(handle))
            )
        return self

    def export_metrics(self) -> dict:
        """The supervisor's own counters, and every shard's latest
        piggybacked snapshot under a ``shard<i>.`` prefix."""
        out = self.metrics_snapshot()
        for handle in self.shards:
            for name, value in (handle.last_metrics or {}).items():
                out[f"shard{handle.index}.{name}"] = value
        return out

    # -- shard processes -----------------------------------------------------

    def _shard_command(self, handle: ShardHandle) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro.service.shard",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--index",
            str(handle.index),
            "--shards",
            str(self.shard_count),
            "--generation",
            str(handle.generation),
            "--shed-at",
            str(self.shed_at),
            "--max-sessions",
            str(self.max_sessions),
            "--queue-limit",
            str(self.queue_limit),
            "--timeout",
            str(self.timeout),
        ]
        if self.journal_dir is not None:
            cmd += [
                "--journal-dir",
                str(self.journal_dir / f"shard-{handle.index}"),
            ]
        if self.library_dir is not None:
            cmd += ["--library-dir", str(self.library_dir)]
        if self.trace_path is not None:
            cmd += ["--trace", f"{self.trace_path}.shard{handle.index}"]
        return cmd

    @staticmethod
    def _shard_env() -> dict[str, str]:
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        return env

    async def _spawn(self, handle: ShardHandle) -> None:
        """Start one shard life: the subprocess and its banner."""
        proc = await asyncio.create_subprocess_exec(
            *self._shard_command(handle),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=self._shard_env(),
        )
        try:
            line = await asyncio.wait_for(
                proc.stdout.readline(), self.spawn_timeout
            )
            text = line.decode("utf-8", "replace").strip()
            if not text.startswith("listening on "):
                raise ServiceError(
                    f"shard {handle.index} did not start: {text!r}"
                )
            host, _, port = text.removeprefix("listening on ").rpartition(":")
            port = int(port)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            raise
        handle.proc = proc
        handle.data_host = host
        handle.data_port = port
        handle.alive = True
        handle.life = asyncio.ensure_future(
            self._follow_life(handle, handle.generation)
        )

    async def _follow_life(self, handle: ShardHandle, generation: int) -> bool:
        """Read one life's stdout until the process exits: answers to
        the supervisor's requests, and the ``progress`` line, which
        makes the life productive."""
        proc = handle.proc
        progressed = False
        with contextlib.suppress(ValueError, OSError):
            async for line in proc.stdout:
                if line.strip() == PROGRESS.encode():
                    progressed = True
                    # Productive work closes a half-open circuit now.
                    handle.governor.record_progress()
                    continue
                try:
                    response = wire.parse_response(line)
                except (ReproError, ValueError):
                    continue
                future = handle.pending.pop(response.id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        await proc.wait()
        self._shard_down(
            handle, generation, f"exited with code {proc.returncode}"
        )
        return progressed

    def _shard_down(
        self, handle: ShardHandle, generation: int, reason: str
    ) -> None:
        """One death, handled exactly once per shard life."""
        if handle.generation != generation or not handle.alive:
            return
        handle.alive = False
        handle.generation += 1
        if handle.proc is not None and not self._closing:
            # Only a silent shard is still running here.  While
            # draining, one is left to checkpoint its WALs: ``_drain``
            # waits on (and, past the deadline, kills) the process.
            with contextlib.suppress(ProcessLookupError):
                handle.proc.kill()
        pending, handle.pending = handle.pending, {}
        self._shard_failures.inc(len(pending))
        failure = ShardFailedError(
            f"shard {handle.index} died ({reason}) with this request in "
            "flight; its sessions resume from their WALs after restart",
            retry_after_ms=handle.retry_hint_ms,
        )
        for future in pending.values():
            if not future.done():
                future.set_exception(failure)
        if self._closing:
            return
        handle.retired = merge_snapshots(handle.retired, handle.last_metrics or {})
        handle.last_metrics = None
        self.metrics.counter("service.shard_restarts").inc()
        handle.restarts += 1
        handle.restart_task = asyncio.ensure_future(
            self._restart(handle, handle.life)
        )

    async def _restart(self, handle: ShardHandle, life: asyncio.Task) -> None:
        """Judge the death, then respawn after the governor's delay."""
        done, _ = await asyncio.wait({life}, timeout=_LAST_WORDS_S)
        progressed = (
            life in done
            and not life.cancelled()
            and life.exception() is None
            and life.result()
        )
        delay = handle.governor.record_death(progress=progressed)
        while True:
            handle.retry_hint_ms = int(delay * 1000) + _SPAWN_ESTIMATE_MS
            await asyncio.sleep(delay)
            if self._closing or handle.alive:
                return
            if handle.governor.circuit_open:
                return  # circuit opened meanwhile; its own probe is scheduled
            try:
                await self._spawn(handle)
                return
            except (ServiceError, OSError, asyncio.TimeoutError):
                if self._closing:
                    return
            handle.generation += 1
            handle.restarts += 1
            delay = handle.governor.record_death(progress=False)

    async def _heartbeat(self, handle: ShardHandle) -> None:
        """Ping the shard down its pipe; silence past the timeout kills."""
        while not self._closing:
            await asyncio.sleep(self.heartbeat_interval)
            if self._closing:
                return
            if not handle.alive:
                continue
            generation = handle.generation
            try:
                await self._refresh(handle)
            except asyncio.TimeoutError:
                self._shard_down(handle, generation, "heartbeat timeout")
            except ReproError:
                pass  # down already: its exit is being handled

    async def _refresh(self, handle: ShardHandle) -> None:
        """A telemetry ping: the heartbeat, and the shard's latest
        metrics snapshot kept from the pong."""
        pong = await self._shard_call(handle, "service.ping", telemetry=True)
        if pong.metrics is not None:
            handle.last_metrics = pong.metrics

    async def _refresh_quietly(self, handle: ShardHandle) -> None:
        """:meth:`_refresh`, keeping the last snapshot on any failure."""
        with contextlib.suppress(ReproError, asyncio.TimeoutError):
            await self._refresh(handle)

    async def _shard_call(self, handle: ShardHandle, method: str, **params):
        """One of the supervisor's own requests, down the shard's stdin:
        its typed result, answered on the shard's stdout.

        Raises ``asyncio.TimeoutError`` when no answer comes within the
        heartbeat timeout, the error the answer carries, or why the
        shard takes nothing (:meth:`_down_error`, or the
        :class:`ShardFailedError` of a death with the request in
        flight).
        """
        if not handle.alive:
            raise self._down_error(handle)
        request_cls, result_cls = control.control_types(method)
        handle.last_id += 1
        uid = handle.last_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        handle.pending[uid] = future
        # No drain: a shard that stops reading its stdin stops
        # answering too, and the heartbeat timeout kills it, so what
        # queues here stays a few lines long.
        handle.proc.stdin.write(
            wire.encode_request(method, request_cls(**params), id=uid).encode()
            + b"\n"
        )
        try:
            response = await asyncio.wait_for(future, self.heartbeat_timeout)
        finally:
            handle.pending.pop(uid, None)
        if not response.ok:
            raise wire.response_error(response)
        return from_jsonable(result_cls, response.result, where=method)

    # -- routing -------------------------------------------------------------

    @staticmethod
    def _down_error(handle: ShardHandle) -> ServiceError:
        """Why a down shard takes nothing, with when to ask again."""
        if handle.governor.circuit_open:
            return OverloadedError(
                f"shard {handle.index} is crash-looping; circuit open",
                retry_after_ms=handle.governor.retry_after_ms(),
            )
        return ShardFailedError(
            f"shard {handle.index} is restarting",
            retry_after_ms=handle.retry_hint_ms,
        )

    async def _session_command(self, envelope: wire.RequestEnvelope) -> str:
        raise SessionMovedError(
            "the supervisor runs no session command; ask service.route "
            f"where session {envelope.session!r} lives"
        )

    # -- the control plane ---------------------------------------------------

    async def _on_route(self, request) -> control.RouteResult:
        """Admit the session and answer with its shard's address — or
        raise why that shard cannot take it right now."""
        session = request.session
        index = self.session_shard.get(session)
        if index is None:
            self._admit(session, len(self.session_shard))
            index = self.session_shard[session] = self.ring.shard_for(session)
        handle = self.shards[index]
        if not handle.alive:
            raise self._down_error(handle)
        return control.RouteResult(
            session=session,
            direct=True,
            shard=index,
            host=handle.data_host,
            port=handle.data_port,
            generation=handle.generation,
        )

    async def _on_ping(self, request) -> control.PingResult:
        return control.PingResult(
            version=wire.PROTOCOL_VERSION,
            sessions=len(self.session_shard),
            metrics=self.telemetry_snapshot() if request.telemetry else None,
        )

    async def _on_shutdown(self, request) -> control.ShutdownResult:
        """Ack, then drain in the background."""
        self.request_shutdown()
        sessions = len(self.session_shard)
        return control.ShutdownResult(
            sessions=sessions,
            journaled=sessions if self.journal_dir is not None else 0,
        )

    async def _on_telemetry(self, request) -> control.TelemetryResult:
        """The distributed view: refresh every live shard's snapshot
        (a telemetry ping, same as the heartbeat's), then merge.  Every
        request executes on a shard, so the shards' histograms and
        flight records are the whole service's."""
        await asyncio.gather(*(self._refresh_quietly(h) for h in self.shards))
        own = self.telemetry_snapshot()
        merged = merge_snapshots(
            own,
            *((h.last_metrics or {}) for h in self.shards),
            *(h.retired for h in self.shards),
        )
        slowest: list[control.FlightRecord] = []
        errored: list[control.FlightRecord] = []
        if request.slow:
            for _, result in await self._fanout("service.telemetry", slow=True):
                if result is not None:
                    slowest.extend(result.slowest)
                    errored.extend(result.errored)
            slowest.sort(key=lambda r: -r.total_us)
            del slowest[control.FLIGHT_KEEP:]
            del errored[control.FLIGHT_KEEP:]
        return control.TelemetryResult(
            process=self.process_label,
            pid=os.getpid(),
            metrics=own,
            merged=merged,
            shards=tuple(
                control.ShardTelemetry(
                    index=h.index, alive=h.alive, metrics=h.last_metrics
                )
                for h in self.shards
            ),
            slowest=tuple(slowest),
            errored=tuple(errored),
        )

    async def _fanout(self, method: str, **params):
        """(handle, typed result | None) for every shard, concurrently."""

        async def one(handle: ShardHandle):
            try:
                return handle, await self._shard_call(handle, method, **params)
            except (ReproError, asyncio.TimeoutError):
                return handle, None

        return await asyncio.gather(*(one(h) for h in self.shards))

    async def _on_sessions(self, request) -> control.SessionsResult:
        merged = [
            control.SessionInfo(
                name=info.name,
                queued=info.queued,
                executed=info.executed,
                failed=info.failed,
                journal=info.journal,
                shard=handle.index,
            )
            for handle, result in await self._fanout("service.sessions")
            if result is not None
            for info in result.sessions
        ]
        merged.sort(key=lambda info: info.name)
        return control.SessionsResult(sessions=tuple(merged))

    async def _on_stats(self, request) -> control.ServiceStatsResult:
        """The supervisor's own counts plus every live shard's answer
        and every dead life's last snapshot, field by field: each
        session command executes in exactly one shard, so the sum is
        the service-wide total."""
        answers = await self._fanout("service.stats")
        live = [stats for _, stats in answers if stats is not None]
        retired = [  # a shard counts under ``service.*``
            control.stats_result(handle.retired, "service", sessions=0)
            for handle in self.shards
        ]
        return control.stats_result(
            self.metrics_snapshot(),
            self.counter_prefix,
            *live,
            *retired,
            sessions=len(self.session_shard),
            pid=os.getpid(),
            queued=sum(stats.queued for stats in live),
            shards=tuple(
                control.ShardStats(
                    index=handle.index,
                    pid=handle.pid,
                    alive=handle.alive,
                    restarts=handle.restarts,
                    sessions=stats.sessions if stats is not None else 0,
                    queued=stats.queued if stats is not None else 0,
                    circuit_open=handle.governor.circuit_open,
                )
                for handle, stats in answers
            ),
        )

    # -- shutdown ------------------------------------------------------------

    async def _drain(self) -> None:
        """Shut every shard down gracefully, then stop the heartbeats."""
        for handle in self.shards:
            if handle.restart_task is not None:
                handle.restart_task.cancel()
            if not handle.alive:
                continue
            # One last telemetry fetch, so the ``--metrics`` export
            # reflects the shard's final numbers, not its last
            # heartbeat's.
            await self._refresh_quietly(handle)
            # Graceful: the shard drains its queues and checkpoints
            # every WAL before exiting; SIGKILL only past the deadline.
            with contextlib.suppress(ReproError, asyncio.TimeoutError):
                await self._shard_call(handle, "service.shutdown")
            if handle.proc is not None:
                try:
                    await asyncio.wait_for(handle.proc.wait(), 30.0)
                except asyncio.TimeoutError:  # pragma: no cover - stuck shard
                    with contextlib.suppress(ProcessLookupError):
                        handle.proc.kill()
                    await handle.proc.wait()
            handle.alive = False
        for task in self._heartbeat_tasks:
            task.cancel()
