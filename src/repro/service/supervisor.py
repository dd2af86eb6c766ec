"""The supervisor: the control plane of the sharded service.

``python -m repro serve --shards N`` runs this process in front of N
:mod:`repro.service.shard` subprocesses.  It spawns, heartbeats and
restarts the shards, admits sessions, tells clients where each
session lives and aggregates the shards' telemetry; it never executes
or forwards a session command.

* **Routing** — sessions map to shards by consistent hash
  (:class:`HashRing`), so a session name lands on the same shard across
  requests, connections *and shard restarts*.  ``service.route``
  admits the session and answers with its shard's own listening
  address plus a lease: the shard index, its restart *generation*, and
  a TTL.
* **Data plane** — the client dials that address and stamps the
  generation on every session command; the shard refuses stale
  generations and wrong-shard sessions with ``service.moved``
  (carrying its current coordinates).  A session command sent to the
  supervisor itself executes nothing: it gets the answer
  ``service.route`` would give — ``service.moved`` naming the owner's
  address while the owner is up, the down-shard error below while it
  is not.

Shard data ports are *pinned* across restarts (the respawn reuses the
dead shard's port), so the address in a stale client's lease — and in
the ``service.moved`` detail — usually survives the restart; only the
generation moves.

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
  (``journal_dir/shard-K``), so its sessions' journals survive it; on
  restart the supervisor warms every affected session back up, which
  salvages + replays its WAL through the registry — the paper's REPLAY
  recovery, per seat, automated.

The supervisor keeps one ordinary protocol-v1 connection to each shard
for its own requests: ``service.ping`` (the heartbeat, which also
carries the shard's telemetry back), the ``service.*`` fan-outs, the
warm-up reads and the final ``service.shutdown``.  A shard that stays
silent past the heartbeat timeout is SIGKILLed (a wedged process is as
dead as an exited one).
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
from repro.obs import metrics
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
        self.writer: asyncio.StreamWriter | None = None
        self.alive = False
        #: Bumped on every death; guards stale pump/watcher callbacks
        #: *and* is the route-lease generation clients stamp on direct
        #: requests (the shard is spawned with ``--generation`` set to
        #: it, so both sides agree).
        self.generation = 0
        #: The shard's own listening address — the direct data plane.
        #: ``data_port`` is pinned across restarts: the respawn asks
        #: for the same port, so stale leases still point somewhere
        #: that answers (with ``service.moved`` and the new
        #: generation).  Reset to ``None`` when a pinned respawn fails
        #: (port stolen) so the next attempt falls back to port 0.
        self.data_host: str | None = None
        self.data_port: int | None = None
        #: Request id -> response future, for the supervisor's own
        #: requests in flight on the shard connection.
        self.pending: dict[int, asyncio.Future] = {}
        self.last_id = 0
        self.restarts = 0
        #: The latest metrics snapshot this shard piggybacked on a
        #: heartbeat pong (``None`` until the first one answers).
        self.last_metrics: dict | None = None
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
        route_lease: float = 5.0,
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
        #: How long a ``service.route`` lease is good for, in seconds.
        self.route_lease = route_lease
        self.governor_kwargs = governor_kwargs or {}
        #: When the supervisor itself is being traced, each shard gets
        #: ``--trace <trace_path>.shard<i>`` so a run leaves one trace
        #: file per process — the set ``tools/check_trace.py`` stitches.
        self.trace_path = trace_path
        self.ring = HashRing(shards)
        self.shards = [ShardHandle(self, i) for i in range(shards)]
        #: session name -> shard index (the admission-control census).
        self.session_shard: dict[str, int] = {}
        self.counters["shard_failures"] = 0
        self._heartbeat_tasks: list[asyncio.Task] = []
        self._background: set[asyncio.Task] = set()

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
        metrics.register_export_provider(self._telemetry_export)
        return self

    def _telemetry_export(self) -> dict:
        """The ``--metrics`` contribution beyond the process registry:
        every shard's latest piggybacked snapshot under a ``shard<i>.``
        prefix."""
        return {
            f"shard{handle.index}.{name}": value
            for handle in self.shards
            for name, value in (handle.last_metrics or {}).items()
        }

    def _spawn_background(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    # -- shard processes -----------------------------------------------------

    def _shard_command(self, handle: ShardHandle) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro.service.shard",
            "--host",
            "127.0.0.1",
            # Pin the data port across restarts (0 only the first
            # life): stale route leases keep pointing at a socket
            # that answers, so redirected clients recover in place.
            "--port",
            str(handle.data_port or 0),
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
        """Start one shard life: subprocess, handshake, connection."""
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
            reader, writer = await asyncio.open_connection(host, int(port))
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            raise
        handle.proc = proc
        handle.writer = writer
        handle.data_host = host
        handle.data_port = int(port)
        handle.alive = True
        generation = handle.generation
        self._spawn_background(self._pump(handle, reader, generation))
        handle.life = asyncio.ensure_future(
            self._follow_life(handle, generation)
        )
        if handle.restarts and self.journal_dir is not None:
            self._spawn_background(self._resume_sessions(handle, generation))

    async def _follow_life(self, handle: ShardHandle, generation: int) -> bool:
        """Read one life's stdout until the process exits; the life
        made progress if it printed the ``progress`` line."""
        proc = handle.proc
        progressed = False
        with contextlib.suppress(ValueError, OSError):
            async for line in proc.stdout:
                if line.strip() == PROGRESS.encode():
                    progressed = True
                    # Productive work closes a half-open circuit now.
                    handle.governor.record_progress()
        await proc.wait()
        self._shard_down(
            handle, generation, f"exited with code {proc.returncode}"
        )
        return progressed

    async def _pump(
        self, handle: ShardHandle, reader, generation: int
    ) -> None:
        """Hand shard responses to the supervisor requests awaiting them."""
        try:
            while raw := await reader.readline():
                try:
                    response = wire.parse_response(raw)
                except (ReproError, ValueError):
                    continue
                future = handle.pending.pop(response.id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, OSError):
            pass
        self._shard_down(handle, generation, "connection lost")

    def _shard_down(
        self, handle: ShardHandle, generation: int, reason: str
    ) -> None:
        """One death, handled exactly once per shard life."""
        if handle.generation != generation or not handle.alive:
            return
        handle.alive = False
        handle.generation += 1
        if handle.proc is not None and not self._closing:
            # During graceful shutdown the EOF on the shard connection
            # is the shard *draining*, not dying: it still has WALs to
            # checkpoint and its trace/metrics files to write, and
            # ``_drain`` already waits on (and, past the deadline,
            # kills) the process.
            with contextlib.suppress(ProcessLookupError):
                handle.proc.kill()
        if handle.writer is not None:
            handle.writer.close()
        pending, handle.pending = handle.pending, {}
        self.counters["shard_failures"] += len(pending)
        failure = ShardFailedError(
            f"shard {handle.index} died ({reason}) with this request in "
            "flight; its sessions resume from their WALs after restart",
            retry_after_ms=handle.retry_hint_ms,
            detail=wire.ErrorDetail(
                shard=handle.index, generation=handle.generation
            ),
        )
        for future in pending.values():
            if not future.done():
                future.set_exception(failure)
        if self._closing:
            return
        metrics.counter("service.shard_restarts").inc()
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
        decision = handle.governor.record_death(progress=progressed)
        while True:
            handle.retry_hint_ms = (
                int(decision.delay * 1000) + _SPAWN_ESTIMATE_MS
            )
            await asyncio.sleep(decision.delay)
            if self._closing or handle.alive:
                return
            if not handle.governor.may_attempt():
                return  # circuit opened meanwhile; its own probe is scheduled
            try:
                await self._spawn(handle)
                return
            except (ServiceError, OSError, asyncio.TimeoutError):
                if self._closing:
                    return
            # The pinned port may be what killed the spawn (stolen by
            # another process while the shard was down); give the next
            # attempt a fresh one.
            handle.data_port = None
            handle.generation += 1
            handle.restarts += 1
            decision = handle.governor.record_death(progress=False)

    async def _heartbeat(self, handle: ShardHandle) -> None:
        """Ping the shard on the wire; silence past the timeout kills."""
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
            except ServiceError:
                pass  # already detected down by another path

    async def _refresh(self, handle: ShardHandle) -> None:
        """A telemetry ping: the heartbeat, and the shard's latest
        metrics snapshot kept from the pong."""
        response = await asyncio.wait_for(
            self._shard_call(
                handle, "service.ping", params={"telemetry": True}
            ),
            self.heartbeat_timeout,
        )
        snapshot = (response.result or {}).get("metrics")
        if response.ok and isinstance(snapshot, dict):
            handle.last_metrics = snapshot

    async def _refresh_quietly(self, handle: ShardHandle) -> None:
        """:meth:`_refresh`, keeping the last snapshot on any failure."""
        with contextlib.suppress(ReproError, asyncio.TimeoutError, OSError):
            await self._refresh(handle)

    async def _shard_call(
        self,
        handle: ShardHandle,
        method: str,
        *,
        session: str | None = None,
        params: dict | None = None,
    ) -> wire.ResponseEnvelope:
        """One of the supervisor's own requests down the shard
        connection."""
        if not handle.alive:
            raise self._down_error(handle)
        handle.last_id += 1
        uid = handle.last_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        handle.pending[uid] = future
        line = wire.canonical_json(
            wire.RequestEnvelope(
                method=method, params=params or {}, id=uid, session=session
            )
        )
        try:
            handle.writer.write(line.encode("utf-8") + b"\n")
            await handle.writer.drain()
            return await future
        except (ConnectionResetError, OSError):
            raise self._down_error(handle) from None
        finally:
            handle.pending.pop(uid, None)

    async def _resume_sessions(
        self, handle: ShardHandle, generation: int
    ) -> None:
        """Warm every session of a restarted shard back up: the first
        command a session sees salvages + replays its WAL, so a cheap
        read (``cells``) performs the recovery eagerly."""
        names = sorted(
            name
            for name, index in self.session_shard.items()
            if index == handle.index
        )
        for name in names:
            if self._closing or handle.generation != generation:
                return
            with contextlib.suppress(ReproError):
                await self._shard_call(handle, "cells", session=name)

    # -- routing -------------------------------------------------------------

    def _lease(self, session: str) -> control.RouteResult:
        """Admit ``session`` and lease its shard's data address — or
        raise why that shard cannot take it right now."""
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
            lease_ms=int(self.route_lease * 1000),
        )

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
            detail=wire.ErrorDetail(
                shard=handle.index, generation=handle.generation
            ),
        )

    async def _session_command(self, envelope: wire.RequestEnvelope) -> str:
        route = self._lease(envelope.session)
        raise SessionMovedError(
            f"session {envelope.session!r} lives on shard {route.shard} "
            f"at {route.host}:{route.port}; send it there",
            detail=wire.ErrorDetail(
                shard=route.shard,
                generation=route.generation,
                host=route.host,
                port=route.port,
            ),
        )

    # -- the control plane ---------------------------------------------------

    async def _on_route(self, request) -> control.RouteResult:
        return self._lease(request.session)

    async def _on_ping(self, request) -> control.PingResult:
        return control.PingResult(
            version=wire.PROTOCOL_VERSION,
            sessions=len(self.session_shard),
            metrics=self._own_telemetry() if request.telemetry else None,
        )

    async def _on_shutdown(self, request) -> control.ShutdownResult:
        """Ack, then drain in the background."""
        self.request_shutdown()
        sessions = len(self.session_shard)
        return control.ShutdownResult(
            sessions=sessions,
            journaled=sessions if self.journal_dir is not None else 0,
        )

    def _own_telemetry(self) -> dict:
        """The supervisor process's own metrics: the process registry
        and the routing counters (prefixed ``supervisor.`` so they never
        sum with the shards' distinct ``service.*`` counters in a
        merge)."""
        merged = dict(metrics.registry().snapshot())
        for key, value in self.counters.items():
            name = f"supervisor.{key}"
            merged[name] = merged.get(name, 0) + value
        return {name: merged[name] for name in sorted(merged)}

    async def _on_telemetry(self, request) -> control.TelemetryResult:
        """The distributed view: refresh every live shard's snapshot
        (a telemetry ping, same as the heartbeat's), then merge.  Every
        request executes on a shard, so the shards' histograms and
        flight records are the whole service's."""
        await asyncio.gather(*(self._refresh_quietly(h) for h in self.shards))
        own = self._own_telemetry()
        merged = metrics.merge_snapshots(
            own, *((h.last_metrics or {}) for h in self.shards)
        )
        slowest: list[control.FlightRecord] = []
        errored: list[control.FlightRecord] = []
        if request.slow:
            for _, result in await self._control_fanout(
                "service.telemetry",
                control.TelemetryResult,
                params={"slow": True},
            ):
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

    async def _control_fanout(
        self, method: str, result_cls, *, params: dict | None = None
    ):
        """(handle, typed result | None) for every shard, concurrently."""

        async def one(handle: ShardHandle):
            try:
                response = await asyncio.wait_for(
                    self._shard_call(handle, method, params=params),
                    self.heartbeat_timeout,
                )
                if not response.ok:
                    return handle, None
                return handle, from_jsonable(
                    result_cls, response.result, where=method
                )
            except (ReproError, asyncio.TimeoutError, OSError):
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
            for handle, result in await self._control_fanout(
                "service.sessions", control.SessionsResult
            )
            if result is not None
            for info in result.sessions
        ]
        merged.sort(key=lambda info: info.name)
        return control.SessionsResult(sessions=tuple(merged))

    async def _on_stats(self, request) -> control.ServiceStatsResult:
        # Each command executes in exactly one shard, so summing the
        # per-shard figures gives the service-wide totals.
        totals = dict.fromkeys(
            (
                "errors",
                "timeouts",
                "backpressure",
                "queued",
                "shed",
                "direct_requests",
                "library_publishes",
                "library_conflicts",
                "library_cascades",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
            ),
            0,
        )
        totals["errors"] = self.counters["errors"]
        shard_stats: list[control.ShardStats] = []
        for handle, stats in await self._control_fanout(
            "service.stats", control.ServiceStatsResult
        ):
            if stats is not None:
                for key in totals:
                    totals[key] += getattr(stats, key)
            shard_stats.append(
                control.ShardStats(
                    index=handle.index,
                    pid=handle.pid,
                    alive=handle.alive,
                    restarts=handle.restarts,
                    sessions=stats.sessions if stats is not None else 0,
                    queued=stats.queued if stats is not None else 0,
                    circuit_open=handle.governor.circuit_open,
                )
            )
        return control.ServiceStatsResult(
            connections=self.counters["connections"],
            requests=self.counters["requests"],
            sessions=len(self.session_shard),
            pid=os.getpid(),
            shard_failures=self.counters["shard_failures"],
            shards=tuple(shard_stats),
            **totals,
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
                await asyncio.wait_for(
                    self._shard_call(handle, "service.shutdown"), 5.0
                )
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
