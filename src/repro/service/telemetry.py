"""Per-request stage telemetry for the service.

Every request that crosses the service is decomposed into named
stages — where did the milliseconds go? — and each stage feeds a
deterministic log-bucketed quantile histogram
(:class:`repro.obs.metrics.QuantileHistogram`) keyed by the command's
*class* (edit / read / io / control / library), so ``service.telemetry``
and ``python -m repro top`` can answer "p99 of WAL fsync for edit
commands" without having kept any raw samples.

The stage names, in request order:

``client``
    the whole round trip as the client measured it (only the client
    knows this one; it reports it into its own process's registry);
``direct``
    a direct-to-shard request's turnaround inside the shard: from the
    moment the parsed request is queued to its session until its
    handler returns, so it covers ``shard_queue`` and ``handler``.
    Socket read, parse, encode and write fall outside it, so the
    client's round trip minus ``direct`` is the wire's share (absent
    on single-process requests, which carry no route lease);
``shard_queue``
    waiting in the session's bounded command queue for its one thread;
``handler``
    the command handler itself, WAL append included;
``fsync``
    the slice of ``handler`` spent inside ``os.fsync`` (measured by the
    :class:`~repro.core.wal.JournalWriter`, attributed per request).

A :class:`TelemetryHub` owns one process's stage histograms plus a
bounded **flight recorder** of the slowest and the errored requests,
each with its full stage decomposition — the first place to look when
a tail latency or an error spike needs a concrete culprit.  Every
session command executes on exactly one shard (or the single-process
server), which records it once.  Shards piggyback their hub snapshots
on heartbeat pongs; the supervisor keeps the latest per shard and
merges them (histograms merge bucket-wise,
see :func:`repro.obs.metrics.merge_snapshots`) into the whole-service
view ``service.telemetry`` serves.
"""

from __future__ import annotations

import heapq
import threading

from repro.api.registry import REGISTRY
from repro.obs.metrics import MetricsRegistry
from repro.service.control import FLIGHT_KEEP

#: Stage names in request order (the rendering order of ``repro top``).
STAGES: tuple[str, ...] = (
    "client",
    "direct",
    "shard_queue",
    "handler",
    "fsync",
)

def command_class(method: str) -> str:
    """The SLO class a wire method belongs to.

    ``control``
        the ``service.*`` plane (answered without touching a session);
    ``library``
        the shared-cell-library commands (cross-process store I/O);
    ``read``
        pure queries (flagged ``readonly`` in the registry);
    ``edit``
        replayable editor mutations — the interactive path the paper's
        response-time claim is about;
    ``io``
        everything else (plots, file writes, recovery).
    """
    if method.startswith("service."):
        return "control"
    if method.startswith("library."):
        return "library"
    spec = REGISTRY.get(method)
    if spec is None:
        return "io"
    if spec.readonly:
        return "read"
    return "edit" if spec.replayable else "io"


def us(seconds: float) -> int:
    """Seconds to integer microseconds (the wire unit for stages)."""
    return int(round(seconds * 1_000_000))


class FlightRecorder:
    """A bounded record of the worst requests, stages attached.

    Keeps the ``keep`` slowest requests (a min-heap on total time, so
    a faster-than-the-floor request costs one comparison) and the last
    ``keep`` errored ones (a ring), each as a plain dict shaped like
    :class:`repro.service.control.FlightRecord`.  Thread-safe: every
    session thread of the process feeds it directly.
    """

    def __init__(self, keep: int = FLIGHT_KEEP) -> None:
        self.keep = keep
        self._seq = 0
        self._slow: list[tuple[int, int, dict]] = []  # (total_us, seq, entry)
        self._errored: list[dict] = []
        self._lock = threading.Lock()

    def add(self, entry: dict) -> None:
        with self._lock:
            self._seq += 1
            if entry.get("error") is not None:
                self._errored.append(entry)
                if len(self._errored) > self.keep:
                    del self._errored[0]
            item = (entry.get("total_us", 0), self._seq, entry)
            if len(self._slow) < self.keep:
                heapq.heappush(self._slow, item)
            elif item[0] > self._slow[0][0]:
                heapq.heapreplace(self._slow, item)

    def slowest(self) -> list[dict]:
        """Worst first."""
        with self._lock:
            ranked = sorted(self._slow, key=lambda t: (-t[0], t[1]))
        return [entry for _, _, entry in ranked]

    def errored(self) -> list[dict]:
        """Most recent first."""
        with self._lock:
            return list(reversed(self._errored))


class TelemetryHub:
    """One process's request telemetry: stage histograms + recorder.

    Deliberately *not* the session-scoped metrics registry — sessions
    keep their own counters isolated (that is a correctness property
    the ``stats`` command exposes), while the hub aggregates across
    every session in the process, which is what capacity questions
    need.
    """

    def __init__(
        self, process: str = "server", keep: int = FLIGHT_KEEP
    ) -> None:
        self.process = process
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder(keep)

    def record_request(
        self,
        method: str,
        *,
        total_us: int,
        stages: dict | None = None,
        session: str | None = None,
        shard: int | None = None,
        trace_id: str | None = None,
        error: str | None = None,
    ) -> None:
        """Fold one finished request into the histograms and, when it
        is slow or failed, the flight recorder."""
        cls = command_class(method)
        self.registry.counter("rpc.requests").inc()
        if error is not None:
            self.registry.counter("rpc.errors").inc()
        for key in (f"rpc.{cls}.total", "rpc.all.total"):
            self.registry.quantile_histogram(key).observe(total_us / 1e6)
        for stage, stage_us in (stages or {}).items():
            if not isinstance(stage_us, (int, float)):
                continue
            seconds = stage_us / 1e6
            self.registry.quantile_histogram(
                f"rpc.{cls}.{stage}"
            ).observe(seconds)
            self.registry.quantile_histogram(
                f"rpc.all.{stage}"
            ).observe(seconds)
        self.recorder.add(
            {
                "method": method,
                "total_us": total_us,
                "session": session,
                "shard": shard,
                "trace_id": trace_id,
                "stages": dict(stages) if stages else None,
                "error": error,
            }
        )

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def flight(self) -> tuple[list[dict], list[dict]]:
        """(slowest, errored) flight-recorder entries."""
        return self.recorder.slowest(), self.recorder.errored()
