"""Counters, gauges and histograms, in registries of named instruments.

A flat registry of named instruments, cheap enough to leave on
permanently: a counter bump is an add under the counter's own lock,
and a lookup by name takes no lock once the instrument exists.  A
registry is the single source for whatever reads what it counts: the
process-wide one (and a session's own, under :func:`scope`) for the
``stats`` textual command, the ``--metrics`` flag and the exporters;
a server's own (:class:`repro.service.frontend.LineServer`) for every
report the service serves.

Naming convention: dotted paths, subsystem first —
``river.tracks_used``, ``wal.fsyncs``, ``pipeline.cache.hits``.
Snapshots are key-sorted, so exports are deterministic.

Two histogram shapes coexist:

* :class:`Histogram` — bucket-free count/total/min/max, for report
  summaries where four scalars are enough.
* :class:`QuantileHistogram` — log-bucketed with *fixed* boundaries
  (ten per decade from 1 µs to 100 s), so p50/p90/p99/p99.9 come out
  deterministic: the same observations always land in the same
  buckets and a quantile is always a boundary value (or the exact
  max), never an interpolation over noisy floats.  Snapshots carry
  the sparse bucket counts, so two processes' snapshots merge exactly
  (:func:`merge_snapshots`) — that is how shard telemetry aggregates.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import threading


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Summary statistics of observed values: count/total/min/max.

    Deliberately bucket-free — the repo's consumers want distribution
    summaries in reports and benchmarks, not quantile estimation, and
    four scalars stay deterministic and dependency-free.
    """

    __slots__ = ("count", "total", "min", "max", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def summary(self) -> dict:
        with self._lock:
            return _summary(self.count, self.total, self.min, self.max)


#: Fixed log-spaced bucket boundaries shared by every
#: :class:`QuantileHistogram`: ten per decade, 1e-6 .. 1e2 (seconds).
#: Bucket *i* holds values in ``(BOUNDS[i-1], BOUNDS[i]]``; the last
#: bucket (index ``len(BOUNDS)``) is the overflow.
QUANTILE_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (k / 10.0) for k in range(-60, 21)
)

#: The quantiles every summary reports, as (key, fraction).
QUANTILE_POINTS: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)


def quantile_from_buckets(
    buckets: dict, count: int, lo, hi, q: float
):
    """The q-quantile a sparse ``{bucket index: count}`` map implies.

    Deterministic by construction: the answer is the upper boundary of
    the bucket the rank lands in, clamped to the exact observed
    ``[lo, hi]`` range.  Works on snapshot dicts (str or int keys), so
    merged cross-process snapshots re-derive their percentiles.
    """
    if not count:
        return None
    rank = max(1, int(q * count) + (0 if (q * count).is_integer() else 1))
    seen = 0
    for index in sorted(int(k) for k in buckets):
        seen += buckets[str(index)] if str(index) in buckets else buckets[index]
        if seen >= rank:
            if index >= len(QUANTILE_BOUNDS):
                return hi
            value = QUANTILE_BOUNDS[index]
            if hi is not None and value > hi:
                value = hi
            if lo is not None and value < lo:
                value = lo
            return value
    return hi


class QuantileHistogram:
    """Log-bucketed distribution with deterministic quantiles.

    Boundaries are the fixed :data:`QUANTILE_BOUNDS` (tuned for
    latencies in seconds); values outside the range land in the under-
    or overflow bucket and quantiles clamp to the exact min/max, so no
    observation is ever lost, only coarsened.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        index = bisect.bisect_left(QUANTILE_BOUNDS, value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def summary(self) -> dict:
        """Snapshot dict: scalars, the standard quantile points, and
        the sparse bucket counts (string keys, JSON-ready) that make
        two snapshots mergeable."""
        with self._lock:
            return _summary(
                self.count, self.total, self.min, self.max, dict(self._buckets)
            )


def _summary(count, total, lo, hi, buckets: dict | None = None) -> dict:
    """A histogram's summary dict: the scalars and, given the sparse
    ``{bucket index: count}`` map of a quantile histogram, the
    quantile points and the buckets under string keys."""
    out = {
        "count": count,
        "total": total,
        "min": lo,
        "max": hi,
        "mean": total / count if count else 0,
    }
    if buckets is not None:
        for key, q in QUANTILE_POINTS:
            out[key] = quantile_from_buckets(buckets, count, lo, hi, q)
        out["buckets"] = {str(k): buckets[k] for k in sorted(buckets, key=int)}
    return out


def _merge_histogram_summaries(a: dict, b: dict) -> dict:
    """Merge two histogram summary dicts (bucket-free or quantile)."""
    mins = [v for v in (a.get("min"), b.get("min")) if v is not None]
    maxs = [v for v in (a.get("max"), b.get("max")) if v is not None]
    buckets = None
    if "buckets" in a or "buckets" in b:
        buckets = {}
        for src in (a.get("buckets") or {}, b.get("buckets") or {}):
            for key, n in src.items():
                buckets[key] = buckets.get(key, 0) + n
    return _summary(
        a.get("count", 0) + b.get("count", 0),
        a.get("total", 0) + b.get("total", 0),
        min(mins) if mins else None,
        max(maxs) if maxs else None,
        buckets,
    )


def merge_snapshots(*snapshots: dict) -> dict:
    """Merge metric snapshots from several registries (or processes).

    Numbers sum, histogram summaries merge (quantiles re-derived from
    the combined buckets), and mismatched shapes keep the first value
    seen — the deterministic choice when processes disagree.
    """
    merged: dict = {}
    for snap in snapshots:
        for name in sorted(snap):
            value = snap[name]
            if name not in merged:
                merged[name] = (
                    _merge_histogram_summaries({}, value)
                    if isinstance(value, dict) and "count" in value
                    else value
                )
            else:
                have = merged[name]
                if isinstance(have, dict) and isinstance(value, dict):
                    merged[name] = _merge_histogram_summaries(have, value)
                elif isinstance(have, (int, float)) and isinstance(
                    value, (int, float)
                ) and not isinstance(have, bool) and not isinstance(value, bool):
                    merged[name] = have + value
    return {name: merged[name] for name in sorted(merged)}


class MetricsRegistry:
    """Named instruments, created on first use, type-checked on reuse.

    Each instrument has its own lock; the registry's guards only new
    names, so finding an existing instrument takes no lock at all."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, kind):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, kind())
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def quantile_histogram(self, name: str) -> QuantileHistogram:
        return self._get(name, QuantileHistogram)

    def snapshot(self) -> dict:
        """All current values, key-sorted; histograms as summary dicts."""
        with self._lock:
            items = list(self._metrics.items())
        out: dict = {}
        for name, metric in sorted(items):
            if isinstance(metric, (Histogram, QuantileHistogram)):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def render_text(self) -> str:
        """The ``stats`` command's live dump: one ``name value`` line each."""
        return render_snapshot_text(self.snapshot())

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_snapshot_text(snapshot: dict) -> str:
    """A snapshot dict as ``name value`` text, one line per metric."""
    lines = []
    for name, value in snapshot.items():
        if isinstance(value, dict) and "buckets" in value:
            detail = " ".join(
                f"{k}={_fmt(value[k])}"
                for k in ("count", "mean", "p50", "p90", "p99", "max")
            )
            lines.append(f"{name} {detail}")
        elif isinstance(value, dict):
            detail = " ".join(
                f"{k}={_fmt(value[k])}"
                for k in ("count", "total", "min", "max", "mean")
                if k in value
            )
            lines.append(f"{name} {detail}")
        else:
            lines.append(f"{name} {_fmt(value)}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


_registry = MetricsRegistry()

#: A context-local override of the process-wide registry.  The service
#: hosts many sessions in one process; wrapping each session's command
#: execution in :func:`scope` routes its counters to its own registry,
#: so ``stats`` in one session never shows another's work.
#: ``asyncio.to_thread`` copies the caller's context, so a scope set
#: around the thread call travels with it.
_scoped: contextvars.ContextVar[MetricsRegistry | None] = contextvars.ContextVar(
    "repro.obs.metrics.scoped", default=None
)


@contextlib.contextmanager
def scope(reg: MetricsRegistry):
    """Route instrument lookups in this context to ``reg``, shadowing
    the process-wide registry."""
    token = _scoped.set(reg)
    try:
        yield reg
    finally:
        _scoped.reset(token)


def registry() -> MetricsRegistry:
    """The registry instrument lookups currently resolve to: the
    context-local override when one is active, the process-wide default
    otherwise."""
    return _scoped.get() or _registry


def set_registry(reg: MetricsRegistry | None) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _registry
    previous = _registry
    _registry = reg if reg is not None else MetricsRegistry()
    return previous


def counter(name: str) -> Counter:
    return registry().counter(name)


def gauge(name: str) -> Gauge:
    return registry().gauge(name)


def histogram(name: str) -> Histogram:
    return registry().histogram(name)


def quantile_histogram(name: str) -> QuantileHistogram:
    return registry().quantile_histogram(name)


# -- export providers -------------------------------------------------------

#: Callables contributing entries to the ``--metrics`` export: a
#: server run from the command line registers its snapshot (see
#: :meth:`repro.service.frontend.LineServer.export_metrics`), which on
#: a supervisor carries every shard's under a ``shard<i>.`` prefix, so
#: a sharded run's export covers every process, not just the one
#: holding the flag.  Providers run only at export time and must
#: return a flat ``{name: value}`` dict.
_export_providers: list = []


def register_export_provider(provider) -> None:
    _export_providers.append(provider)


def export_snapshot() -> dict:
    """The registry snapshot merged with every export provider's
    entries (:func:`merge_snapshots`) — what ``--metrics FILE``
    actually writes."""
    snapshots = [registry().snapshot()]
    for provider in list(_export_providers):
        try:
            snapshots.append(provider() or {})
        except Exception:  # pragma: no cover - a dead provider never
            continue  # blocks the export of everything else
    return merge_snapshots(*snapshots)
