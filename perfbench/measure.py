"""The benchmark's own arithmetic: host-speed calibration, percentiles
with their sample counts, the seeded open-loop arrival schedule, the
ramp's sustained-rate decision and the service latency attribution.

Nothing here imports the program under test, so the tests in
``test_measure.py`` pin this logic without starting a server.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass


# -- host speed -------------------------------------------------------------
#
# The benchmark shares a few cores of a host with other tenants, and the
# host's speed drifts by up to 2x within a minute: every in-process
# timing of a run moves with it.  So each timing is taken between two
# calibration passes — a fixed piece of pure-Python work, allocation-,
# dict- and sort-heavy like the program's own, that calls nothing in the
# program — and reported in *reference seconds*: the wall time scaled
# by REFERENCE_S over the calibration time measured beside it, that is
# the time the same work would take on a host that runs a calibration
# pass in REFERENCE_S.  A change to the program moves the scaled time as
# it moves the wall time; a slow spell on the host moves both the wall
# time and the calibration time, and cancels.

#: One calibration pass's time on the reference host.
REFERENCE_S = 0.005


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: str, value: float) -> None:
        self.key, self.value, self.children = key, value, []


def _calibration_pass(n: int = 3000) -> float:
    start = time.perf_counter()
    nodes = [_Node(f"n{i}", (i * 7919) % 1000 / 7.0) for i in range(n)]
    index = {}
    for i, node in enumerate(nodes):
        index[node.key] = node
        if i:
            nodes[(i * 31) % i].children.append(node)
    total = 0.0
    for node in sorted(nodes, key=lambda x: (x.value, x.key)):
        total += node.value * len(node.children) + len(index[node.key].key)
    points = [(x * 0.5, x * 1.5) for x in range(n)]
    total += sum(a for a, _ in points) + max(b for _, b in points)
    total += len(",".join(str(round(v)) for v in range(0, n, 3)))
    return time.perf_counter() - start


def pace(passes: int = 3) -> float:
    """The host's speed now: the median time of ``passes`` calibration
    passes, in seconds (REFERENCE_S on the reference host)."""
    return median(_calibration_pass() for _ in range(passes))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, measured between paces ``before`` and
    ``after``, in reference seconds."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


class Laps:
    """Consecutive stage times in reference seconds, with a pace taken
    between stages (outside the timed intervals)."""

    def __init__(self) -> None:
        self._pace = pace()
        self._start = time.perf_counter()

    def lap(self) -> float:
        """The time since the last lap (or :meth:`restart`), scaled."""
        wall = time.perf_counter() - self._start
        after = pace()
        scaled = scale(wall, self._pace, after)
        self._pace = after
        self._start = time.perf_counter()
        return scaled

    def restart(self) -> None:
        """Start the next lap now: what ran since the last is untimed."""
        self._start = time.perf_counter()


@dataclass(frozen=True)
class Percentiles:
    """A latency summary: median and p99 plus how many samples back
    them, so a p99 resting on a handful of points is visible as such."""

    n: int
    p50: float
    p99: float


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values) -> Percentiles:
    values = list(values)
    if not values:
        return Percentiles(0, 0.0, 0.0)
    return Percentiles(len(values), percentile(values, 50), percentile(values, 99))


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- the open-loop schedule -------------------------------------------------

#: Of every six commands a seat sends, five are edits and one a read.
READ_EVERY = 6


@dataclass(frozen=True)
class Arrival:
    """One scheduled command: when (seconds after the phase start),
    for which seat, and what."""

    t: float
    seat: int
    method: str  # "rotate", "move_by" or "cells"
    dx: int = 0
    dy: int = 0

    @property
    def is_edit(self) -> bool:
        return self.method != "cells"


def arrival_schedule(
    seed: int, label: str, rate: float, duration: float, seats: int
) -> list[Arrival]:
    """Poisson arrivals at ``rate`` per second for ``duration`` seconds,
    each sent by a seeded seat.  The same (seed, label) always gives the
    same schedule; ``label`` keeps phases of one run independent."""
    if rate <= 0 or duration <= 0 or seats < 1:
        raise ValueError("schedule needs a positive rate, duration and seat count")
    rng = random.Random(f"perfbench:{seed}:{label}")
    arrivals = []
    t = rng.expovariate(rate)
    k = 0
    while t < duration:
        seat = rng.randrange(seats)
        if k % READ_EVERY == READ_EVERY - 1:
            arrivals.append(Arrival(t, seat, "cells"))
        elif rng.random() < 0.5:
            arrivals.append(Arrival(t, seat, "rotate"))
        else:
            arrivals.append(
                Arrival(t, seat, "move_by", rng.randint(-40, 40), rng.randint(-40, 40))
            )
        k += 1
        t += rng.expovariate(rate)
    return arrivals


# -- the ramp ---------------------------------------------------------------

#: The edit p99 budget a ramp step must meet, in milliseconds — the
#: same interactive-response budget ``benchmarks/bench_service.py``
#: scores its SLO against.
SLO_MS = 50.0

#: How late (p99, ms) the generator may run before a step is void: the
#: step then measured the generator, not the server.
LATE_LIMIT_MS = 10.0


@dataclass(frozen=True)
class StepResult:
    """What one ramp step measured."""

    offered_rps: float
    achieved_rps: float
    edit_p99_ms: float
    edits: int
    failures: int
    gen_late_p99_ms: float
    #: Mean count of requests in flight, seen at each send, over the
    #: first and the second half of the step.
    outstanding_first: float
    outstanding_second: float
    #: The step stopped sending early because too many requests were
    #: unanswered — overload, like a growing backlog.
    cut_short: bool = False

    @property
    def backlog_grew(self) -> bool:
        """The in-flight count rose through the step: a queue in
        equilibrium holds about the same backlog in both halves, an
        overloaded one keeps adding to it."""
        return self.outstanding_second > 1.5 * self.outstanding_first + 8

    def passed(self) -> bool:
        return (
            self.edits > 0
            and self.failures == 0
            and self.edit_p99_ms < SLO_MS
            and self.gen_late_p99_ms <= LATE_LIMIT_MS
            and not self.backlog_grew
            and not self.cut_short
        )


#: The ramp ends after this many failing steps in a row.
FAILS_TO_STOP = 2


def ramp_over(steps: list[StepResult]) -> bool:
    """Has the ramp seen :data:`FAILS_TO_STOP` failing steps in a row?"""
    tail = steps[-FAILS_TO_STOP:]
    return len(tail) == FAILS_TO_STOP and not any(s.passed() for s in tail)


def sustained_step(steps: list[StepResult]) -> StepResult | None:
    """The highest-rate step that passed, so one transient failure low
    in the ramp does not hide the rate sustained above it; ``None``
    when no step passed."""
    passed = [step for step in steps if step.passed()]
    return max(passed, key=lambda step: step.offered_rps, default=None)


# -- latency attribution ----------------------------------------------------


def attribute(client_us: int, stages: dict) -> dict:
    """Split one client-observed latency into where it went.

    ``stages`` is the response's stage record (integer microseconds).
    ``direct`` is the shard's own turnaround (queue plus handler), so
    ``wire`` — socket, codec and the client's own queueing — is the
    client latency minus it.  The parts returned sum to ``client_us``:
    ``other`` is whatever of ``direct`` neither queue nor handler
    covers, which is rounding plus a few bookkeeping statements.
    """
    direct = int(stages.get("direct", 0))
    queue = int(stages.get("shard_queue", 0))
    handler = int(stages.get("handler", 0))
    return {
        "wire": client_us - direct,
        "shard_queue": queue,
        "handler": handler,
        "other": direct - queue - handler,
        "fsync": int(stages.get("fsync", 0)),
    }
