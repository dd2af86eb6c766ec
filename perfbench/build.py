"""The ``build`` scenario: assemble a seeded chip, check it, verify it.

One iteration is what a designer waits for after asking for a chip:
``gen_floorplan_case``, ``assemble_floorplan`` through the typed
command surface, ``run_floorplan_checks``, then ``run_verification``
(jobs=1) over the blocks plus the chip, first against an empty artifact
cache and then warm against the same cache.

Output checks: the floorplan invariants pass, verification finds no
DRC violation and agrees warm with cold, and the chip's signature
(instance, command, abut, stretch and route counts, wirelength, area)
equals the one recorded in ``signatures.json`` for its chip seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import measure

SIGNATURES = Path(__file__).resolve().parent / "signatures.json"
SIGNATURE_FIELDS = (
    "instances", "commands", "abuts", "stretches", "routes", "wirelength", "area",
)
#: Built untimed before the timed chips, so lazy imports and first-use
#: caches are not charged to the first of them.
WARM_UP = ("small", 0)
#: What ``setup_s`` times besides case generation: the imports a fresh
#: interpreter pays before it can build a chip.
IMPORTS = (
    "import repro.api.session, repro.floorplan.assemble, "
    "repro.floorplan.checks, repro.pipeline"
)


@dataclass(frozen=True)
class BuildConfig:
    tier: str
    #: Every pass builds all of these, in an order drawn from the run's
    #: seed: a fixed set keeps chip-to-chip size differences out of the
    #: run-to-run spread.
    chips: tuple[int, ...]
    #: Passes in a fixed-work run; a timed run makes passes while
    #: another one fits in its seconds.
    passes: int
    #: Fresh-interpreter setups measured; ``setup_s`` is their median.
    setups: int


#: Small chips, all of which pass DRC (several other seeds do not, at
#: every tier).  A stage of a small chip takes 10-80 ms, short against
#: the second-scale swings of the shared host's speed, so the paces
#: taken around it scale it well and a run holds dozens of samples.
CHIPS = (1, 2, 3, 4, 5, 6, 7, 8)


def config(*, full: bool) -> BuildConfig:
    """The full scenario builds the chips again and again for its
    seconds; the probe other workloads run builds them three times."""
    if full:
        return BuildConfig("small", CHIPS, passes=1, setups=3)
    return BuildConfig("small", CHIPS, passes=3, setups=0)


def chip_order(seed: int, chips) -> list[int]:
    """``chips`` in the order a run with ``seed`` builds them."""
    return random.Random(f"perfbench:{seed}:chips").sample(chips, len(chips))


@dataclass
class Chip:
    """One built chip: its stage times and what the checks found."""

    assemble_s: float
    check_s: float
    verify_cold_s: float
    verify_warm_s: float
    #: Cold-run wall time per pipeline task kind.
    stage_s: dict
    tasks: int
    warm_hits: int
    warm_tasks: int
    problems: list


def build_chip(tier: str, chip_seed: int, work: Path) -> Chip:
    from repro.api.session import Session
    from repro.floorplan.assemble import assemble_floorplan
    from repro.floorplan.checks import run_floorplan_checks
    from repro.floorplan.generator import gen_floorplan_case
    from repro.pipeline import run_verification
    from repro.proptest.prng import Rng

    case = gen_floorplan_case(Rng(chip_seed), tier)
    session = Session()
    laps = measure.Laps()
    report = assemble_floorplan(case, session=session)
    assemble_s = laps.lap()
    problems = []
    try:
        run_floorplan_checks(report)
    except AssertionError as exc:
        problems.append(f"floorplan check failed: {exc}")
    check_s = laps.lap()
    editor = report.editor
    cells = [editor.library.get(name) for name in [*report.blocks, report.top]]
    with tempfile.TemporaryDirectory(prefix="verify-", dir=work) as cache:
        laps.restart()
        cold = run_verification(cells, editor.technology, jobs=1, cache=cache)
        verify_cold_s = laps.lap()
        warm = run_verification(cells, editor.technology, jobs=1, cache=cache)
        verify_warm_s = laps.lap()
    violations = sum(len(rep.drc.violations) for rep in cold.reports.values())
    if violations:
        problems.append(f"verification found {violations} DRC violation(s)")
    if {n: r.summary() for n, r in cold.reports.items()} != {
        n: r.summary() for n, r in warm.reports.items()
    }:
        problems.append("warm verification disagrees with cold")
    stats = report.to_dict()
    signature = {key: stats[key] for key in SIGNATURE_FIELDS}
    expected = recorded_signature(tier, chip_seed)
    if expected != signature:
        problems.append(
            f"{tier} chip {chip_seed}: signature {signature} != recorded {expected}"
        )
    stage_s: dict = {}
    for span in cold.timing.spans:
        stage_s[span.kind] = stage_s.get(span.kind, 0.0) + span.wall
    return Chip(
        assemble_s=assemble_s,
        check_s=check_s,
        verify_cold_s=verify_cold_s,
        verify_warm_s=verify_warm_s,
        stage_s=stage_s,
        tasks=len(cold.timing.spans),
        warm_hits=warm.timing.cache_hits,
        warm_tasks=len(warm.timing.spans),
        problems=problems,
    )


def recorded_signature(tier: str, chip_seed: int) -> dict | None:
    return json.loads(SIGNATURES.read_text()).get(tier, {}).get(str(chip_seed))


def setup_s(src: Path, tier: str, chip_seed: int) -> float:
    """One set-up as a designer pays it: a fresh interpreter importing
    the build path, then case generation and a new session."""
    from repro.api.session import Session
    from repro.floorplan.generator import gen_floorplan_case
    from repro.proptest.prng import Rng

    laps = measure.Laps()
    subprocess.run(
        [sys.executable, "-c", IMPORTS],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    gen_floorplan_case(Rng(chip_seed), tier)
    Session()
    return laps.lap()


class Build:
    """The scenario's work as a sequence of slices — the set-up, then
    one chip each — so that a run can interleave it with others.

    With ``seconds`` None the scenario makes ``cfg.passes`` passes (a
    fixed amount of work, as probes and the traced run need); otherwise
    passes while another one fits in ``seconds`` of its own time.
    ``tracer`` (a :class:`perfbench.layers.Tracer`) is installed around
    the chip builds only."""

    def __init__(self, src: Path, work: Path, cfg: BuildConfig, seed: int,
                 seconds: float | None, tracer=None) -> None:
        self.src, self.work, self.cfg, self.seed = src, work, cfg, seed
        self.seconds, self.tracer = seconds, tracer
        self.setups: list[float] = []
        self.chips: list[Chip] = []
        self.total = 1 + cfg.passes * len(cfg.chips)

    def slices(self):
        cfg = self.cfg
        seeds = chip_order(self.seed, cfg.chips)
        self.setups = [setup_s(self.src, cfg.tier, seeds[0]) for _ in range(cfg.setups)]
        build_chip(*WARM_UP, self.work)
        yield
        spent = 0.0
        passes = 0
        while True:
            pass_spent = 0.0
            for chip_seed in seeds:
                start = time.perf_counter()
                with self.tracer or contextlib.nullcontext():
                    self.chips.append(build_chip(cfg.tier, chip_seed, self.work))
                pass_spent += time.perf_counter() - start
                yield
            spent += pass_spent
            passes += 1
            if self.seconds is None:
                if passes == cfg.passes:
                    return
            elif spent + pass_spent > self.seconds:
                return

    @property
    def setup_s(self) -> float:
        return measure.median(self.setups) if self.setups else 0.0

    @property
    def wall_s(self) -> float:
        """Summed stage times of the chips: the traced run's base."""
        return sum(
            c.assemble_s + c.check_s + c.verify_cold_s + c.verify_warm_s for c in self.chips
        )

    @property
    def problems(self) -> list:
        return [p for chip in self.chips for p in chip.problems]


def end_to_end(result: Build) -> dict:
    chips = result.chips
    return {
        "assemble_s": measure.median(c.assemble_s for c in chips),
        "check_s": measure.median(c.check_s for c in chips),
        "verify_cold_s": measure.median(c.verify_cold_s for c in chips),
        "verify_warm_s": measure.median(c.verify_warm_s for c in chips),
        "samples": {"chips": len(chips)},
    }


PIPELINE_STAGES = ("expand", "cif", "elaborate", "drc", "extract", "netcheck", "report")


def per_layer(result: Build) -> dict:
    """Pipeline stage times (summed over the run's chips) from each cold
    run's own timing report, plus the task and cache-hit counts."""
    chips = result.chips
    out = {
        f"pipeline.{stage}.s": sum(c.stage_s.get(stage, 0.0) for c in chips)
        for stage in PIPELINE_STAGES
    }
    out["pipeline.tasks"] = sum(c.tasks for c in chips)
    warm_tasks = sum(c.warm_tasks for c in chips)
    out["pipeline.cache.hit_ratio"] = (
        sum(c.warm_hits for c in chips) / warm_tasks if warm_tasks else 0.0
    )
    return out
