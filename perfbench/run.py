"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload build --seed 0 --seconds 20 --trace 0

Every workload runs all three scenarios — ``build`` (chip assembly,
checks, verification), ``seats`` (designers against the sharded
service) and ``library`` (the shared cell store) — so every
end-to-end metric is measured on every workload.  The workload named
on the command line runs at full size for ``--seconds`` of its own
time; the other two run as fixed probes whose slices are spread evenly
between the full scenario's, so every metric samples the whole run.
``README.md`` beside this file says which layers each workload loads.

In-process times are reported in reference seconds: wall time scaled
by a calibration pass timed beside it, so the shared host's swings in
speed cancel (``measure.py``).  Service latencies are wall time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead
wraps each layer's public functions (``layers.py``), runs the
in-process work once untraced and once traced, and prints the
per-layer metrics with the tracing overhead, plus the end-to-end
figures too noisy to gate (:data:`UNGATED`).  Its count metrics must
equal those of every earlier traced run of the same workload, seed and
code in this checkout, or the run fails.

The metric names and units are those of ``BENCHMARK.json`` at the
repository root.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value
and unit).  A failed output check prints ``correct: false`` with no
metrics and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Traced runs leave their count metrics here, keyed by workload, seed
#: and a digest of the code.
STATE = ROOT / ".perfbench-state"

WORKLOADS = ("build", "library", "seats")

#: Count-type layer metrics: every traced run of one workload, seed and
#: code must agree on these exactly, or the traced run fails.
COUNTS = (
    "api.dispatch.calls",
    "composition.connectors.calls",
    "composition.connector.calls",
    "composition.bbox.calls",
    "composition.refresh.calls",
    "geometry.point.calls",
    "core.river.calls",
    "rest.compact.calls",
    "pipeline.tasks",
    "pipeline.cache.hit_ratio",
    "cellstore.fsync.calls",
)

#: End-to-end figures whose run-to-run spread on the shared host is
#: wider than any bound a gated metric may carry: the traced run
#: reports them, ungated, beside the layer metrics.
UNGATED = ("verify_cold_s", "publish_p50_ms", "sustained_rps")


def scenarios(workload: str, seed: int, seconds: float, fixed: bool, tracer, work: Path) -> dict:
    """The three scenarios of a run: the workload's own at full size
    (for ``seconds`` of its time, or one fixed amount of work when
    ``fixed``), the other two as fixed probes.  ``tracer`` goes to the
    in-process ones."""
    from perfbench import build, library, seats

    own = None if fixed else seconds
    return {
        "build": build.Build(
            SRC, work / "build", build.config(full=workload == "build"), seed,
            own if workload == "build" else None, tracer,
        ),
        "library": library.Library(
            work / "library", library.CONFIG, seed,
            own if workload == "library" else None, tracer,
        ),
        "seats": seats.Seats(
            SRC, work / "seats", seats.config(seconds, full=workload == "seats"), seed,
        ),
    }


def interleave(own, probes: list, seconds: float) -> None:
    """Run ``own`` slice by slice and, between its slices, each probe's
    slices at the pace that spreads them evenly over ``seconds`` of
    ``own``'s time; then finish whatever probe slices remain."""
    running = [(probe, probe.slices()) for probe in probes]
    done = [0] * len(running)
    spent = 0.0
    own_slices = own.slices()
    finished = object()
    while True:
        start = time.perf_counter()
        if next(own_slices, finished) is finished:
            break
        spent += time.perf_counter() - start
        for i, (probe, slices) in enumerate(running):
            while done[i] < probe.total * min(1.0, spent / seconds):
                done[i] += 1
                next(slices, None)
    for _, slices in running:
        for _ in slices:
            pass


def drain(scenario) -> None:
    for _ in scenario.slices():
        pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the workload; returns end-to-end (``trace`` false) or
    per-layer (``trace`` true) metrics with the run's counts and
    problems."""
    from perfbench import build, layers, library, seats

    for name in WORKLOADS:
        (work / name).mkdir()
    out = {"problems": [], "notes": []}
    if not trace:
        runs = scenarios(workload, seed, seconds, False, None, work)
        interleave(runs[workload], [runs[s] for s in WORKLOADS if s != workload], seconds)
    else:
        # The in-process scenarios run once untraced, as the base the
        # tracing overhead is measured against, then traced.
        tracer = layers.Tracer()
        base = scenarios(workload, seed, seconds, True, None, work)
        runs = scenarios(workload, seed, seconds, True, tracer, work)
        for name in ("build", "library"):
            drain(base[name])
            drain(runs[name])
            out["problems"] += base[name].problems
        drain(runs["seats"])
    built, lib, seated = runs["build"], runs["library"], runs["seats"]
    for r, steps in enumerate(seated.ramps):
        out["notes"] += [
            f"ramp {r} {s.offered_rps:7.1f} req/s: answered {s.achieved_rps:7.1f}/s, "
            f"edit p99 {s.edit_p99_ms:6.2f} ms, late p99 {s.gen_late_p99_ms:5.2f} ms, "
            f"in flight {s.outstanding_first:5.1f} -> {s.outstanding_second:5.1f}, "
            f"failed {s.failures}{', cut short' if s.cut_short else ''} -> "
            f"{'pass' if s.passed() else 'FAIL'}"
            for s in steps
        ]
    metrics, samples = {}, {}
    for e2e in (build.end_to_end(built), library.end_to_end(lib), seats.end_to_end(seated)):
        samples.update(e2e.pop("samples"))
        metrics.update(e2e)
    if trace:
        # The end-to-end figures too noisy to gate (see README.md) are
        # reported here, from the untraced work.
        untraced = {
            **build.end_to_end(base["build"]),
            **library.end_to_end(base["library"]),
            **seats.end_to_end(seated),
        }
        metrics = {
            **{name: untraced[name] for name in UNGATED},
            **build.per_layer(built),
            **library.per_layer(lib),
            **seats.per_layer(seated),
            **layers.report(tracer),
            "trace.base_s": base["build"].wall_s + base["library"].wall_s,
            "trace.overhead_s": built.wall_s + lib.wall_s
            - base["build"].wall_s - base["library"].wall_s,
        }
    else:
        metrics["setup_s"] = runs[workload].setup_s
        metrics["peak_rss_mb"] = (
            seated.peak_rss_mb
            if workload == "seats"
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    out["metrics"] = metrics
    out["samples"] = samples
    out["problems"] += built.problems + lib.problems + seated.problems
    out["attempted"] = len(built.chips) + len(lib.ops) + len(seated.log)
    out["failed"] = sum(1 for r in seated.log if not r.ok)
    return out


def code_digest() -> str:
    """A digest of the program and the benchmark, so that only traced
    runs of the same code compare their counts."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, layer: dict) -> list[str]:
    """Count metrics must repeat exactly across traced runs of one
    workload, seed and code: compare with the recorded ones, or record
    these."""
    counts = {name: layer[name] for name in COUNTS}
    path = STATE / f"counts-{workload}-{seed}-{code_digest()}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        return [
            f"count {n} = {counts[n]}, earlier traced run {previous.get(n)}"
            for n in COUNTS
            if previous.get(n) != counts[n]
        ]
    STATE.mkdir(exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # A SIGTERM unwinds like an exception, so the server subprocesses
    # are stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        out["problems"] += check_counts(args.workload, args.seed, out["metrics"])
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    for note in out["notes"]:
        print(note)
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:>14.6g} {entry['unit']}")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in sorted(out["samples"].items())))
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not out["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
