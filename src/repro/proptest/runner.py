"""The fuzz runner behind ``python -m repro fuzz``.

A run is a pure function of (seed, budget, oracle selection): each
case draws from its own forked PRNG substream, so adding draws to one
case never shifts another, and the JSON summary contains nothing
volatile (no timestamps, no temp paths).  Identical invocations emit
byte-identical summaries — that property is itself under test.

Saved reproducers in the corpus directory replay first, so every bug
the fuzzer ever found stays fixed before fresh random exploration
begins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from repro.obs import metrics, trace
from repro.obs.clock import get_clock
from repro.proptest.gen import CaseInvalid
from repro.proptest.oracles import ORACLES, OracleFailure
from repro.proptest.prng import Rng
from repro.proptest.shrink import failure_predicate, reproducer_json, shrink_case

#: The repository's saved reproducers, found from this file (in
#: ``src/repro/proptest``), not the working directory.
DEFAULT_CORPUS = os.path.abspath(
    os.path.join(__file__, "../../../../tests/proptest/corpus")
)


def _run_one(oracle, case: dict) -> tuple[str, str | None]:
    """(status, detail): ok / vacuous / invalid / failed."""
    try:
        status = oracle.check(case)
    except CaseInvalid as exc:
        return "invalid", str(exc)
    except OracleFailure as exc:
        return "failed", str(exc)
    except Exception as exc:  # engine crash — also a finding
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return "failed", f"unexpected {detail}"
    return ("vacuous", None) if status == "vacuous" else ("ok", None)


def _replay_corpus(corpus_dir: str, names: list[str]) -> dict:
    replayed = 0
    failures = []
    if corpus_dir and os.path.isdir(corpus_dir):
        for filename in sorted(os.listdir(corpus_dir)):
            if not filename.endswith(".json"):
                continue
            with open(os.path.join(corpus_dir, filename), encoding="utf-8") as fh:
                entry = json.load(fh)
            oracle = ORACLES.get(entry.get("oracle", ""))
            if oracle is None or oracle.name not in names:
                continue
            replayed += 1
            status, detail = _run_one(oracle, entry["case"])
            if status == "failed":
                failures.append(
                    {"file": filename, "oracle": oracle.name, "error": detail}
                )
    return {"replayed": replayed, "failures": failures}


def run_fuzz(
    seed: int = 0,
    cases: int = 100,
    oracles: list[str] | None = None,
    corpus_dir: str | None = DEFAULT_CORPUS,
    shrink: bool = True,
    save_dir: str | None = None,
) -> dict:
    """Execute the fuzzing budget and return the JSON-able summary.

    ``cases`` is the per-oracle budget for cost-1 oracles; an oracle
    with cost ``c`` runs ``max(1, cases // c)`` cases.  Failures are
    shrunk (unless ``shrink`` is false) and, when ``save_dir`` is
    given, written there as corpus reproducers.
    """
    names = sorted(oracles) if oracles else sorted(ORACLES)
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(ORACLES))}"
        )

    root = Rng(seed)
    summary: dict = {
        "seed": seed,
        "cases": cases,
        "corpus": _replay_corpus(corpus_dir or "", names),
        "oracles": {},
        "ok": True,
    }
    summary["ok"] = not summary["corpus"]["failures"]

    clock = get_clock()
    for name in names:
        oracle = ORACLES[name]
        budget = max(1, cases // oracle.cost)
        counts = {"budget": budget, "ok": 0, "vacuous": 0, "invalid": 0}
        failures = []
        stream = root.fork(name)
        # Per-oracle wall time and case throughput are observability
        # data, not summary data: they live in the metrics registry
        # (and the trace, when enabled) so the JSON summary stays a
        # pure function of (seed, budget, oracle selection).
        oracle_span = trace.span("fuzz.oracle", oracle=name, budget=budget)
        oracle_t0 = clock.wall()
        for index in range(budget):
            case = oracle.generate(stream.fork(index))
            status, detail = _run_one(oracle, case)
            if status != "failed":
                counts[status] += 1
                continue
            failure = {"index": index, "error": detail}
            if shrink:
                shrunk = shrink_case(case, failure_predicate(oracle.check))
                _, shrunk_detail = _run_one(oracle, shrunk)
                failure["case"] = shrunk
                failure["shrunk_error"] = shrunk_detail
            else:
                failure["case"] = case
            if save_dir:
                os.makedirs(save_dir, exist_ok=True)
                path = os.path.join(
                    save_dir, f"repro_{name}_{seed}_{index}.json"
                )
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(
                        reproducer_json(
                            name, failure["case"], failure.get(
                                "shrunk_error"
                            ) or detail or ""
                        )
                    )
            failures.append(failure)
        elapsed = clock.wall() - oracle_t0
        metrics.counter("fuzz.cases").inc(budget)
        metrics.gauge(f"fuzz.oracle.{name}.wall_s").set(elapsed)
        metrics.gauge(f"fuzz.oracle.{name}.cases_per_s").set(
            budget / elapsed if elapsed > 0 else 0.0
        )
        oracle_span.set("ok", counts["ok"]).set("failures", len(failures))
        oracle_span.close()
        summary["oracles"][name] = {
            "budget": budget,
            "ok": counts["ok"],
            "vacuous": counts["vacuous"],
            "invalid": counts["invalid"],
            "failures": failures,
        }
        if failures:
            summary["ok"] = False
    return summary


def format_summary(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Property-based fuzzing of the Riot engines: replay the saved "
            "corpus, then run fresh generated cases against every oracle."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed")
    parser.add_argument(
        "--cases", type=int, default=100,
        help="per-oracle case budget (scaled down for expensive oracles)",
    )
    parser.add_argument(
        "--oracle", action="append", dest="oracles", metavar="NAME",
        help=f"restrict to an oracle (repeatable); known: "
             f"{', '.join(sorted(ORACLES))}",
    )
    parser.add_argument(
        "--corpus", default=DEFAULT_CORPUS,
        help="corpus directory replayed before fresh cases",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="report failures unshrunk"
    )
    parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="write shrunk reproducers for new failures into DIR",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the JSON summary to FILE instead of stdout",
    )
    from repro.cli import add_obs_flags, obs_from_flags

    add_obs_flags(parser)
    args = parser.parse_args(argv)

    with obs_from_flags(args.trace, args.metrics):
        try:
            summary = run_fuzz(
                seed=args.seed,
                cases=args.cases,
                oracles=args.oracles,
                corpus_dir=args.corpus,
                shrink=not args.no_shrink,
                save_dir=args.save,
            )
        except ValueError as exc:
            print(f"repro fuzz: {exc}", file=sys.stderr)
            return 2

    text = format_summary(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
