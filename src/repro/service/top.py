"""``python -m repro top`` — live service telemetry, rendered.

Connects to a running service (single-process or supervisor — the
wire cannot tell them apart), asks for its ``service.telemetry`` view,
and prints where the milliseconds go:

* per command class (edit / read / io / library / control), the
  latency quantiles of the whole request;
* per stage (direct shard turnaround, shard queue, handler, WAL
  fsync), the same quantiles — the stage rows of an ``edit`` p99 are
  the attribution the paper's interactive-response claim needs;
* per shard, liveness and its own request count/quantiles;
* with ``--slow``, the flight recorder: the slowest and the errored
  requests, each with its full stage decomposition.

All quantiles come from deterministic log-bucketed histograms merged
across processes (see :mod:`repro.service.telemetry`), so the numbers
printed here agree exactly with a ``--metrics`` export of the same
traffic.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.client import RetryPolicy, ServiceClient
from repro.service.telemetry import STAGES

#: Quantile columns rendered for every histogram row.
_POINTS = ("p50", "p90", "p99", "p999")


def _ms(value) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value * 1000:.2f}"


def _row(label: str, hist: dict | None) -> str:
    if not hist or not hist.get("count"):
        return f"  {label:<18}{'-':>8}" + f"{'-':>10}" * (len(_POINTS) + 1)
    cells = f"  {label:<18}{hist['count']:>8}"
    for point in _POINTS:
        cells += f"{_ms(hist.get(point)):>10}"
    cells += f"{_ms(hist.get('max')):>10}"
    return cells


def _header(title: str) -> list[str]:
    head = f"  {'':<18}{'count':>8}"
    for point in _POINTS:
        head += f"{point + ' ms':>10}"
    head += f"{'max ms':>10}"
    return [title, head]


def _classes(merged: dict) -> list[str]:
    names = set()
    for key in merged:
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "rpc" and parts[2] == "total":
            names.add(parts[1])
    names.discard("all")
    names.discard("client")
    return sorted(names)


def render(result, *, slow: bool = False) -> str:
    """The whole report as text (exposed for tests and the bench)."""
    merged = result.merged
    lines = [
        f"service telemetry — answered by {result.process} "
        f"(pid {result.pid})"
    ]
    requests = merged.get("rpc.requests", 0)
    errors = merged.get("rpc.errors", 0)
    lines.append(f"requests {requests}  errors {errors}")
    lines.append("")
    lines.extend(_header("latency by command class (whole request)"))
    lines.append(_row("all", merged.get("rpc.all.total")))
    for name in _classes(merged):
        lines.append(_row(name, merged.get(f"rpc.{name}.total")))
    lines.append("")
    lines.extend(_header("latency by stage (all classes)"))
    for stage in STAGES:
        hist = merged.get(f"rpc.all.{stage}")
        if hist is not None:
            lines.append(_row(stage, hist))
    if result.shards:
        lines.append("")
        lines.extend(_header("per shard (each shard's own view)"))
        for shard in result.shards:
            state = "up" if shard.alive else "DOWN"
            label = f"shard{shard.index} [{state}]"
            hist = (shard.metrics or {}).get("rpc.all.total")
            lines.append(_row(label, hist))
    if slow:
        lines.append("")
        lines.append("slowest requests (flight recorder)")
        lines.extend(_flight(result.slowest))
        if result.errored:
            lines.append("")
            lines.append("errored requests (flight recorder)")
            lines.extend(_flight(result.errored))
    return "\n".join(lines)


def _flight(records) -> list[str]:
    if not records:
        return ["  (none recorded)"]
    lines = [
        f"  {'method':<16}{'session':<12}{'shard':>6}{'total ms':>10}"
        f"  stages (ms)"
    ]
    for rec in records:
        stages = rec.stages or {}
        detail = " ".join(
            f"{stage}={stages[stage] / 1000:.2f}"
            for stage in STAGES
            if stage in stages
        )
        if rec.error:
            detail = f"error={rec.error} {detail}"
        session = rec.session or "-"
        shard = rec.shard if rec.shard is not None else "-"
        lines.append(
            f"  {rec.method:<16}{session:<12}{shard:>6}"
            f"{rec.total_us / 1000:>10.2f}  {detail}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Render a running service's request telemetry.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--slow",
        action="store_true",
        help="include the flight recorder (slowest + errored requests)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="dump the raw service.telemetry result as JSON instead",
    )
    args = parser.parse_args(argv)
    with ServiceClient(
        args.host,
        args.port,
        retry=RetryPolicy(attempts=3, connect_window=5.0),
    ) as client:
        result = client.call("service.telemetry", slow=args.slow)
    try:
        if args.json:
            from repro.api.codec import to_jsonable

            json.dump(
                to_jsonable(result), sys.stdout, indent=2, sort_keys=True
            )
            sys.stdout.write("\n")
        else:
            print(render(result, slow=args.slow))
    except BrokenPipeError:  # piped into head and the pipe closed
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
