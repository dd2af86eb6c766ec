"""Service benchmark: concurrent sessions against one server process.

The server runs as a subprocess (its own interpreter, so client and
server GILs are separate) with per-session write-ahead journaling on —
the production configuration.  Each session is a blocking
:class:`~repro.service.client.ServiceClient` on its own thread running
the same command tape: CREATE + ROTATE edits, one WAL fsync each.

Two closed-loop workloads, at 1 / 8 / 32 concurrent sessions:

* ``interactive`` — the paper's usage model: a seat issues a command,
  reads the response, and "thinks" (20 ms here, generously fast for a
  human at a DAC-1982 workstation) before the next.  A single seat
  leaves the service almost entirely idle, so aggregate throughput
  scales with seats until the server saturates — that headroom is the
  reason a multi-session service exists, and ``speedup_8_vs_1`` (the
  headline number) quantifies it.
* ``tight`` — no think time, pure stress: measures the service's
  saturation throughput and how per-command latency degrades under
  full pipelining.  Gains here come from overlapping per-session WAL
  fsyncs and socket turnarounds; compute cannot scale past the core
  count (reported as ``cores``).

Then the supervised sharded deployment (``--shards``), which breaks
the single-interpreter ceiling by spreading sessions across worker
*processes*:

* ``sharded`` — the interactive workload at 256 sessions over 4 shard
  processes.  The headline ``sharded_vs_single_32`` compares its
  aggregate throughput against the best single-process interactive
  run; it must exceed 1.0 or the supervisor is overhead, not scale.
* ``recovery`` — SIGKILL one shard mid-session and time from the kill
  to the session's next acknowledged command (restart + WAL replay +
  client retry, end to end).  Budget: under two seconds.

Finally the ``slo`` workload: 1000 interactive seats over 8 shards
(``BENCH_SLO_SESSIONS`` / ``BENCH_SLO_SHARDS`` / ``BENCH_SLO_COMMANDS``
scale it down for CI), mixing edit and read commands.  The clients
negotiate **direct routing** (``service.hello`` + ``service.route``),
so session traffic dials the owning shard's data socket; the
supervisor only routes.  Afterwards one ``service.telemetry`` call
fetches the server's own merged quantile histograms, and the report
carries:

* an SLO-attainment table — per command class, the p50/p90/p99 against
  a declared budget (e.g. p99 < 50 ms), each row marked attained or
  not;
* the per-stage latency breakdown (direct shard turnaround, shard
  queue, handler, WAL fsync) that attributes the total.

Writes ``BENCH_service.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
JSON_PATH = REPO_ROOT / "BENCH_service.json"

sys.path.insert(0, str(SRC))

from repro.errors import ReproError  # noqa: E402
from repro.service.client import RetryPolicy, ServiceClient  # noqa: E402

COMMANDS_PER_SESSION = 120
THINK_TIME_S = 0.020
SESSION_COUNTS = (1, 8, 32)
SHARDS = 4
SHARDED_SESSIONS = 256

#: The SLO workload's scale — env-tunable so CI can run a reduced
#: version of the same code path (the committed BENCH_service.json is
#: always from a full >= 1000-session run).
SLO_SESSIONS = int(os.environ.get("BENCH_SLO_SESSIONS", "1000"))
SLO_SHARDS = int(os.environ.get("BENCH_SLO_SHARDS", "8"))
SLO_COMMANDS = int(os.environ.get("BENCH_SLO_COMMANDS", "24"))

#: The latency budget per command class, in milliseconds.  The table
#: reports attainment honestly — a saturated host fails these, and the
#: per-stage breakdown shows where the time went.
SLO_MS = {
    "edit": {"p50": 25.0, "p90": 40.0, "p99": 50.0},
    "read": {"p50": 25.0, "p90": 40.0, "p99": 50.0},
}

#: Rides out a shard restart during the recovery measurement.
PATIENT = RetryPolicy(
    attempts=12, base_delay=0.05, max_delay=1.0, connect_window=30.0
)


def raise_nofile_limit(target: int = 16384) -> None:
    """Direct routing doubles the client-side socket count (control
    wire + shard wire per seat); ask for headroom, best effort."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < target:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(target, hard), hard)
            )
    except (ImportError, ValueError, OSError):  # pragma: no cover
        pass


def start_server(
    journal_dir: str,
    *,
    shards: int = 0,
    max_sessions: int = 64,
    heartbeat_timeout: float | None = None,
) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--max-sessions",
        str(max_sessions),
        "--shards",
        str(shards),
        "--journal-dir",
        journal_dir,
    ]
    if heartbeat_timeout is not None:
        cmd += ["--heartbeat-timeout", str(heartbeat_timeout)]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.match(r"listening on (\S+):(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, match.group(1), int(match.group(2))


def setup_call(client: ServiceClient, method: str, **params) -> None:
    """A session's one-time setup command under at-least-once retries:
    if a connection drops after the shard executed but before the ack
    arrived, the replayable retry re-executes and answers "already
    has" — which proves the command landed, so treat it as success."""
    try:
        client.call(method, **params)
    except ReproError as exc:
        if "already" not in str(exc):
            raise


def run_session(
    host: str,
    port: int,
    name: str,
    think_s: float,
    latencies: list[float],
    retry: RetryPolicy | None = None,
) -> None:
    with ServiceClient(host, port, session=name, retry=retry) as client:
        setup_call(client, "new_cell", name="bench")
        setup_call(client, "create", at=(0, 0), cell_name="nand", name="g0")
        for _ in range(COMMANDS_PER_SESSION):
            t0 = time.perf_counter()
            client.call("rotate", name="g0")
            latencies.append(time.perf_counter() - t0)
            if think_s:
                time.sleep(think_s)


def measure(
    host: str,
    port: int,
    sessions: int,
    think_s: float,
    tag: str,
    retry: RetryPolicy | None = None,
) -> dict:
    latencies: list[float] = []
    threads = [
        threading.Thread(
            target=run_session,
            args=(host, port, f"{tag}-{i}", think_s, latencies, retry),
        )
        for i in range(sessions)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    total = sessions * COMMANDS_PER_SESSION
    ordered = sorted(latencies)
    return {
        "sessions": sessions,
        "commands": total,
        "wall_s": round(wall, 4),
        "throughput_rps": round(total / wall, 1),
        "latency_p50_ms": round(
            statistics.median(ordered) * 1000, 3
        ),
        "latency_p95_ms": round(
            ordered[int(len(ordered) * 0.95) - 1] * 1000, 3
        ),
        "latency_max_ms": round(ordered[-1] * 1000, 3),
    }


def run_slo_session(
    host: str, port: int, name: str, latencies: dict[str, list[float]]
) -> None:
    """One seat of the SLO workload: edits with a read every sixth
    command, client-side latency recorded per command class."""
    with ServiceClient(host, port, session=name, retry=PATIENT) as client:
        for cls, method, params in [
            ("edit", "new_cell", {"name": "bench"}),
            ("edit", "create",
             {"at": (0, 0), "cell_name": "nand", "name": "g0"}),
        ]:
            t0 = time.perf_counter()
            setup_call(client, method, **params)
            latencies[cls].append(time.perf_counter() - t0)
            time.sleep(THINK_TIME_S)
        for i in range(SLO_COMMANDS):
            cls, method, params = (
                ("read", "cells", {}) if i % 6 == 5
                else ("edit", "rotate", {"name": "g0"})
            )
            t0 = time.perf_counter()
            client.call(method, **params)
            latencies[cls].append(time.perf_counter() - t0)
            time.sleep(THINK_TIME_S)


def _quantiles_ms(ordered: list[float]) -> dict:
    def at(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(len(ordered) * q))] * 1000

    return {
        "count": len(ordered),
        "p50_ms": round(at(0.50), 3),
        "p90_ms": round(at(0.90), 3),
        "p99_ms": round(at(0.99), 3),
        "max_ms": round(ordered[-1] * 1000, 3),
    }


def measure_slo(host: str, port: int) -> dict:
    """Drive SLO_SESSIONS seats, then ask the service itself where the
    milliseconds went (``service.telemetry``) and score the budget."""
    latencies: dict[str, list[float]] = {"edit": [], "read": []}
    failures: list[str] = []

    def seat(name: str) -> None:
        try:
            run_slo_session(host, port, name, latencies)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(f"{name}: {exc!r}")

    threads = [
        threading.Thread(target=seat, args=(f"slo-{i}",))
        for i in range(SLO_SESSIONS)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    assert not failures, failures[:5]
    total = sum(len(v) for v in latencies.values())

    with ServiceClient(host, port, retry=PATIENT) as control:
        telemetry = control.call("service.telemetry")
        stats = control.call("service.stats")
    merged = telemetry.merged

    # The SLO-attainment table, scored from the server's own merged
    # log-bucketed histograms (not the client's measurements, which
    # also contain client-side thread scheduling).
    table = []
    for cls, budget in sorted(SLO_MS.items()):
        hist = merged.get(f"rpc.{cls}.total")
        if not hist or not hist.get("count"):
            continue
        for point, slo_ms in sorted(budget.items()):
            value_ms = round(hist[point] * 1000, 3)
            table.append(
                {
                    "class": cls,
                    "percentile": point,
                    "value_ms": value_ms,
                    "slo_ms": slo_ms,
                    "attained": value_ms < slo_ms,
                }
            )

    # Per-stage attribution of the total: where a request's
    # milliseconds actually go at this concurrency.
    stages = {}
    for stage in ("direct", "shard_queue", "handler", "fsync"):
        hist = merged.get(f"rpc.all.{stage}")
        if hist and hist.get("count"):
            stages[stage] = {
                "count": hist["count"],
                "p50_ms": round(hist["p50"] * 1000, 3),
                "p90_ms": round(hist["p90"] * 1000, 3),
                "p99_ms": round(hist["p99"] * 1000, 3),
            }

    return {
        "sessions": SLO_SESSIONS,
        "shards": SLO_SHARDS,
        "think_time_ms": THINK_TIME_S * 1000,
        "commands": total,
        "wall_s": round(wall, 4),
        "throughput_rps": round(total / wall, 1),
        "server_requests": merged.get("rpc.requests") or 0,
        "server_errors": merged.get("rpc.errors") or 0,
        #: How many session requests travelled the shard data sockets
        #: versus everything the supervisor's own socket accepted.
        "direct_requests": stats.direct_requests,
        "supervisor_requests": stats.requests,
        "client_latency": {
            cls: _quantiles_ms(sorted(values))
            for cls, values in latencies.items()
            if values
        },
        "slo_table": table,
        "slo_attained": all(row["attained"] for row in table),
        "stage_breakdown_ms": stages,
    }


def measure_recovery(host: str, port: int) -> dict:
    """SIGKILL one shard and time kill -> next acknowledged command
    on a session living there (restart + WAL replay + client retry)."""
    import signal

    with ServiceClient(
        host, port, session="recovery", retry=PATIENT
    ) as client:
        client.call("new_cell", name="bench")
        client.call("create", at=(0, 0), cell_name="nand", name="g0")
        listed = client.call("service.sessions").sessions
        (index,) = [s.shard for s in listed if s.name == "recovery"]
        stats = client.call("service.stats")
        (pid,) = [s.pid for s in stats.shards if s.index == index]
        t0 = time.perf_counter()
        os.kill(pid, signal.SIGKILL)
        client.call("rotate", name="g0")
        recovery_s = time.perf_counter() - t0
        retries = client.retries
    return {
        "shard": index,
        "recovery_s": round(recovery_s, 4),
        "client_retries": retries,
    }


def main() -> None:
    raise_nofile_limit()
    results: dict = {
        "benchmark": "service",
        "cores": os.cpu_count(),
        "commands_per_session": COMMANDS_PER_SESSION,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_service_wal_") as tmp:
        # Sessions are never evicted, and the interactive + tight runs
        # together open 2 * sum(SESSION_COUNTS) distinct names; size
        # the cap to fit or the tail of the tight run is refused.
        proc, host, port = start_server(
            tmp, max_sessions=4 * sum(SESSION_COUNTS)
        )
        try:
            for label, think_s in (
                ("interactive", THINK_TIME_S),
                ("tight", 0.0),
            ):
                runs = [
                    measure(host, port, n, think_s, f"{label}{n}")
                    for n in SESSION_COUNTS
                ]
                results["workloads"][label] = {
                    "think_time_ms": think_s * 1000,
                    "runs": runs,
                }
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    # The sharded deployment: 256 interactive seats over 4 worker
    # processes, then a shard-kill recovery measurement on the same
    # supervisor.
    with tempfile.TemporaryDirectory(prefix="bench_sharded_wal_") as tmp:
        proc, host, port = start_server(
            tmp, shards=SHARDS, max_sessions=SHARDED_SESSIONS + 8
        )
        try:
            run = measure(
                host,
                port,
                SHARDED_SESSIONS,
                THINK_TIME_S,
                "sharded",
                retry=PATIENT,
            )
            results["workloads"]["sharded"] = {
                "shards": SHARDS,
                "think_time_ms": THINK_TIME_S * 1000,
                "runs": [run],
            }
            results["recovery"] = measure_recovery(host, port)
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    # The SLO workload: >= 1000 seats over 8 shard processes, scored
    # against the per-class latency budget by the service's own
    # telemetry, with the per-stage attribution alongside.
    if SLO_SESSIONS:
        with tempfile.TemporaryDirectory(prefix="bench_slo_wal_") as tmp:
            # A saturating ramp (SLO_SESSIONS seats connecting at
            # once) can keep a busy-but-healthy shard away from its
            # health ping past the 2 s default; a generous timeout
            # keeps the heartbeat a liveness check, not a latency SLO.
            proc, host, port = start_server(
                tmp,
                shards=SLO_SHARDS,
                max_sessions=SLO_SESSIONS + 16,
                heartbeat_timeout=15.0,
            )
            try:
                results["workloads"]["slo"] = measure_slo(host, port)
            finally:
                proc.terminate()
                proc.wait(timeout=30)

    def speedup(workload: str, sessions: int) -> float:
        runs = {
            r["sessions"]: r["throughput_rps"]
            for r in results["workloads"][workload]["runs"]
        }
        return round(runs[sessions] / runs[1], 2)

    # The headline: aggregate throughput scaling at 8 concurrent
    # seats, on the usage model the tool was built for.
    results["speedup_8_vs_1"] = speedup("interactive", 8)
    results["speedup_32_vs_1"] = speedup("interactive", 32)
    results["tight_speedup_8_vs_1"] = speedup("tight", 8)

    # Sharding must buy throughput past the single-process ceiling,
    # and a killed shard must come back inside the two-second budget.
    single_32 = next(
        r["throughput_rps"]
        for r in results["workloads"]["interactive"]["runs"]
        if r["sessions"] == 32
    )
    sharded_rps = results["workloads"]["sharded"]["runs"][0]["throughput_rps"]
    results["sharded_vs_single_32"] = round(sharded_rps / single_32, 2)
    assert results["sharded_vs_single_32"] > 1.0, results
    assert results["recovery"]["recovery_s"] < 2.0, results["recovery"]

    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
