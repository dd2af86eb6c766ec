"""Telemetry smoke test: one stitched trace from client to shard.

The scenario CI runs (the ``telemetry-smoke`` job):

1. start a sharded ``python -m repro serve --shards 2`` subprocess with
   ``--trace`` and ``--metrics`` — the supervisor writes its own trace
   file and hands each shard ``--trace FILE.shard<i>``;
2. this process labels itself ``client``, turns tracing on, and drives
   several sessions of edit commands through the typed client straight
   to their shards — every request carries a fresh ``trace_id`` and
   the client root span's reference in its envelope;
3. assert every response decomposes into the shard's stages
   (``direct`` / ``shard_queue`` / ``handler`` / ``fsync``) via
   :attr:`ServiceClient.last_stages`;
4. ask for ``service.telemetry`` and validate the result shape: merged
   quantile histograms, per-shard snapshots, the ``--slow`` flight
   recorder — then render it with :mod:`repro.service.top`;
5. shut down, collect the four trace files (client, supervisor, two
   shards), and run ``tools/check_trace.py`` over all of them at once:
   every cross-process ``xparent`` link must resolve and every span
   carrying a ``trace_id`` — each shard's ``shard.request`` and its
   children — must chain back to a ``client.request`` root, the
   stitched-trace guarantee;
6. assert the supervisor's ``--metrics`` export includes the
   shard-process counters under ``shard<i>.`` prefixes.

Run directly: ``python examples/telemetry_smoke.py``.  Exit code 0 on
success.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.cli import obs_from_flags  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.service.client import RetryPolicy, ServiceClient  # noqa: E402
from repro.service.telemetry import STAGES  # noqa: E402
from repro.service.top import render  # noqa: E402

SHARDS = 2
SESSIONS = 4
EDITS_PER_SESSION = 6

#: Stage keys every sharded response must decompose into: the shard's
#: own turnaround and its parts (``client`` is added client-side).
WIRE_STAGES = tuple(s for s in STAGES if s != "client")


def start_server(tmp: Path) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--shards", str(SHARDS),
            "--journal-dir", str(tmp / "wal"),
            "--trace", str(tmp / "trace.supervisor.json"),
            "--metrics", str(tmp / "metrics.json"),
        ],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline()
    match = re.match(r"listening on (\S+):(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, match.group(1), int(match.group(2))


def run_session(host: str, port: int, name: str, failures: list) -> None:
    try:
        with ServiceClient(
            host, port, session=name, retry=RetryPolicy(seed=0)
        ) as client:
            client.call("new_cell", name="smoke")
            client.call("create", at=(0, 0), cell_name="nand", name="g0")
            for _ in range(EDITS_PER_SESSION):
                client.call("rotate", name="g0")
            missing = [s for s in WIRE_STAGES if s not in client.last_stages]
            assert not missing, (
                f"{name}: response missing stage(s) {missing}: "
                f"{client.last_stages}"
            )
            # Stages nest: the client round trip contains the shard's
            # turnaround, which contains the handler.
            stages = client.last_stages
            assert (
                stages["client"] >= stages["direct"] >= stages["handler"]
            ), stages
    except Exception as exc:  # pragma: no cover - failure path
        failures.append((name, exc))


def check_telemetry(host: str, port: int) -> None:
    with ServiceClient(host, port) as control:
        result = control.call("service.telemetry", slow=True)
    total = SESSIONS * (EDITS_PER_SESSION + 2)
    assert result.process == "supervisor", result.process
    assert result.pid is not None
    assert result.merged["rpc.requests"] >= total, result.merged
    assert result.merged["rpc.all.total"]["count"] >= total
    for stage in WIRE_STAGES:
        hist = result.merged.get(f"rpc.all.{stage}")
        assert hist and hist["count"] >= total, (stage, hist)
        assert isinstance(hist["p99"], float), (stage, hist)
    assert len(result.shards) == SHARDS
    assert all(s.alive for s in result.shards)
    # Every request is accounted by the shard that executed it; the
    # per-shard snapshots arrive via the heartbeat piggyback.
    assert all(s.metrics is not None for s in result.shards), result.shards
    assert result.slowest, "flight recorder empty after traffic"
    worst = result.slowest[0]
    assert worst.trace_id is not None, worst
    assert set(WIRE_STAGES) <= set(worst.stages or {}), worst
    print("ok: service.telemetry shape (merged + shards + flight recorder)")
    report = render(result, slow=True)
    assert "latency by stage" in report and "shard0 [up]" in report
    print(report)


def check_stitched_trace(tmp: Path) -> None:
    files = [tmp / "trace.client.json", tmp / "trace.supervisor.json"]
    files += [
        tmp / f"trace.supervisor.json.shard{i}" for i in range(SHARDS)
    ]
    for path in files:
        assert path.exists(), f"missing trace file {path}"
    proc = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "tools" / "check_trace.py"),
            *map(str, files),
            "--require", "client.request",
            "--require", "shard.request",
            "--require", "handler.execute",
            "--require-root", "client.request",
        ],
        capture_output=True, text=True,
    )
    sys.stdout.write(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    print("ok: stitched client/supervisor/shard traces pass cross-process "
          "validation")


def check_metrics_export(tmp: Path) -> None:
    snapshot = json.loads((tmp / "metrics.json").read_text())
    for index in range(SHARDS):
        keys = [k for k in snapshot if k.startswith(f"shard{index}.")]
        assert keys, f"no shard{index}.* keys in --metrics export"
        assert f"shard{index}.service.requests" in snapshot, sorted(keys)[:8]
    print("ok: --metrics export includes shard-process counters")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="telemetry_smoke_"))
    trace.set_process_label("client")
    server, host, port = start_server(tmp)
    try:
        with obs_from_flags(str(tmp / "trace.client.json"), None):
            failures: list = []
            threads = [
                threading.Thread(
                    target=run_session, args=(host, port, f"seat{i}", failures)
                )
                for i in range(SESSIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures
            print(
                f"ok: {SESSIONS} traced session(s) completed with full "
                "stage decomposition"
            )
            check_telemetry(host, port)
            with ServiceClient(host, port) as control:
                control.call("service.shutdown")
            server.wait(timeout=60)
    finally:
        if server.poll() is None:  # pragma: no cover - failure path
            server.kill()
            server.wait()
    check_stitched_trace(tmp)
    check_metrics_export(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
