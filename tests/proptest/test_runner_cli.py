"""The fuzz runner and its CLI: determinism, corpus replay, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import repro.core.river as river_mod
from repro.proptest.runner import format_summary, run_fuzz
from tests.proptest.test_shrink import buggy_assign_tracks

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
REPO_SRC = os.path.join(REPO_ROOT, "src")


def test_identical_runs_are_identical():
    a = run_fuzz(seed=3, cases=20, corpus_dir=None)
    b = run_fuzz(seed=3, cases=20, corpus_dir=None)
    assert format_summary(a) == format_summary(b)


def test_different_seeds_draw_different_cases():
    from repro.proptest.oracles import ORACLES
    from repro.proptest.prng import Rng

    gen = ORACLES["river"].generate
    assert gen(Rng(0).fork("river").fork(0)) != gen(Rng(1).fork("river").fork(0))


def test_cost_scales_budgets():
    summary = run_fuzz(seed=0, cases=40, corpus_dir=None, shrink=False)
    assert summary["oracles"]["river"]["budget"] == 40
    assert summary["oracles"]["wal"]["budget"] == 10  # cost 4
    assert summary["oracles"]["pipeline"]["budget"] == 5  # cost 8


def test_unknown_oracle_is_an_error():
    with pytest.raises(ValueError, match="unknown oracle"):
        run_fuzz(seed=0, cases=1, oracles=["nosuch"], corpus_dir=None)


def test_corpus_replays_before_fresh_cases(tmp_path):
    case = {
        "lambda": 250,
        "tracks_per_channel": 4,
        "wires": [
            {"name": "a", "layer": "metal", "width": 750,
             "u_in": 0, "u_out": 6000, "entry_v": 0},
        ],
    }
    (tmp_path / "repro_river_seed.json").write_text(
        json.dumps({"oracle": "river", "case": case, "error": ""})
    )
    summary = run_fuzz(
        seed=0, cases=1, oracles=["river"], corpus_dir=str(tmp_path)
    )
    assert summary["corpus"]["replayed"] == 1
    assert summary["corpus"]["failures"] == []


def test_corpus_failure_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(river_mod, "_assign_tracks", buggy_assign_tracks)
    case = {
        "lambda": 250,
        "tracks_per_channel": 4,
        "wires": [
            {"name": "a", "layer": "metal", "width": 750,
             "u_in": 0, "u_out": 3000, "entry_v": 0},
            {"name": "b", "layer": "metal", "width": 750,
             "u_in": 1500, "u_out": 4500, "entry_v": 0},
        ],
    }
    (tmp_path / "repro_river_crossing.json").write_text(
        json.dumps({"oracle": "river", "case": case, "error": ""})
    )
    summary = run_fuzz(
        seed=0, cases=1, oracles=["stretch"], corpus_dir=str(tmp_path)
    )
    # The corpus file targets the river oracle, which was not selected.
    assert summary["corpus"]["replayed"] == 0
    summary = run_fuzz(
        seed=0, cases=1, oracles=["river"], corpus_dir=str(tmp_path),
        shrink=False,
    )
    assert summary["corpus"]["replayed"] == 1
    assert summary["corpus"]["failures"]
    assert not summary["ok"]


def test_save_writes_reproducers(tmp_path, monkeypatch):
    monkeypatch.setattr(river_mod, "_assign_tracks", buggy_assign_tracks)
    out = tmp_path / "found"
    summary = run_fuzz(
        seed=0, cases=10, oracles=["river"], corpus_dir=None,
        save_dir=str(out),
    )
    assert not summary["ok"]
    written = sorted(os.listdir(out))
    assert written
    payload = json.loads((out / written[0]).read_text())
    assert payload["oracle"] == "river"
    assert payload["case"]["wires"]


def _run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_cli_byte_identical_and_exit_zero():
    args = ("--seed", "0", "--cases", "15", "--corpus", os.devnull)
    first = _run_cli(*args)
    second = _run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    summary = json.loads(first.stdout)
    assert summary["ok"] is True
    assert sorted(summary["oracles"]) == [
        "abut", "floorplan", "model", "pipeline", "river", "stretch", "wal",
    ]


def test_cli_replays_the_corpus_from_any_working_directory(tmp_path):
    args = ("--seed", "0", "--cases", "1", "--oracle", "river")
    runs = [_run_cli(*args, cwd=cwd) for cwd in (REPO_ROOT, tmp_path)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    from_root, from_elsewhere = (json.loads(r.stdout)["corpus"] for r in runs)
    assert from_root["replayed"] > 0
    assert from_elsewhere == from_root


def test_cli_unknown_oracle_exit_two():
    result = _run_cli("--seed", "0", "--cases", "1", "--oracle", "bogus")
    assert result.returncode == 2
    assert "unknown oracle" in result.stderr


def test_cli_writes_out_file(tmp_path):
    out = tmp_path / "summary.json"
    result = _run_cli(
        "--seed", "1", "--cases", "5", "--oracle", "river",
        "--corpus", os.devnull, "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    assert json.loads(out.read_text())["ok"] is True
