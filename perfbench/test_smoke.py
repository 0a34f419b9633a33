"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks the result line against
BENCHMARK.json, checks that exact counters repeat between two traced runs,
that every layer has calls on the workload meant to move it, and that the
correctness checks fire on a deliberately wrong expected value.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on sys.path)
import calibration  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layer -> the workload its table row names as "on" (where it must have calls).
ON_WORKLOAD = {
    "core.BarrierEvaluation": ("rollouts", "presets"),
    "plants.pendulum_barrier": ("rollouts",),
    "plants.nominal": ("rollouts",),
    "plants.truck_filter": ("rollouts",),
    "plants.drift": ("rollouts",),
    "cbf.filter": ("rollouts", "presets"),
    "issf.filter": ("rollouts", "presets"),
    "sim.rk4_step": ("rollouts",),
    "sim.run_scenario": ("rollouts",),
    "sim.to_csv": ("presets",),
    "cli.main": ("presets", "design"),
    "sim.truck_lag_disturbance": ("presets",),
    "disturbance.lag_residual": ("presets",),
    "disturbance.signal": ("rollouts",),
    "issf.solve_h_star": ("design",),
    "issf.set_inflation": ("design",),
    "verification.certify_truck_grid": ("design",),
    "verification.truck_margin_table": ("design",),
    "cli.parse_config": ("presets", "design"),
    "cli.build_scenarios": ("presets",),
}
# At this commit the simulator runs the truck through truck_safe_filter and
# truck_robust_filter, which never build the truck barrier closure; the
# metric is kept so that routing the truck through it shows up.
NOT_ON_SIM_PATH = ("plants.truck_barrier",)
EXACT_UNITS = ("count", "calls/step", "calls/solve", "fraction", "bytes")

_RUNS = {}


def bench(workload: str, trace: int, repeat: int = 0) -> dict:
    key = (workload, trace, repeat)
    if key not in _RUNS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert out.returncode == 0, out.stderr
        _RUNS[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_between_runs(workload):
    first, second = bench(workload, 1), bench(workload, 1, repeat=1)
    for name, metric in first["metrics"].items():
        if metric["unit"] in EXACT_UNITS and not name.startswith("trace"):
            assert metric["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_top_level_spans_account_for_the_traced_wall(workload):
    assert bench(workload, 1)["metrics"]["trace.accounted_frac"]["value"] >= 0.9


def test_every_layer_has_calls_on_its_workload():
    for layer, on in ON_WORKLOAD.items():
        for workload in on:
            assert bench(workload, 1)["metrics"][f"{layer}.calls"]["value"] > 0, \
                (layer, workload)
    for layer in NOT_ON_SIM_PATH:
        for workload in WORKLOADS:
            assert bench(workload, 1)["metrics"][f"{layer}.calls"]["value"] == 0


def test_counters_that_name_a_fixed_call_pattern():
    metrics = bench("rollouts", 1)["metrics"]
    assert metrics["sim.filter_calls_per_step"]["value"] == 5.0
    assert metrics["plants.nominal_calls_per_step"]["value"] == 6.0


def _failures(name: str, work_dir: Path) -> list:
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(name, 7, "tiny", work_dir)
    return worker.run_pass(wl, work_dir / "pass", calibration.SpeedSampler())["failures"]


def test_presets_check_fires_on_wrong_h_star(monkeypatch, tmp_path):
    assert _failures("presets", tmp_path / "ok") == []
    monkeypatch.setitem(workloads.PUBLISHED_H_STAR, "truck-braking-disturbed", -4.0)
    assert any("reported h*" in f for f in _failures("presets", tmp_path / "wrong"))


def test_rollouts_check_fires_on_wrong_slack(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "H_STAR_SLACK", -1e3)
    failures = _failures("rollouts", tmp_path)
    assert failures and all("below h*" in f for f in failures)


def test_design_check_fires_on_wrong_golden(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.TRUCK_H_STAR_GOLDENS, (0.5, 0.4), -4.0)
    failures = _failures("design", tmp_path)
    assert len(failures) == 1 and "h*(0.5, 0.4)" in failures[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
