"""Seeded inputs, operations and correctness checks of the benchmark workloads.

A workload is a list of operations that make up one pass.  Each operation is
one call into safefilter (timed by the caller) and a check of what the call
produced (not timed).  Inputs come from the seed alone; the program only
receives the generated inputs.

``presets``   ``cli.main(["simulate", "--preset", P, ...])`` for the seven
              simulate presets: the traffic the study scripts produce.
``rollouts``  library ``run_scenario`` over seeded short rollouts of both
              plants under bounded zero-order-hold disturbances: many
              independent scenarios, no CLI and no file I/O.
``design``    ``cli.main`` certify and sweep commands: h* bisection,
              verification and the CSV writers, with no simulation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import safefilter
import safefilter.cli
from safefilter import (
    EpsilonFunction,
    PendulumParams,
    Scenario,
    SimulationError,
    TruckParams,
    hard_brake_profile,
    sampled_disturbance,
    truck_headway,
)

SIZES = ("full", "tiny")

# -- expected values (the acceptance gate's own numbers and slack) ----------

H_STAR_SLACK = 1e-3          # robust runs: h_min >= h* - slack
SAFE_SLACK = 1e-3            # undisturbed filtered runs: h_min >= -slack
H_STAR_TOL = 0.01            # reported h* against the published value
CRUISE_SHIFT_MAX = 0.05      # truck-cruise steady-state shift [m]
PUBLISHED_H_STAR = {
    "pendulum-pulse-issf-const": -0.10,
    "pendulum-pulse-issf-exp": -0.10,
    "truck-braking-disturbed": -4.38,
}
# criterion-2 goldens of the truck h* table, delta = 4.5
TRUCK_H_STAR_GOLDENS = {
    (0.8, 0.0): -40.50, (3.0, 0.0): -151.88, (4.0, 0.0): -202.50,
    (5.0, 0.0): -253.13, (0.5, 0.4): -4.38, (0.5, 0.5): -3.80,
    (0.8, 0.25): -7.01, (0.8, 0.35): -5.64, (1.0, 0.25): -7.59,
}

# Per preset and controller: "violates" (h_min < 0), "safe" (h_min >= -1e-3),
# "robust" (h_min >= h* - 1e-3) or "cruise" (|steady-state shift| <= 0.05).
PRESET_VERDICTS = {
    "pendulum-undisturbed": {"nominal": "violates", "cbf": "safe"},
    "pendulum-pulse-cbf": {"cbf": "violates"},
    "pendulum-pulse-issf-const": {"issf": "robust"},
    "pendulum-pulse-issf-exp": {"issf": "robust"},
    "truck-braking": {"nominal": "violates", "cbf": "safe"},
    "truck-braking-disturbed": {"nominal": "violates", "cbf": "violates", "issf": "robust"},
    "truck-cruise": {"nominal": "cruise"},
}
# The tiny size keeps the presets that between them exercise every layer the
# presets workload is meant to move.
TINY_PRESETS = ("pendulum-pulse-cbf", "pendulum-pulse-issf-exp", "truck-braking-disturbed")


@dataclass
class Op:
    """One timed call into safefilter and the untimed check of its output."""

    label: str
    call: Callable[[Path], Any]
    check: Callable[[Any, Path], list]


@dataclass
class Workload:
    ops: list
    # workload-specific totals per pass, filled in by the checks
    totals: dict = field(default_factory=dict)


def _cli(argv) -> int:
    # cli.main is looked up at call time so an installed tracer sees the call
    with contextlib.redirect_stdout(io.StringIO()):
        return safefilter.cli.main(argv)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _preset_verdicts(name: str, rows: list) -> list:
    errors = []
    by_controller = {row["controller"]: row for row in rows}
    for controller, verdict in PRESET_VERDICTS[name].items():
        row = by_controller.get(controller)
        if row is None:
            errors.append(f"{name}: no {controller} row in the summary")
            continue
        h_min = float(row["h_min"])
        if verdict == "violates" and not h_min < 0.0:
            errors.append(f"{name}/{controller}: h_min {h_min:.6g} should be < 0")
        elif verdict == "safe" and not h_min >= -SAFE_SLACK:
            errors.append(f"{name}/{controller}: h_min {h_min:.6g} below -{SAFE_SLACK}")
        elif verdict == "robust":
            h_star = float(row["h_star"])
            if not h_min >= h_star - H_STAR_SLACK:
                errors.append(f"{name}/{controller}: h_min {h_min:.6g} below h* {h_star:.6g}")
            if abs(h_star - PUBLISHED_H_STAR[name]) > H_STAR_TOL:
                errors.append(f"{name}: reported h* {h_star:.6g}, "
                              f"expected {PUBLISHED_H_STAR[name]}")
        elif verdict == "cruise":
            shift = row["steady_state_shift"]
            if not shift or abs(float(shift)) > CRUISE_SHIFT_MAX:
                errors.append(f"{name}: steady-state shift {shift!r} above {CRUISE_SHIFT_MAX}")
    return errors


def make_presets(seed: int, size: str, work_dir: Path) -> Workload:
    names = list(PRESET_VERDICTS) if size == "full" else list(TINY_PRESETS)
    np.random.default_rng(seed).shuffle(names)
    wl = Workload([])
    digests = {}  # preset -> SHA-256 of its logs in the first pass

    def make_op(name):
        def call(out_dir):
            return _cli(["simulate", "--preset", name, "--out", str(out_dir)])

        def check(code, out_dir):
            if code != 0:
                return [f"{name}: exit code {code}"]
            summary = out_dir / f"{name}_summary.csv"
            rows = _read_csv(summary)
            errors = _preset_verdicts(name, rows)
            digest = hashlib.sha256()
            for path in [out_dir / f"{row['scenario']}.csv" for row in rows] + [summary]:
                data = path.read_bytes()
                digest.update(data)
                if path != summary:
                    wl.totals["logged_steps"] = (wl.totals.get("logged_steps", 0)
                                                 + data.count(b"\n") - 1)
            if digests.setdefault(name, digest.hexdigest()) != digest.hexdigest():
                errors.append(f"{name}: logs differ from the first pass (SHA-256)")
            return errors

        return Op(name, call, check)

    wl.ops = [make_op(name) for name in names]
    return wl


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

DT = 0.01
PENDULUM_DELTA = 0.75
TRUCK_DELTA = 4.5
# published (eps0, lambda) pairs: pendulum h* table and truck h* table
PENDULUM_PAIRS = ((0.15, 0.0), (0.5, 12.0), (4.0, 3.0))
TRUCK_PAIRS = tuple(TRUCK_H_STAR_GOLDENS)
ROLLOUT_COMBOS = (("pendulum", "cbf"), ("pendulum", "issf"), ("truck", "cbf"), ("truck", "issf"))
ROLLOUTS = {"full": 200, "tiny": 8}
HOLD_STEPS = (10, 20, 50)    # zero-order-hold lengths, in integration steps


def _zoh_disturbance(rng, n_steps: int, delta: float, k: int):
    """Bounded zero-order-hold disturbance with breakpoints on the dt grid."""
    hold = HOLD_STEPS[k % len(HOLD_STEPS)]
    n_pieces = n_steps // hold + 2          # the domain covers the horizon
    t = (np.arange(n_pieces) * hold) * DT   # same float formula as the sim's grid
    if k % 2:
        d = delta * rng.choice((-1.0, 1.0), size=n_pieces)
    else:
        d = rng.uniform(-delta, delta, size=n_pieces)
    return sampled_disturbance(t, d)


def _pendulum_state(rng, p: PendulumParams) -> tuple:
    """Uniform in the safe ellipse u^2 + w^2 + u w <= 1 (u = theta/a, w = thdot/b)."""
    while True:
        u, w = rng.uniform(-1.16, 1.16, size=2)
        if u * u + w * w + u * w <= 1.0:
            return (float(u * p.a), float(w * p.b))


def _truck_state_and_leader(rng, p: TruckParams):
    v_lead = float(rng.uniform(8.0, p.v_bar_l))
    v = float(rng.uniform(0.7, 1.0) * v_lead)
    d_gap = truck_headway(p, v, v_lead) + float(rng.uniform(0.0, 10.0))
    a_peak = -float(rng.uniform(4.0, p.a_under_l))
    t_min = v_lead / abs(a_peak)
    leader = hard_brake_profile(v_lead, float(rng.uniform(0.5, 3.0)), a_peak,
                                float(rng.uniform(t_min, 2.0 * t_min)),
                                v_bar_l=p.v_bar_l, a_under_l=p.a_under_l)
    return (d_gap, v, v_lead), leader


def rollout_scenarios(seed: int, n: int) -> list:
    """n seeded scenarios: equal shares of each (plant, controller) pair.

    Horizons are fixed per share (500 to 800 steps), so every seed does the
    same number of steps with the same controller mix; the seed draws initial
    states, leaders, disturbances and the order.
    """
    rng = np.random.default_rng(seed)
    pend, truck = PendulumParams(), TruckParams()
    per = n // len(ROLLOUT_COMBOS)
    scenarios = []
    for plant, controller in ROLLOUT_COMBOS:
        for k in range(per):
            n_steps = 500 + (300 * (2 * k + 1)) // (2 * per)
            if plant == "pendulum":
                eps0, lam = PENDULUM_PAIRS[k % len(PENDULUM_PAIRS)]
                x0, leader, delta = _pendulum_state(rng, pend), None, PENDULUM_DELTA
            else:
                eps0, lam = TRUCK_PAIRS[k % len(TRUCK_PAIRS)]
                (x0, leader), delta = _truck_state_and_leader(rng, truck), TRUCK_DELTA
            scenarios.append(Scenario(
                name=f"rollout-{plant}-{controller}-{k}",
                plant=plant,
                controller=controller,
                x0=x0,
                horizon=n_steps * DT,
                dt=DT,
                disturbance=_zoh_disturbance(rng, n_steps, delta, k),
                pendulum=pend if plant == "pendulum" else None,
                truck=truck if plant == "truck" else None,
                leader=leader,
                epsilon=EpsilonFunction(eps0, lam) if controller == "issf" else None,
                delta=delta,
            ))
    order = rng.permutation(len(scenarios))
    return [scenarios[i] for i in order]


def make_rollouts(seed: int, size: str, work_dir: Path) -> Workload:
    wl = Workload([])
    summaries = {}  # scenario -> (h_min, rows with u_filt != u_nom) of the first pass

    def make_op(scn):
        def call(out_dir):
            try:
                return safefilter.sim.run_scenario(scn)
            except SimulationError as err:
                return err

        def check(result, out_dir):
            if isinstance(result, SimulationError):
                return [f"{scn.name}: {result}"]
            wl.totals["logged_steps"] = wl.totals.get("logged_steps", 0) + result.time.size
            errors = []
            if scn.controller == "issf" and not result.h_min >= result.h_star - H_STAR_SLACK:
                errors.append(f"{scn.name}: h_min {result.h_min:.6g} below "
                              f"h* {result.h_star:.6g}")
            summary = (result.h_min, int(np.count_nonzero(result.u_filt != result.u_nom)))
            if summaries.setdefault(scn.name, summary) != summary:
                errors.append(f"{scn.name}: result differs from the first pass")
            return errors

        return Op(scn.name, call, check)

    wl.ops = [make_op(scn) for scn in rollout_scenarios(seed, ROLLOUTS[size])]
    return wl


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

CERTIFY_GRID = {"full": 500, "tiny": 60}
DENSE_SWEEP = {"full": 40, "tiny": 6}


def _dense_sweep_doc(plant: str, delta: float, lam_max: float, n: int) -> dict:
    """The dense (eps0, lambda) grid that scripts/hstar_sweep.py sweeps."""
    return {
        "name": f"{plant}-hstar-grid",
        "plant": plant,
        "issf": {"eps0": 1.0, "lam": 0.0, "delta": delta},
        "sweep": {
            "eps0_grid": [round(v, 6) for v in np.linspace(0.05, 5.0, n)],
            "lambda_grid": [round(v, 6) for v in np.linspace(0.0, lam_max, n)],
        },
    }


def _check_certify(name: str):
    def check(code, out_dir):
        if code != 0:
            return [f"certify {name}: exit code {code}"]
        report = json.loads((out_dir / f"{name}_certify.json").read_text())
        if not (report["passed"] and report["min_margin"] > 0.0):
            return [f"certify {name}: passed={report['passed']}, "
                    f"min margin {report['min_margin']}"]
        return []

    return check


def _check_sweep(name: str, goldens: dict | None, wl: Workload):
    def check(code, out_dir):
        if code != 0:
            return [f"sweep {name}: exit code {code}"]
        rows = _read_csv(out_dir / f"{name}.csv")
        wl.totals["sweep_rows"] = wl.totals.get("sweep_rows", 0) + len(rows)
        errors = [f"sweep {name}: row {row} not ok" for row in rows if row["status"] != "ok"]
        if goldens:
            found = {(float(r["eps0"]), float(r["lambda"])): float(r["h_star"]) for r in rows}
            for key, expected in goldens.items():
                if key in found and abs(found[key] - expected) > H_STAR_TOL:
                    errors.append(f"sweep {name}: h*{key} = {found[key]:.6g}, "
                                  f"expected {expected}")
            if not set(goldens) & set(found):
                errors.append(f"sweep {name}: no golden (eps0, lambda) pair in the grid")
        return errors

    return check


def make_design(seed: int, size: str, work_dir: Path) -> Workload:
    wl = Workload([])
    grid = CERTIFY_GRID[size]
    configs = {
        "truck-certify": {"name": "truck-certify", "plant": "truck",
                          "params": {"preset": "paper-table-2"},
                          "certify": {"grid": [grid, grid]}},
        "pendulum-hstar-grid": _dense_sweep_doc("pendulum", PENDULUM_DELTA, 15.0,
                                                DENSE_SWEEP[size]),
        "truck-hstar-grid": _dense_sweep_doc("truck", TRUCK_DELTA, 0.6, DENSE_SWEEP[size]),
    }
    paths = {}
    for name, doc in configs.items():
        paths[name] = work_dir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))

    def cli_op(label, argv, check, cells=0):
        def call(out_dir):
            return _cli(argv + ["--out", str(out_dir)])

        def counted_check(code, out_dir):
            wl.totals["certify_cells"] = wl.totals.get("certify_cells", 0) + cells
            return check(code, out_dir)

        return Op(label, call, counted_check)

    ops = [
        cli_op("certify truck", ["certify", "--config", str(paths["truck-certify"])],
               _check_certify("truck-certify"), cells=grid * grid),
        cli_op("certify pendulum", ["certify", "--preset", "pendulum-default"],
               _check_certify("pendulum-default")),
        cli_op("sweep truck-hstar-sweep", ["sweep", "--preset", "truck-hstar-sweep"],
               _check_sweep("truck-hstar-sweep", TRUCK_H_STAR_GOLDENS, wl)),
        cli_op("sweep pendulum-hstar-sweep", ["sweep", "--preset", "pendulum-hstar-sweep"],
               _check_sweep("pendulum-hstar-sweep", None, wl)),
        cli_op("sweep pendulum dense", ["sweep", "--config", str(paths["pendulum-hstar-grid"])],
               _check_sweep("pendulum-hstar-grid", None, wl)),
        cli_op("sweep truck dense", ["sweep", "--config", str(paths["truck-hstar-grid"])],
               _check_sweep("truck-hstar-grid", None, wl)),
    ]
    order = np.random.default_rng(seed).permutation(len(ops))
    wl.ops = [ops[i] for i in order]
    return wl


WORKLOADS = {"presets": make_presets, "rollouts": make_rollouts, "design": make_design}


def make(name: str, seed: int, size: str, work_dir: Path) -> Workload:
    return WORKLOADS[name](seed, size, work_dir)
