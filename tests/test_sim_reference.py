"""The simulator against the reference integrator: same logs, fewer calls.

``run_scenario`` integrates on tuples of floats; the reference loop in
``helpers`` steps numpy arrays through the public plant and filter API.  The
simulator also shares evaluations that the reference makes separately: one
barrier and one nominal evaluation give the logged row and RK4 stage 1, and
the disturbance is sampled once per distinct stage time.  Every logged value
must stay bit-identical.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from safefilter import (
    DisturbanceSignal,
    EpsilonFunction,
    PendulumParams,
    Scenario,
    TruckParams,
    hard_brake_profile,
    pendulum_barrier,
    run_scenario,
    sampled_disturbance,
    truck_headway,
)
from safefilter import plants, sim
from safefilter.cbf import gain_function
from safefilter.cli import SCENARIO_PRESETS, build_scenarios, parse_config

from helpers import reference_run

P = PendulumParams()
T = TruckParams()
LOG_COLUMNS = ("states", "u_nom", "u_filt", "d", "h")
SIMULATE_PRESETS = sorted(name for name, doc in SCENARIO_PRESETS.items() if "sweep" not in doc)
# pendulum pulse lobes end at 15 s, the truck leader brakes at 15 s for 2 s
PRESET_HORIZON = {"pendulum": 16.0, "truck": 20.0}
ROLLOUT_HORIZON = 3.0
ROLLOUT_DT = 0.01


def _assert_same_log(result, reference):
    for column in LOG_COLUMNS:
        assert np.array_equal(getattr(result, column), reference[column]), column


def _zoh_disturbance(rng, delta, n_steps):
    """Bounded zero-order hold with breakpoints on the logged time grid."""
    hold = int(rng.integers(1, 11))
    knots = np.arange(0, n_steps + hold + 1, hold) * ROLLOUT_DT
    if rng.random() < 0.5:
        values = delta * rng.choice((-1.0, 1.0), size=knots.size)
    else:
        values = rng.uniform(-delta, delta, size=knots.size)
    return sampled_disturbance(knots, values)


def _rollout(plant, controller, seed):
    rng = np.random.default_rng(seed)
    n_steps = int(round(ROLLOUT_HORIZON / ROLLOUT_DT))
    if plant == "pendulum":
        barrier = pendulum_barrier(P)
        while True:
            x0 = (float(rng.uniform(-0.25, 0.25)), float(rng.uniform(-0.5, 0.5)))
            if barrier(np.array(x0)).h >= 0.0:
                break
        extra = dict(pendulum=P, epsilon=EpsilonFunction(0.15, 0.0), delta=0.75)
    else:
        v_lead = float(rng.uniform(8.0, T.v_bar_l))
        v = float(rng.uniform(0.7, 1.0)) * v_lead
        x0 = (truck_headway(T, v, v_lead) + float(rng.uniform(0.0, 10.0)), v, v_lead)
        a_peak = -float(rng.uniform(4.0, T.a_under_l))
        t_min = v_lead / abs(a_peak)
        leader = hard_brake_profile(v_lead, float(rng.uniform(0.2, 1.0)), a_peak,
                                    float(rng.uniform(t_min, 2.0 * t_min)))
        extra = dict(truck=T, leader=leader, epsilon=EpsilonFunction(T.eps0, T.lam),
                     delta=T.delta)
    return Scenario(
        name=f"{plant}-{controller}-{seed}", plant=plant, controller=controller, x0=x0,
        horizon=ROLLOUT_HORIZON, dt=ROLLOUT_DT,
        disturbance=_zoh_disturbance(rng, extra["delta"], n_steps), **extra,
    )


@pytest.mark.parametrize("name", SIMULATE_PRESETS)
def test_presets_match_reference_bit_for_bit(name):
    for scn in build_scenarios(parse_config(SCENARIO_PRESETS[name])):
        scn = dataclasses.replace(scn, horizon=min(scn.horizon, PRESET_HORIZON[scn.plant]))
        _assert_same_log(run_scenario(scn), reference_run(scn))


@pytest.mark.parametrize("plant", ["pendulum", "truck"])
@pytest.mark.parametrize("controller", ["nominal", "cbf", "issf"])
@pytest.mark.parametrize("seed", [3, 17])
def test_zoh_rollouts_match_reference_bit_for_bit(plant, controller, seed):
    scn = _rollout(plant, controller, seed)
    _assert_same_log(run_scenario(scn), reference_run(scn))


@pytest.mark.parametrize("plant", ["pendulum", "truck"])
def test_stage_times_match_reference_at_a_finer_step(plant):
    # at dt = 0.001, unlike at 0.01, regrouping t + dt - 1e-9 dt changes the
    # float at some steps: the sampled stage times must be rk4_step's floats
    scn = dataclasses.replace(_rollout(plant, "cbf", seed=3), dt=0.001)
    _assert_same_log(run_scenario(scn), reference_run(scn))


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _record_codes():
    """The code objects of the plant records' closures, by closure name.

    Every record a factory builds shares them, whatever its gain, so a
    profile hook that matches them counts every call of ``nominal``,
    ``terms`` and ``step``, also the calls that ``step`` makes through its
    own closure cells, which no wrapper on the record could see.
    """
    codes = {}
    for record in (plants.pendulum_record(P), plants.truck_record(T)):
        for name in ("nominal", "terms", "step"):
            codes[getattr(record, name).__code__] = name
    return codes


def _run_counting_calls(scn, calls):
    codes = _record_codes()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        return run_scenario(scn)
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("plant", ["pendulum", "truck"])
@pytest.mark.parametrize("controller", ["nominal", "cbf", "issf"])
def test_four_controller_and_disturbance_calls_per_step(plant, controller, monkeypatch):
    calls = Counter()

    def gain_factory(epsilon=None):
        calls["gain closures"] += 1
        return _counted(calls, "gain", gain_function(epsilon))

    monkeypatch.setattr(sim, "gain_function", gain_factory)
    scn = _rollout(plant, controller, seed=5)
    signal = scn.disturbance
    scn = dataclasses.replace(scn, disturbance=DisturbanceSignal(
        signal.kind, signal.bound, signal.duration, _counted(calls, "d", signal)))
    result = _run_counting_calls(scn, calls)

    n_steps = result.time.size - 1
    assert calls["step"] == n_steps
    # per step: the logged row, which is RK4 stage 1, and stages 2, 3 and 4;
    # terms computes the nominal input inside it, so each controller
    # evaluation evaluates the nominal input once
    assert calls["terms"] + calls["nominal"] == 4 * n_steps + 1
    # per step: t, t + dt/2 (shared by stages 2 and 3) and the step's end
    assert calls["d"] == 3 * n_steps + 1
    if controller == "nominal":
        # only the logged row evaluates the barrier
        assert calls["terms"] == n_steps + 1
        assert calls["gain closures"] == calls["gain"] == 0
    else:
        # the one gain formula, built once per run and applied once per
        # filter evaluation, for both plants
        assert calls["terms"] == 4 * n_steps + 1
        assert calls["gain closures"] == 1
        assert calls["gain"] == 4 * n_steps + 1


@pytest.mark.parametrize("plant", ["pendulum", "truck"])
@pytest.mark.parametrize("block", [1, 2, 7, 300, 301])
def test_sample_blocks_do_not_change_the_log(plant, block, monkeypatch):
    # 301 rows: blocks that divide them and blocks that do not, 300 leaves
    # the final row alone in the last block, 301 holds the whole run
    scn = _rollout(plant, "issf", seed=3)
    assert scn.n_steps == 300
    expected = run_scenario(scn)
    monkeypatch.setattr(sim, "_SAMPLE_BLOCK_STEPS", block)
    _assert_same_log(run_scenario(scn), {c: getattr(expected, c) for c in LOG_COLUMNS})
