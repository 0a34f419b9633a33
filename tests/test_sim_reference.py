"""The simulator against the reference integrator: same logs, fewer calls.

``run_scenario`` integrates on tuples of floats; the reference loop in
``helpers`` steps numpy arrays through the public plant API and filters with
``helpers.reference_filter``, a copy of the filter formula written apart
from ``cbf.filter_function``, so the one formula the simulator applies is
checked against it for both plants.  The simulator also shares evaluations that the reference makes separately: one
barrier and one nominal evaluation give the logged row and RK4 stage 1, and
the disturbance is sampled once per distinct stage time.  Every logged value
must stay bit-identical.
"""

import dataclasses
import math
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
from safefilter.cli import SCENARIO_PRESETS, build_scenarios, parse_config

from helpers import TRUCK_DELTA, TRUCK_PAIR, reference_run

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
        extra = dict(truck=T, leader=leader, epsilon=EpsilonFunction(*TRUCK_PAIR),
                     delta=TRUCK_DELTA)
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


def _run_code(scn):
    """The code object of the generated ``run`` of the scenario's plant and
    controller kind.

    Every record of one kind executes the same compiled code, so a profile
    hook that matches this code object sees every call of the run's own
    block loop."""
    factory = plants.pendulum_record if scn.plant == "pendulum" else plants.truck_record
    return factory(scn.pendulum or scn.truck, scn.controller, scn.epsilon).run.__code__


def _run_counting_calls(scn, calls):
    """Run a scenario under a profile hook on every Python-level call:
    ``calls`` counts the block loop as "run", every other callee by its code
    object, and under "inside" the calls made from the block loop."""
    run_code = _run_code(scn)

    def profile(frame, event, arg):
        if event != "call":
            return
        calls["run" if frame.f_code is run_code else frame.f_code] += 1
        if frame.f_back is not None and frame.f_back.f_code is run_code:
            calls["inside"] += 1

    sys.setprofile(profile)
    try:
        return run_scenario(scn)
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("plant", ["pendulum", "truck"])
@pytest.mark.parametrize("controller", ["nominal", "cbf", "issf"])
def test_four_controller_and_disturbance_calls_per_step(plant, controller):
    calls = Counter()
    scn = _rollout(plant, controller, seed=5)
    signal = scn.disturbance

    def counted_sample(times):
        # the times the signal's one array evaluator is asked for
        calls["d"] += times.size
        return signal.sample(times)

    scn = dataclasses.replace(scn, disturbance=DisturbanceSignal(
        signal.bound, signal.duration, counted_sample))
    result = _run_counting_calls(scn, calls)

    n_steps = result.time.size - 1
    assert n_steps == 300
    # one block loop call per block of logged rows: it evaluates each row,
    # takes its step's four stages with the controller and the filter
    # inline, and clamps the new state, so no row or stage calls a Python
    # function
    assert calls["run"] == math.ceil((n_steps + 1) / sim._SAMPLE_BLOCK_STEPS)
    assert calls["inside"] == 0
    # nothing else is called per step: the other calls are made per run or
    # per block
    others = [count for key, count in calls.items() if not isinstance(key, str)]
    assert max(others) < n_steps // 10
    # per step: t, t + dt/2 (shared by stages 2 and 3) and the step's end
    assert calls["d"] == 3 * n_steps + 1


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
