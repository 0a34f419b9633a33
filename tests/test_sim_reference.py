"""The simulator against the reference integrator: same logs, fewer calls.

``run_scenario`` integrates on tuples of floats; the reference loop in
``helpers`` steps numpy arrays through the public plant and filter API.  The
simulator also shares evaluations that the reference makes separately: the
logged controller output is RK4 stage 1, and stages 2 and 3 share one
disturbance sample.  Every logged value must stay bit-identical.
"""

import dataclasses
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


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("plant", ["pendulum", "truck"])
@pytest.mark.parametrize("controller", ["nominal", "cbf", "issf"])
def test_four_controller_and_disturbance_calls_per_step(plant, controller, monkeypatch):
    calls = Counter()
    # the filters, wherever the simulator reaches them: the shared gain for
    # the pendulum, the truck's own scalar filters
    monkeypatch.setattr(sim, "filter_gain", _counted(calls, "filter", sim.filter_gain))
    for name in ("truck_safe_filter", "truck_robust_filter"):
        monkeypatch.setattr(sim, name, _counted(calls, "filter", getattr(sim, name)))
    # the nominal controller, in sim and inside the truck filters in plants
    monkeypatch.setattr(plants, "truck_nominal",
                        _counted(calls, "nominal", plants.truck_nominal))
    monkeypatch.setattr(sim, "truck_nominal", plants.truck_nominal)
    factory = plants.pendulum_nominal_core
    monkeypatch.setattr(sim, "pendulum_nominal_core",
                        lambda p: _counted(calls, "nominal", factory(p)))

    scn = _rollout(plant, controller, seed=5)
    signal = scn.disturbance
    scn = dataclasses.replace(scn, disturbance=DisturbanceSignal(
        signal.kind, signal.bound, signal.duration, _counted(calls, "d", signal)))
    result = run_scenario(scn)

    n_steps = result.time.size - 1
    # per step: the logged row (= RK4 stage 1) and stages 2, 3 and 4
    controller_calls = calls["filter"] if controller != "nominal" else (
        calls["nominal"] - result.time.size)  # minus the u_nom column
    assert controller_calls == 4 * n_steps + 1
    assert calls["d"] == 4 * n_steps + 1
    # the u_nom column plus one inside every controller call
    assert calls["nominal"] == 5 * n_steps + 2
