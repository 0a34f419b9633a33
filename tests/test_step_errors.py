"""The failure paths of the fused RK4 steps, and the run-level exception contract.

Each plant record's ``run`` writes the four RK4 stages out with their own
finiteness checks.  Every check is pinned here: a disturbance spike timed to
one stage makes the first non-finite value appear at stage 1, 2, 3 or 4, or
in the weighted sum of the stages.  The error, its time and stage state, and
the partial log must be those of the same step through the generic tuple
integrator ``sim.rk4_step``, and must not move with the size of the blocks
``run`` logs and ``run_scenario`` flushes.
"""

import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    EpsilonFunction,
    PendulumParams,
    Scenario,
    SimulationError,
    TruckParams,
    constant_speed_profile,
    hard_brake_profile,
    pendulum_barrier,
    rk4_step,
    run_scenario,
    sampled_disturbance,
    truck_barrier,
)
from safefilter import plants, sim
from safefilter.cbf import filter_function

from helpers import TRUCK_PAIR, record_terms, reference_run

P = PendulumParams()
T = TruckParams()
DT = 0.01
K = 2            # the step a spike is timed to
HORIZON = 0.1
LOG_COLUMNS = ("time", "states", "u_nom", "u_filt", "d", "h")

# the stage times of step K, as run_scenario computes them
T_K = K * DT
SPIKES = {
    # just inside the end of step K - 1: only its stage 4, so only the
    # logged state at T_K, sees the spike
    "end_prev": (T_K - 0.1 * DT, T_K),
    "t_k": (T_K, T_K + 0.1 * DT),           # the logged row at T_K: stage 1
    "mid": (T_K + 0.4 * DT, T_K + 0.6 * DT),  # t + dt/2: stages 2 and 3
}


def _spike(where, value):
    """A zero-order hold that is ``value`` on one window of step K and 0 elsewhere."""
    start, stop = SPIKES[where]
    return sampled_disturbance([0.0, start, stop, 1.0], [0.0, value, 0.0, 0.0])


def _scenario(plant, controller, disturbance):
    if plant == "pendulum":
        extra = dict(pendulum=P, epsilon=EpsilonFunction(0.5, 12.0))
        x0 = (0.0, 0.2)
    else:
        extra = dict(truck=T, leader=constant_speed_profile(16.0),
                     epsilon=EpsilonFunction(*TRUCK_PAIR))
        x0 = (30.0, 16.0, 16.0)
    return Scenario(name=f"{plant}-{controller}", plant=plant, controller=controller,
                    x0=x0, horizon=HORIZON, dt=DT, disturbance=disturbance, **extra)


def _generic_loop(scn):
    """The scenario's closed loop as the float closures of ``sim.rk4_step``:
    the field f(x) + g(x) w and the controller k(x, t), written from the
    record's ``terms`` and ``nominal`` and ``cbf.filter_function``, and the
    barrier terms at a logged state (x, t)."""
    if scn.plant == "pendulum":
        p = scn.pendulum
        record = plants.pendulum_record(p)
        g_over_l, g_entry = p.gravity / p.length, 1.0 / (p.mass * p.length * p.length)

        def accel(t):
            return None

        def field(x, t, w):
            return (x[1], g_over_l * math.sin(x[0]) + g_entry * w)
    else:
        record = plants.truck_record(scn.truck)
        accel = scn.leader

        def field(x, t, w):
            return (x[2] - x[1], w, accel(t))

    params = scn.pendulum if scn.plant == "pendulum" else scn.truck
    apply = filter_function(params.alpha_c,
                            scn.epsilon if scn.controller == "issf" else None)

    def controller(x, t):
        if scn.controller == "nominal":
            return record.nominal(x)
        return apply(*record_terms(record, x, accel(t)))

    return field, controller, lambda x, t: record_terms(record, x, accel(t))


def _generic_failure(scn, x, t, u0):
    """The error of the step from logged state x at t through ``rk4_step``,
    or of the barrier terms at the state it reaches, and where it arose:
    stage 1 to 4, "sum" for the new state, or "row" for the next logged row."""
    field, controller, row_terms = _generic_loop(scn)
    calls = Counter()

    def counted_field(xs, ts, w):
        calls["field"] += 1
        return field(xs, ts, w)

    def counted_controller(xs, ts):
        calls["controller"] += 1
        return controller(xs, ts)

    try:
        x_next = rk4_step(counted_field, counted_controller, scn.disturbance, x, t, DT, u0=u0)
    except SimulationError as err:
        return err, ("sum" if str(err).startswith("non-finite state") else calls["field"])
    except ValueError as err:
        # raised by the controller of stage 2, 3 or 4
        return err, calls["controller"] + 1
    try:
        row_terms(x_next, t + DT)
    except ValueError as err:
        return err, "row"
    raise AssertionError("the generic step and the next row did not fail")


# (plant, controller, spike window, spike value, the stage the first
# non-finite value appears at)
CASES = [
    # ISSf: a spike throws a stage state so far outside the safe set that
    # eps(h) underflows to 0 and the filter's input is infinite
    ("pendulum", "issf", "end_prev", 1e4, 1),
    ("pendulum", "issf", "t_k", 1e4, 2),
    ("pendulum", "issf", "mid", 1e4, 3),
    # a smaller spike at t + dt/2 leaves stage 3 at a finite but huge
    # correction, which carries the state of stage 4 out of range
    ("pendulum", "issf", "mid", 1e3, 4),
    # every stage derivative is finite near 5e307; their weighted sum is not
    ("pendulum", "nominal", "mid", 1e308, "sum"),
    # the barrier overflows at a stage state, and at a logged state (a
    # nominal stage evaluates no barrier)
    ("pendulum", "cbf", "t_k", 1e200, 2),
    ("pendulum", "nominal", "end_prev", 1e200, "row"),
    ("truck", "issf", "end_prev", 1e6, 1),
    ("truck", "issf", "t_k", 1e5, 2),
    ("truck", "issf", "mid", 1e5, 3),
    ("truck", "issf", "mid", 1e4, 4),
    ("truck", "nominal", "mid", 1e308, "sum"),
    ("truck", "cbf", "end_prev", 1e200, "row"),
]


@pytest.mark.parametrize("plant,controller,where,value,stage", CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]:g}" for c in CASES])
def test_fused_step_fails_like_the_generic_rk4_step(plant, controller, where, value, stage):
    scn = _scenario(plant, controller, _spike(where, value))
    with pytest.raises(SimulationError) as excinfo, np.errstate(all="ignore"):
        run_scenario(scn)
    err = excinfo.value
    partial = err.partial
    k = partial.time.size - 1
    t_k = float(partial.time[-1])

    # the run-level error: the last logged row, and the step's error
    reference, reference_stage = _generic_failure(
        scn, tuple(partial.states[-1].tolist()), t_k, float(partial.u_filt[-1]))
    assert reference_stage == stage
    assert k == (K - 1 if stage == "row" else K)
    assert str(err) == f"scenario {scn.name!r} failed at t={t_k:g}: {reference}"
    assert err.t == t_k
    assert np.array_equal(err.state, partial.states[-1])
    cause = err.__cause__
    assert type(cause) is type(reference)
    if isinstance(reference, SimulationError):
        assert cause.t == reference.t
        assert cause.state == reference.state

    # the partial log: the rows up to the failed step, as a run that ends
    # there logs them
    expected = reference_run(dataclasses.replace(scn, horizon=k * DT))
    for column in LOG_COLUMNS[1:]:
        assert np.array_equal(getattr(partial, column), expected[column]), column
    assert np.array_equal(partial.time, np.arange(k + 1) * DT)
    assert partial.h_min == float(np.min(expected["h"]))


def test_non_finite_input_at_the_last_row_fails_the_run():
    # the last row starts no step; its infinite ISSf input still fails the
    # run, with the row in the partial log, instead of being returned
    scn = dataclasses.replace(_scenario("pendulum", "issf", _spike("end_prev", 1e4)),
                              horizon=K * DT)
    with pytest.raises(SimulationError, match=r"non-finite input at t=0\.02") as excinfo:
        run_scenario(scn)
    partial = excinfo.value.partial
    assert partial.time.size == K + 1
    assert math.isinf(partial.u_filt[-1])
    assert excinfo.value.t == partial.time[-1]


# (plant, controller, spike window, spike value, horizon): a failure at
# row K, in the step from row K, and at row K's input as the last row
BLOCK_FAILURES = {
    "row": ("pendulum", "nominal", "end_prev", 1e200, HORIZON),
    "stage": ("pendulum", "issf", "mid", 1e4, HORIZON),
    "truck-stage": ("truck", "issf", "mid", 1e5, HORIZON),
    "last-input": ("pendulum", "issf", "end_prev", 1e4, K * DT),
}


def _run_failure(scn):
    with pytest.raises(SimulationError) as excinfo, np.errstate(all="ignore"):
        run_scenario(scn)
    return excinfo.value


@pytest.mark.parametrize("block", [1, K, K + 1])
@pytest.mark.parametrize("failure", sorted(BLOCK_FAILURES))
def test_sample_blocks_do_not_change_a_failure(failure, block, monkeypatch):
    # blocks that end just before row K, start at it, and end at it: the
    # error and the partial log flushed from the block must not move
    plant, controller, where, value, horizon = BLOCK_FAILURES[failure]
    scn = dataclasses.replace(_scenario(plant, controller, _spike(where, value)), horizon=horizon)
    expected = _run_failure(scn)
    monkeypatch.setattr(sim, "_SAMPLE_BLOCK_STEPS", block)
    err = _run_failure(scn)

    assert (str(err), err.t) == (str(expected), expected.t)
    assert np.array_equal(err.state, expected.state)
    cause, expected_cause = err.__cause__, expected.__cause__
    assert (type(cause), str(cause)) == (type(expected_cause), str(expected_cause))
    assert getattr(cause, "t", None) == getattr(expected_cause, "t", None)
    assert getattr(cause, "state", None) == getattr(expected_cause, "state", None)
    for column in LOG_COLUMNS:
        assert np.array_equal(getattr(err.partial, column), getattr(expected.partial, column))
    assert err.partial.h_min == expected.partial.h_min
    assert err.partial.clamp_counts == expected.partial.clamp_counts


@pytest.mark.parametrize("block", [1, K, K + 1])
@pytest.mark.parametrize("x0,failed_at", [((2.0, 0.0), 0.0), ((0.0, 0.51), T_K)])
def test_initial_state_warning_comes_before_a_failure(x0, failed_at, block, monkeypatch):
    # outside the safe set at row 0, with the step from row 0 failing (eps(h)
    # underflows there) or the step from row K failing on a spike
    scn = dataclasses.replace(_scenario("pendulum", "issf", _spike("mid", 1e4)), x0=x0)
    monkeypatch.setattr(sim, "_SAMPLE_BLOCK_STEPS", block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _run_failure(scn)
    assert err.t == failed_at
    assert [str(w.message) for w in caught] == [
        f"scenario {scn.name!r}: initial state is outside the safe set"]


# ---------------------------------------------------------------------------
# Exception contract
# ---------------------------------------------------------------------------

_MAGNITUDES = st.floats(-1e300, 1e300) | st.floats(-2.0, 2.0) | st.floats(-50.0, 50.0)


@st.composite
def _scenarios(draw):
    plant = draw(st.sampled_from(["pendulum", "truck"]))
    controller = draw(st.sampled_from(["nominal", "cbf", "issf"]))
    dt = draw(st.sampled_from([0.01, 0.05, 0.2]))
    n_steps = draw(st.integers(1, 10))
    hold = draw(st.integers(1, 4))
    knots = np.arange(0, n_steps + hold + 1, hold) * dt
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=knots.size, max_size=knots.size))
    if plant == "pendulum":
        x0 = (draw(_MAGNITUDES), draw(_MAGNITUDES))
        epsilon = draw(st.sampled_from([EpsilonFunction(0.15), EpsilonFunction(0.5, 12.0)]))
        extra = dict(pendulum=P, epsilon=epsilon)
    else:
        x0 = (draw(_MAGNITUDES), draw(_MAGNITUDES), draw(_MAGNITUDES))
        v0 = draw(st.floats(1.0, T.v_bar_l))
        leader = draw(st.sampled_from([constant_speed_profile(v0),
                                       hard_brake_profile(v0, 0.0, -T.a_under_l,
                                                          v0 / T.a_under_l)]))
        extra = dict(truck=T, leader=leader, epsilon=EpsilonFunction(*TRUCK_PAIR))
    return Scenario(name="contract", plant=plant, controller=controller, x0=x0,
                    horizon=n_steps * dt, dt=dt,
                    disturbance=sampled_disturbance(knots, values), **extra)


def _barrier_overflows(scn):
    barrier = pendulum_barrier(P) if scn.plant == "pendulum" else truck_barrier(T, 0.0)
    try:
        barrier(np.array(scn.x0))
    except ValueError:
        return True
    return False


@pytest.mark.filterwarnings("ignore:.*outside the safe set")
@given(scn=_scenarios())
@settings(max_examples=400, deadline=None)
def test_run_returns_a_finite_log_or_raises_a_documented_error(scn):
    # any other exception type, ZeroDivisionError or OverflowError among
    # them, fails the test by propagating
    try:
        result = run_scenario(scn)
    except SimulationError as err:
        partial = err.partial
        assert err.t == partial.time[-1]
        assert np.isfinite(partial.states).all() and np.isfinite(partial.h).all()
        return
    except ValueError as err:
        # the initial state, where the plant's barrier overflows
        assert str(err) == "barrier evaluation entries must be finite"
        assert _barrier_overflows(scn)
        return
    assert not _barrier_overflows(scn)
    for column in LOG_COLUMNS:
        assert np.isfinite(getattr(result, column)).all(), column
