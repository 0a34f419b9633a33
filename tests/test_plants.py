import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    CbfFilter,
    EpsilonFunction,
    IssfFilter,
    PendulumParams,
    TruckParams,
    linear_class_kappa,
    pendulum_barrier,
    pendulum_dynamics,
    pendulum_nominal,
    range_policy,
    range_policy_inverse,
    speed_policy,
    truck_barrier,
    truck_dynamics,
    truck_headway,
    truck_nominal,
    truck_robust_filter,
    truck_safe_filter,
)

P = PendulumParams()
T = TruckParams()

truck_box = st.tuples(
    st.floats(0.0, 60.0),    # D
    st.floats(0.0, 20.0),    # v
    st.floats(0.0, 20.0),    # v_L
    st.floats(-10.0, 5.0),   # a_L
)


# ---------------------------------------------------------------------------
# Pendulum
# ---------------------------------------------------------------------------


def test_pendulum_drift_values():
    dyn = pendulum_dynamics(P)
    assert np.allclose(dyn.drift(np.array([0.0, 0.0]), 0.0), [0.0, 0.0])
    assert np.allclose(dyn.drift(np.array([math.pi / 2, 0.0]), 0.0), [0.0, 10.0])
    assert np.allclose(dyn.actuation(np.array([0.0, 0.0]), 0.0), [[0.0], [0.5]])


def test_pendulum_barrier_values():
    barrier = pendulum_barrier(P)
    assert barrier(np.array([0.0, 0.0])).h == 1.0
    assert barrier(np.array([-0.1, 0.5])).h == pytest.approx(0.24, abs=1e-12)


@given(theta=st.floats(-1.0, 1.0))
def test_pendulum_lg_zero_line(theta):
    # lg_h vanishes exactly on theta_dot = -(b/2a) theta and nowhere nearby
    barrier = pendulum_barrier(P)
    on_line = np.array([theta, -(P.b / (2.0 * P.a)) * theta])
    assert barrier(on_line).lg_h[0] == pytest.approx(0.0, abs=1e-12)


def test_pendulum_nominal_values():
    nominal = pendulum_nominal(P)
    assert nominal(np.array([0.0, 0.0]))[0] == 0.0
    expected = 2.0 * (-10.0 * math.sin(-0.1) - 0.6 * (-0.1) - 0.6 * 0.5)
    assert nominal(np.array([-0.1, 0.5]))[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.5166683329365629, abs=1e-12)


@given(theta=st.floats(-2.0, 2.0), theta_dot=st.floats(-2.0, 2.0))
def test_pendulum_nominal_linearizes_closed_loop(theta, theta_dot):
    # drift + actuation @ nominal equals the linear target dynamics
    dyn = pendulum_dynamics(P)
    nominal = pendulum_nominal(P)
    x = np.array([theta, theta_dot])
    closed = dyn.drift(x, 0.0) + dyn.actuation(x, 0.0) @ nominal(x)
    expected = np.array([theta_dot, -P.kp * theta - P.kd * theta_dot])
    assert np.max(np.abs(closed - expected)) <= 1e-12


def test_pendulum_params_validated():
    with pytest.raises(ValueError):
        PendulumParams(mass=-1.0)
    with pytest.raises(ValueError):
        PendulumParams(alpha_c=0.0)


# ---------------------------------------------------------------------------
# Truck statics
# ---------------------------------------------------------------------------


def test_headway_values():
    assert truck_headway(T, 0.0, 0.0) == 2.0
    assert truck_headway(T, 16.0, 16.0) == pytest.approx(21.52, abs=1e-9)
    # barrier at the braking scenario's initial state
    assert 27.4 - truck_headway(T, 16.0, 16.0) == pytest.approx(5.88, abs=1e-9)


def test_truck_drift_values():
    dyn = truck_dynamics(T, lambda t: -8.0)
    x = np.array([27.4, 16.0, 16.0])
    assert np.allclose(dyn.drift(x, 0.0), [0.0, 0.0, -8.0])
    steady = truck_dynamics(T, lambda t: 0.0)
    assert np.allclose(steady.drift(np.array([25.0, 12.0, 12.0]), 0.0), [0.0, 0.0, 0.0])


def test_truck_barrier_lie_derivatives():
    be = truck_barrier(T, 0.0)(np.array([30.0, 0.0, 0.0]))
    assert be.lg_h[0] == pytest.approx(-1.1, abs=1e-12)
    be = truck_barrier(T, 0.0)(np.array([30.0, 16.0, 16.0]))
    assert be.lf_h == 0.0


@given(v=st.floats(0.0, 60.0), v_l=st.floats(0.0, 20.0))
def test_truck_lg_negative_in_driving_domain(v, v_l):
    be = truck_barrier(T, 0.0)(np.array([10.0, v, v_l]))
    assert be.lg_h[0] < 0.0


def test_range_policy_values_and_knots():
    assert range_policy(T, 4.0) == 0.0
    assert range_policy(T, 5.0) == 0.0
    assert range_policy(T, 25.0) == pytest.approx(16.0, abs=1e-12)
    assert range_policy(T, 30.0) == pytest.approx(20.0, abs=1e-12)
    assert range_policy(T, 40.0) == 20.0
    # continuity at both knots
    for knot in (T.d_st, T.d_go):
        below = range_policy(T, knot - 1e-9)
        above = range_policy(T, knot + 1e-9)
        assert abs(below - above) <= 1e-8


def test_range_policy_inverse_is_exact_at_cruise_speed():
    assert range_policy_inverse(T, 16.0) == 25.0
    with pytest.raises(ValueError):
        range_policy_inverse(T, 25.0)


@given(v=st.floats(0.0, 20.0))
def test_range_policy_inverse_roundtrip(v):
    assert range_policy(T, range_policy_inverse(T, v)) == pytest.approx(v, abs=1e-9)


def test_speed_policy_values():
    assert speed_policy(T, 10.0) == 10.0
    assert speed_policy(T, 25.0) == 20.0
    assert speed_policy(T, 20.0) == 20.0


def test_nominal_controller_values():
    assert truck_nominal(T, 25.0, 16.0, 16.0) == 0.0
    assert truck_nominal(T, 27.4, 16.0, 16.0) == pytest.approx(0.768, abs=1e-9)
    # leader stopped inside the stopping distance: both terms brake
    assert truck_nominal(T, 3.0, 5.0, 0.0) < 0.0


def test_truck_params_consistency_enforced():
    with pytest.raises(ValueError):
        TruckParams(d_go=29.0)
    with pytest.raises(ValueError):
        TruckParams(kappa=-0.8)
    # consistent override passes
    TruckParams(kappa=0.5, d_go=45.0)


# ---------------------------------------------------------------------------
# Truck filter compositions
# ---------------------------------------------------------------------------


@given(state=truck_box)
@settings(max_examples=200)
def test_safe_filter_matches_generic_switching(state):
    d, v, v_l, a_l = state
    filt = CbfFilter(
        truck_barrier(T, a_l), linear_class_kappa(T.alpha_c),
        lambda x: np.array([truck_nominal(T, x[0], x[1], x[2])]),
    )
    x = np.array([d, v, v_l])
    assert truck_safe_filter(T, d, v, v_l, a_l) == pytest.approx(
        filt.filter_switching(x), abs=1e-12, rel=1e-12
    )


@given(state=truck_box)
@settings(max_examples=200)
def test_robust_filter_matches_generic_switching(state):
    d, v, v_l, a_l = state
    filt = IssfFilter(
        truck_barrier(T, a_l), linear_class_kappa(T.alpha_c),
        lambda x: np.array([truck_nominal(T, x[0], x[1], x[2])]),
        EpsilonFunction(T.eps0, T.lam),
    )
    x = np.array([d, v, v_l])
    assert truck_robust_filter(T, d, v, v_l, a_l) == pytest.approx(
        filt.filter_switching(x), abs=1e-12, rel=1e-12
    )


@given(state=truck_box)
@settings(max_examples=200)
def test_robust_filter_never_exceeds_safe_filter(state):
    # the robustifying term only ever asks for more braking here (lg_h < 0)
    d, v, v_l, a_l = state
    assert truck_robust_filter(T, d, v, v_l, a_l) <= truck_safe_filter(T, d, v, v_l, a_l) + 1e-12


def test_admissible_nominal_passes_through():
    # at the cruise equilibrium the nominal command is zero and admissible
    assert truck_nominal(T, 25.0, 16.0, 16.0) == 0.0
    assert truck_safe_filter(T, 25.0, 16.0, 16.0, 0.0) == 0.0


def test_robust_filter_uses_params_defaults():
    d, v, v_l, a_l = 27.4, 16.0, 16.0, -8.0
    assert truck_robust_filter(T, d, v, v_l, a_l) == truck_robust_filter(
        T, d, v, v_l, a_l, eps0=T.eps0, lam=T.lam
    )


def test_robust_filter_takes_the_limits_of_its_tightening():
    # far behind the leader eps(h) overflows and the tightening lg_h/eps(h)
    # vanishes; deep inside the unsafe set eps(h) underflows to 0 and the
    # command diverges to full braking
    assert truck_robust_filter(T, 5000.0, 16.0, 16.0, 0.0) == \
        truck_safe_filter(T, 5000.0, 16.0, 16.0, 0.0)
    assert truck_robust_filter(T, -5000.0, 16.0, 16.0, 0.0) == -math.inf
