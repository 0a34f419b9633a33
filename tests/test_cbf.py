import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safefilter import (
    BarrierEvaluation,
    CbfFilter,
    DimensionError,
    EpsilonFunction,
    PendulumParams,
    TruckParams,
    linear_class_kappa,
    pendulum_barrier,
    pendulum_cbf_filter,
    pendulum_nominal,
    truck_barrier,
    truck_nominal,
)
from safefilter.cbf import filter_function
from safefilter.plants import pendulum_record, truck_record

from helpers import (
    TRUCK_PAIR,
    correction_gain,
    grid_search_scalar,
    in_admissible_set,
    project_halfspace,
    record_terms,
    reference_filter,
    switching_filter,
)

P = PendulumParams()
T = TruckParams()
FILT = pendulum_cbf_filter(P)
BARRIER = pendulum_barrier(P)
NOMINAL = pendulum_nominal(P)

pendulum_states = st.tuples(st.floats(-0.4, 0.4), st.floats(-0.8, 0.8)).map(np.array)


def test_admissible_at_equilibrium():
    # upright center of the ellipse: h = 1, hdot = 0 >= -alpha(1)
    assert in_admissible_set(FILT, np.array([0.0, 0.0]), [0.0])


def test_admissible_on_the_boundary_is_non_strict():
    be = BarrierEvaluation(h=2.0, lf_h=0.0, lg_h=[1.0])
    filt = CbfFilter(lambda x: be, linear_class_kappa(0.5), lambda x: np.array([0.0]))
    # hdot = -1.0 equals -alpha(2.0) exactly
    assert in_admissible_set(filt, None, [-1.0], tol=0.0)


def test_violating_input_rejected():
    # at (0.25, 0.5) lg_h = -3, so a large positive torque drives hdot far
    # below the -alpha(h) floor
    x = np.array([0.25, 0.5])
    assert not in_admissible_set(FILT, x, [100.0])


def test_gain_zero_on_lg_zero_line():
    # lg_h vanishes on theta_dot = -(b/2a) theta, which is theta_dot = -theta here
    x = np.array([0.1, -0.1])
    assert BARRIER(x).lg_h[0] == 0.0
    assert correction_gain(FILT, x) == 0.0
    assert FILT.filter(x) == pytest.approx(NOMINAL(x))


def test_gain_negative_when_nominal_has_slack():
    x = np.array([-0.1, 0.5])
    gain = correction_gain(FILT, x)
    assert gain == pytest.approx(-0.1625, abs=1e-10)
    assert gain < 0.0
    assert FILT.filter(x) == pytest.approx(NOMINAL(x))


def test_active_gain_matches_projection_multiplier():
    # the clipped gain is the constraint multiplier of the projection:
    # (rhs - lg.u_nom) / lg^2 when the constraint is active
    x = np.array([0.05, 0.45])
    be = BARRIER(x)
    u_nom = NOMINAL(x)
    rhs = -be.lf_h - P.alpha_c * be.h
    mu = (rhs - float(be.lg_h @ u_nom)) / float(be.lg_h @ be.lg_h)
    gain = correction_gain(FILT, x)
    assert gain > 0.0
    assert gain == pytest.approx(mu, abs=1e-12)
    assert gain == pytest.approx(0.2865, abs=1e-10)


@given(x=pendulum_states)
@settings(max_examples=200)
def test_filter_output_is_admissible(x):
    assert in_admissible_set(FILT, x, FILT.filter(x))


@given(x=pendulum_states)
@settings(max_examples=200)
def test_filter_matches_halfspace_projection(x):
    be = BARRIER(x)
    rhs = -be.lf_h - P.alpha_c * be.h
    expected = project_halfspace(NOMINAL(x), be.lg_h, rhs)
    assert np.max(np.abs(FILT.filter(x) - expected)) <= 1e-8


@given(x=pendulum_states)
@settings(max_examples=200)
def test_filter_deviation_never_beats_grid_search(x):
    # minimal deviation: no feasible grid input is closer to the nominal one
    be = BARRIER(x)
    u_nom = float(NOMINAL(x)[0])
    rhs = -be.lf_h - P.alpha_c * be.h
    u_grid = grid_search_scalar(u_nom, float(be.lg_h[0]), rhs)
    u_filt = float(FILT.filter(x)[0])
    assert abs(u_filt - u_nom) <= abs(u_grid - u_nom) + 1e-12
    assert abs(u_filt - u_grid) <= 2e-3


@given(x=pendulum_states)
@settings(max_examples=200)
def test_correction_is_along_lg(x):
    # the filter only ever pushes along lg_h, never against it
    be = BARRIER(x)
    push = float((FILT.filter(x) - NOMINAL(x))[0])
    assert push * float(be.lg_h[0]) >= -1e-15


@given(x=pendulum_states)
@settings(max_examples=200)
def test_switching_form_equals_closed_form(x):
    assert switching_filter(FILT, x) == pytest.approx(float(FILT.filter(x)[0]), abs=1e-10)


def test_switching_on_lg_zero_returns_nominal():
    x = np.array([0.1, -0.1])
    assert switching_filter(FILT, x) == float(FILT.filter(x)[0]) == float(NOMINAL(x)[0])


def test_no_jump_across_activation_boundary():
    # segment from a slack state to an active state crosses the activation
    # locus; successive outputs must scale with the step (fitted bound)
    a = np.array([-0.1, 0.5])
    b = np.array([0.05, 0.45])
    assert correction_gain(FILT, a) < 0.0 < correction_gain(FILT, b)
    s = np.linspace(0.0, 1.0, 1001)
    outputs = np.array([float(FILT.filter(a + si * (b - a))[0]) for si in s])
    step = s[1] - s[0]
    assert np.max(np.abs(np.diff(outputs))) <= 15.0 * step


# ---------------------------------------------------------------------------
# The float filter closure against the numpy filter and its reference copy
# ---------------------------------------------------------------------------

# None is the plain filter; eps0 = inf drops the tightening; lam = 1000 makes
# eps(h) overflow inside the pendulum's safe set and lam = 12 underflow to 0
# far outside it; the truck's (eps0, lam) overflows at h > 1775 and underflows
# at h < -1870
EPSILONS = (None, EpsilonFunction(0.15, 0.0), EpsilonFunction(math.inf, 0.0),
            EpsilonFunction(0.5, 12.0), EpsilonFunction(0.5, 1000.0),
            EpsilonFunction(*TRUCK_PAIR))


@st.composite
def filter_cases(draw):
    """(plant, state, leader acceleration, epsilon): states near the safe set
    (in and out of it), far from it, where eps(h) leaves the float range, and
    on the lg_h = 0 set, which the rollouts never reach."""
    plant = draw(st.sampled_from(("pendulum", "truck")))
    where = draw(st.sampled_from(("near", "far", "lg_zero")))
    epsilon = draw(st.sampled_from(EPSILONS))
    if plant == "pendulum":
        reach = 0.4 if where == "near" else 40.0
        theta = draw(st.floats(-reach, reach))
        if where == "lg_zero":
            # lg_h = 0 on theta_dot = -(b/2a) theta, exactly for powers of 2
            return plant, (theta, -(P.b / (2.0 * P.a)) * theta), None, epsilon
        return plant, (theta, draw(st.floats(-2.0 * reach, 2.0 * reach))), None, epsilon
    a_l = draw(st.floats(-T.a_under_l, T.a_bar_l))
    v_l = draw(st.floats(0.0, 40.0))
    if where == "lg_zero":
        # lg_h = -(c1 + 2 c3 v + c4 v_L) vanishes to rounding
        d = draw(st.floats(-100.0, 100.0))
        return plant, (d, -(T.c1 + T.c4 * v_l) / (2.0 * T.c3), v_l), a_l, epsilon
    d_lo, d_hi, v_hi = (0.0, 60.0, 20.0) if where == "near" else (-3000.0, 1e4, 400.0)
    return plant, (draw(st.floats(d_lo, d_hi)), draw(st.floats(0.0, v_hi)), v_l), a_l, epsilon


def _numpy_filter(plant, a_l, epsilon):
    if plant == "pendulum":
        return CbfFilter(BARRIER, linear_class_kappa(P.alpha_c), NOMINAL, epsilon)
    return CbfFilter(truck_barrier(T, a_l), linear_class_kappa(T.alpha_c),
                     lambda x: np.array([truck_nominal(T, x[0], x[1], x[2])]), epsilon)


@given(case=filter_cases())
@settings(max_examples=400)
@example(case=("pendulum", (0.1, 0.2), None, EpsilonFunction(0.5, 1000.0)))   # eps overflows
@example(case=("pendulum", (0.1, 20.0), None, EpsilonFunction(0.5, 12.0)))    # eps underflows
@example(case=("pendulum", (0.1, -0.1), None, EpsilonFunction(0.5, 12.0)))    # lg_h = 0
@example(case=("truck", (1e4, 10.0, 10.0), -2.0, EpsilonFunction(*TRUCK_PAIR)))
@example(case=("truck", (0.0, 400.0, 10.0), 3.0, EpsilonFunction(*TRUCK_PAIR)))
@example(case=("truck", (0.0, 227.0, 4.0), 0.0, EpsilonFunction(*TRUCK_PAIR)))  # gain lg_h overflows
def test_filter_function_matches_cbf_filter_bit_for_bit(case):
    plant, x, a_l, epsilon = case
    p, record = (P, pendulum_record(P)) if plant == "pendulum" else (T, truck_record(T))
    u = filter_function(p.alpha_c, epsilon)(*record_terms(record, x, a_l))
    filt = _numpy_filter(plant, a_l, epsilon)
    x = np.array(x)
    reference = reference_filter(p.alpha_c, epsilon, filt.barrier(x),
                                 np.atleast_1d(filt.nominal(x)))
    # float.hex tells -0.0 from 0.0 and compares inf and nan
    assert u.hex() == float(filt.filter(x)[0]).hex() == float(reference[0]).hex()


@pytest.mark.parametrize("lg_h,u_nom", [([1.0, 2.0], [0.0]), ([1.0], [0.0, 0.0])])
def test_cbf_filter_serves_one_input(lg_h, u_nom):
    be = BarrierEvaluation(h=0.5, lf_h=-1.0, lg_h=lg_h)
    filt = CbfFilter(lambda x: be, linear_class_kappa(0.5), lambda x: np.array(u_nom))
    with pytest.raises(DimensionError, match="one input"):
        filt.filter(np.zeros(2))
