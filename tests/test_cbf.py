import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    BarrierEvaluation,
    CbfFilter,
    PendulumParams,
    linear_class_kappa,
    pendulum_barrier,
    pendulum_cbf_filter,
    pendulum_nominal,
)

from helpers import (
    correction_gain,
    grid_search_scalar,
    in_admissible_set,
    project_halfspace,
    switching_filter,
)

P = PendulumParams()
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
