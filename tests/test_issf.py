import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    EpsilonFunction,
    PendulumParams,
    RootBracketError,
    TruckParams,
    linear_class_kappa,
    pendulum_barrier,
    pendulum_cbf_filter,
    pendulum_issf_filter,
    pendulum_nominal,
    set_inflation,
    solve_h_star,
)
from safefilter.cbf import CbfFilter, filter_gain
from safefilter.issf import IssfFilter

from helpers import correction_gain, in_admissible_set, in_inflated_set, switching_filter

P = PendulumParams()
ALPHA_P = linear_class_kappa(P.alpha_c)
ALPHA_T = linear_class_kappa(TruckParams().alpha_c)

pendulum_states = st.tuples(st.floats(-0.4, 0.4), st.floats(-0.8, 0.8)).map(np.array)


# ---------------------------------------------------------------------------
# EpsilonFunction
# ---------------------------------------------------------------------------


def test_epsilon_validation():
    with pytest.raises(ValueError):
        EpsilonFunction(0.0, 0.0)
    with pytest.raises(ValueError):
        EpsilonFunction(-1.0, 0.0)
    with pytest.raises(ValueError):
        EpsilonFunction(1.0, -0.1)


def test_epsilon_kinds_and_values():
    const = EpsilonFunction(0.15)
    assert const.kind == "constant"
    assert const(3.7) == pytest.approx(0.15)
    assert const.derivative(3.7) == 0.0
    expo = EpsilonFunction(0.5, 12.0)
    assert expo.kind == "exponential"
    assert expo(-0.1) == pytest.approx(0.5 * math.exp(-1.2))


@given(eps0=st.floats(1e-3, 10.0), lam=st.floats(0.0, 5.0), r=st.floats(-10.0, 2.0))
def test_epsilon_positive_and_nondecreasing(eps0, lam, r):
    eps = EpsilonFunction(eps0, lam)
    assert eps(r) > 0.0
    assert eps.derivative(r) >= 0.0


# ---------------------------------------------------------------------------
# set inflation and h*
# ---------------------------------------------------------------------------


def test_inflation_zero_without_disturbance():
    rng = np.random.default_rng(7)
    eps = EpsilonFunction(0.5, 0.4)
    for h in rng.uniform(-50.0, 50.0, 100):
        assert set_inflation(ALPHA_T, eps, float(h), 0.0) == 0.0


def test_inflation_known_values():
    # pendulum: eps0 * delta^2 / (4 alpha_c) with the constant gain
    value = set_inflation(ALPHA_P, EpsilonFunction(0.15), 0.0, 0.75)
    assert value == pytest.approx(0.10546875, abs=1e-12)
    # truck: same structure, larger scale
    value = set_inflation(ALPHA_T, EpsilonFunction(0.8), 0.0, 4.5)
    assert value == pytest.approx(40.5, abs=1e-9)


def test_inflation_rejects_negative_delta():
    with pytest.raises(ValueError):
        set_inflation(ALPHA_P, EpsilonFunction(1.0), 0.0, -0.1)


@given(
    h=st.floats(-5.0, 5.0),
    d1=st.floats(0.0, 3.0),
    d2=st.floats(0.0, 3.0),
    eps0=st.floats(1e-2, 5.0),
    lam=st.floats(0.0, 2.0),
)
def test_inflation_strictly_increasing_in_delta(h, d1, d2, eps0, lam):
    lo, hi = min(d1, d2), max(d1, d2)
    if hi - lo < 1e-3:
        return  # too close to resolve strictness in floats
    eps = EpsilonFunction(eps0, lam)
    assert set_inflation(ALPHA_T, eps, h, lo) < set_inflation(ALPHA_T, eps, h, hi)


def test_h_star_pendulum_goldens():
    # published pendulum parameter sets, values tabulated to 2 decimals
    assert solve_h_star(ALPHA_P, EpsilonFunction(0.15, 0.0), 0.75) == pytest.approx(-0.10, abs=0.01)
    assert solve_h_star(ALPHA_P, EpsilonFunction(0.5, 12.0), 0.75) == pytest.approx(-0.10, abs=0.01)
    assert solve_h_star(ALPHA_P, EpsilonFunction(4.0, 3.0), 0.75) == pytest.approx(-0.55, abs=0.01)


TRUCK_HSTAR_TABLE = [
    (0.8, 0.0, -40.50),
    (3.0, 0.0, -151.88),
    (4.0, 0.0, -202.50),
    (5.0, 0.0, -253.13),
    (0.5, 0.4, -4.38),
    (0.5, 0.5, -3.80),
    (0.8, 0.25, -7.01),
    (0.8, 0.35, -5.64),
    (1.0, 0.25, -7.59),
]


@pytest.mark.parametrize("eps0,lam,expected", TRUCK_HSTAR_TABLE)
def test_h_star_truck_goldens(eps0, lam, expected):
    value = solve_h_star(ALPHA_T, EpsilonFunction(eps0, lam), 4.5)
    assert value == pytest.approx(expected, abs=0.01)


def test_h_star_zero_without_disturbance():
    assert solve_h_star(ALPHA_T, EpsilonFunction(1.0, 0.3), 0.0) == 0.0


@given(
    eps0=st.floats(1e-2, 10.0),
    delta=st.floats(0.1, 5.0),
    alpha_c=st.floats(1e-2, 1.0),
)
def test_h_star_closed_form_for_constant_gain(eps0, delta, alpha_c):
    alpha = linear_class_kappa(alpha_c)
    value = solve_h_star(alpha, EpsilonFunction(eps0, 0.0), delta)
    assert value == pytest.approx(-eps0 * delta * delta / (4.0 * alpha_c), abs=1e-10)


def test_h_star_monotone_in_delta_and_eps0():
    eps_grid = np.linspace(0.1, 5.0, 20)
    delta_grid = np.linspace(0.0, 5.0, 20)
    for lam in (0.0, 0.4):
        values = np.array([
            [solve_h_star(ALPHA_T, EpsilonFunction(e, lam), d) for d in delta_grid]
            for e in eps_grid
        ])
        assert np.all(np.diff(values, axis=1) <= 1e-12)  # nonincreasing in delta
        assert np.all(np.diff(values, axis=0) <= 1e-12)  # nonincreasing in eps0


def test_h_star_unbracketed_root_raises():
    with pytest.raises(RootBracketError):
        solve_h_star(linear_class_kappa(0.01), EpsilonFunction(1e7, 0.0), 5.0)


def test_inflated_set_membership():
    eps = EpsilonFunction(0.5, 0.4)
    assert in_inflated_set(ALPHA_T, eps, 0.0, 4.5)       # safe set is contained
    assert in_inflated_set(ALPHA_T, eps, -4.37, 4.5)     # just above h*
    assert not in_inflated_set(ALPHA_T, eps, -4.40, 4.5)  # just below h*
    # without disturbance the inflated set is the safe set itself
    assert in_inflated_set(ALPHA_T, eps, 0.0, 0.0)
    assert not in_inflated_set(ALPHA_T, eps, -1e-9, 0.0)


@given(
    h=st.floats(-60.0, 10.0),
    eps0=st.floats(1e-2, 5.0),
    lam=st.floats(0.0, 1.0),
    delta=st.floats(0.1, 5.0),
)
@settings(max_examples=150)
def test_inflated_set_equals_h_star_sublevel(h, eps0, lam, delta):
    # h + inflation(h) is strictly increasing in h for this family, so
    # membership is equivalent to h >= h*
    eps = EpsilonFunction(eps0, lam)
    h_star = solve_h_star(ALPHA_T, eps, delta)
    if abs(h - h_star) < 1e-7:
        return  # too close to the boundary to resolve
    assert in_inflated_set(ALPHA_T, eps, h, delta) == (h >= h_star)


# ---------------------------------------------------------------------------
# Robust filter
# ---------------------------------------------------------------------------


def test_robust_filter_is_the_cbf_filter_with_a_robustness_gain():
    eps = EpsilonFunction(0.15)
    assert IssfFilter is CbfFilter
    assert pendulum_issf_filter(P, eps).epsilon is eps
    assert pendulum_cbf_filter(P).epsilon is None


def test_robust_gain_zero_on_lg_zero_line():
    filt = pendulum_issf_filter(P, EpsilonFunction(0.15))
    x = np.array([0.1, -0.1])
    assert correction_gain(filt, x) == 0.0
    assert filt.filter(x) == pytest.approx(pendulum_nominal(P)(x))


@given(x=pendulum_states)
@settings(max_examples=100)
def test_huge_epsilon_recovers_plain_filter_gain(x):
    plain = pendulum_cbf_filter(P)
    robust = pendulum_issf_filter(P, EpsilonFunction(1e9, 0.0))
    assert abs(correction_gain(robust, x) - correction_gain(plain, x)) <= 1e-6


@given(x=pendulum_states)
@settings(max_examples=100)
def test_robust_gain_dominates_plain_gain(x):
    plain = pendulum_cbf_filter(P)
    robust = pendulum_issf_filter(P, EpsilonFunction(0.15, 0.0))
    barrier = pendulum_barrier(P)
    if abs(barrier(x).lg_h[0]) > 1e-12:
        assert correction_gain(robust, x) >= correction_gain(plain, x)


@given(x=pendulum_states)
@settings(max_examples=200)
def test_robust_filter_output_in_tightened_set(x):
    filt = pendulum_issf_filter(P, EpsilonFunction(0.5, 12.0))
    assert in_admissible_set(filt, x, filt.filter(x))


@given(x=pendulum_states)
@settings(max_examples=100)
def test_robust_filter_passes_through_admissible_nominal(x):
    filt = pendulum_issf_filter(P, EpsilonFunction(0.15, 0.0))
    u_nom = pendulum_nominal(P)(x)
    if in_admissible_set(filt, x, u_nom, tol=0.0):
        assert np.array_equal(filt.filter(x), u_nom)


@given(x=pendulum_states)
@settings(max_examples=100)
def test_infinite_epsilon_reduces_to_plain_filter(x):
    # eps0 = inf makes the 1/eps term exactly zero
    plain = pendulum_cbf_filter(P)
    reduced = pendulum_issf_filter(P, EpsilonFunction(math.inf, 0.0))
    assert float(reduced.filter(x)[0]) == float(plain.filter(x)[0])


@given(x=pendulum_states)
@settings(max_examples=200)
def test_robust_switching_equals_closed_form(x):
    # rel term covers states with tiny eps(h) where both forms blow up together
    filt = pendulum_issf_filter(P, EpsilonFunction(0.5, 12.0))
    assert switching_filter(filt, x) == pytest.approx(
        float(filt.filter(x)[0]), abs=1e-10, rel=1e-12
    )


def test_robust_gain_takes_the_limits_of_1_over_eps():
    # eps(h) = eps0 exp(lam h) overflows far inside the safe set and underflows
    # to 0 far outside it; 1/eps(h) then takes its limits 0 and inf
    eps = EpsilonFunction(0.5, 12.0)
    with pytest.raises(OverflowError):
        eps(100.0)
    assert eps(-100.0) == 0.0
    assert filter_gain(4.0, -2.0, 100.0, eps) == filter_gain(4.0, -2.0, 100.0) == 0.5
    assert filter_gain(4.0, -2.0, -100.0, eps) == math.inf
    # zero on the lg_h = 0 set, whatever eps(h) does
    assert filter_gain(0.0, -2.0, -100.0, eps) == 0.0


def test_robust_pendulum_filter_gives_an_infinite_input_where_eps_vanishes():
    filt = pendulum_issf_filter(P, EpsilonFunction(0.5, 12.0))
    x = np.array([0.1, 20.0])   # h about -1600: eps(h) underflows to 0
    assert filt.epsilon(pendulum_barrier(P)(x).h) == 0.0
    assert correction_gain(filt, x) == math.inf
    assert np.isinf(filt.filter(x)).all()


def test_robust_admissibility_takes_the_limits_of_1_over_eps():
    # where eps(h) underflows to 0 the tightening s/eps(h) is infinite, so no
    # finite input is admissible
    filt = pendulum_issf_filter(P, EpsilonFunction(0.5, 12.0))
    x = np.array([0.1, 20.0])
    assert filt.epsilon(pendulum_barrier(P)(x).h) == 0.0
    for u in (-1e6, 0.0, 1e6):
        assert not in_admissible_set(filt, x, np.array([u]))
    # where eps(h) overflows the tightening vanishes: the plain constraint
    robust = pendulum_issf_filter(P, EpsilonFunction(0.5, 1000.0))
    plain = pendulum_cbf_filter(P)
    x = np.array([0.05, 0.0])   # h = 0.96, lg_h = -0.2
    with pytest.raises(OverflowError):
        robust.epsilon(pendulum_barrier(P)(x).h)
    boundary = float(plain.filter(np.array([0.05, 0.0]))[0])
    for u in (boundary - 1.0, boundary, boundary + 1.0, 1e6):
        u = np.array([u])
        assert in_admissible_set(robust, x, u) == in_admissible_set(plain, x, u)
