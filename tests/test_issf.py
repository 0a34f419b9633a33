import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from safefilter import (
    EpsilonFunction,
    PendulumParams,
    TruckParams,
    linear_class_kappa,
    pendulum_barrier,
    pendulum_cbf_filter,
    pendulum_nominal,
    set_inflation,
    solve_h_star,
)
from safefilter.cbf import CbfFilter, filter_function
from safefilter.issf import IssfFilter

from helpers import (
    bisect_h_star,
    correction_gain,
    in_admissible_set,
    in_inflated_set,
    switching_filter,
)

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
    with pytest.raises(ValueError):
        EpsilonFunction(1.0, math.inf)


def test_epsilon_kinds_and_values():
    # lam = 0 is the constant gain, lam > 0 the exponential one
    const = EpsilonFunction(0.15)
    assert const(3.7) == const(-3.7) == pytest.approx(0.15)
    expo = EpsilonFunction(0.5, 12.0)
    assert expo(-0.1) == pytest.approx(0.5 * math.exp(-1.2))


@given(eps0=st.floats(1e-3, 10.0), lam=st.floats(0.0, 5.0), r=st.floats(-10.0, 2.0),
       dr=st.floats(0.0, 1.0))
def test_epsilon_positive_and_nondecreasing(eps0, lam, r, dr):
    eps = EpsilonFunction(eps0, lam)
    assert eps(r) > 0.0
    assert eps(r + dr) >= eps(r)


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


@pytest.mark.parametrize("lam", [0.0, 0.4])
def test_nan_delta_is_rejected_as_scenario_rejects_it(lam):
    # delta < 0 let nan through: h* and the inflation were nan
    message = "delta must be nonnegative, got nan"
    with pytest.raises(ValueError, match=message):
        solve_h_star(linear_class_kappa(0.1), EpsilonFunction(0.5, lam), math.nan)
    with pytest.raises(ValueError, match=message):
        set_inflation(linear_class_kappa(0.1), EpsilonFunction(0.5, lam), 0.0, math.nan)


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


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda exponent: 10.0 ** exponent)


@given(alpha_c=_log_uniform(-3.0, 2.0), eps0=_log_uniform(-3.0, 3.0),
       lam=st.just(0.0) | _log_uniform(-6.0, 2.0), delta=_log_uniform(-3.0, 2.0))
@settings(max_examples=300)
@example(alpha_c=0.1, eps0=0.5, lam=0.4, delta=4.5)         # the truck's published pair
@example(alpha_c=1.0, eps0=1.0, lam=1e-300, delta=1.0)      # z = lam c -> 0
@example(alpha_c=1.0, eps0=4e-200, lam=1.0, delta=1.0)      # z = c = 1e-200
@example(alpha_c=1.0, eps0=1.0, lam=1e-310, delta=1.0)      # z subnormal: h* = -c
@example(alpha_c=1.0, eps0=1e-320, lam=1.0, delta=1e-10)    # c underflows to 0: h* = 0
@example(alpha_c=0.25, eps0=1.7e308, lam=1.0, delta=1.0)    # z near the float maximum
@example(alpha_c=0.25, eps0=1.7e308, lam=10.0, delta=1.0)   # z overflows, c does not
@example(alpha_c=1.0, eps0=1e300, lam=1.0, delta=1e5)       # c overflows, h* is finite
@example(alpha_c=1.0, eps0=1e300, lam=0.0, delta=1e5)       # c overflows: h* = -inf
def test_h_star_closed_form_matches_bisection_and_lambertw(alpha_c, eps0, lam, delta):
    alpha, eps = linear_class_kappa(alpha_c), EpsilonFunction(eps0, lam)
    value = solve_h_star(alpha, eps, delta)
    c = set_inflation(alpha, eps, 0.0, delta)
    if lam == 0.0:
        assert value == -c
        return
    # h* lies in [-c, 0]; the one example whose c overflows has h* near -704
    lower = -c - 1.0 if math.isfinite(c) else -1e4
    oracle = bisect_h_star(alpha, eps, delta, lower=lower, tol=math.inf)
    assert value == pytest.approx(oracle, rel=1e-14, abs=0.0)
    z = lam * c
    if sys.float_info.min <= z < math.inf:  # scipy takes z itself, at full precision
        assert value == pytest.approx(-lambertw(z).real / lam, rel=1e-14, abs=0.0)


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


def test_h_star_beyond_the_old_bisection_bracket_is_finite():
    # a root below -1e6, outside the bracket the bisection searched, is the
    # closed form's -c = -eps0 delta^2 / (4 alpha_c) like any other
    assert solve_h_star(linear_class_kappa(0.01), EpsilonFunction(1e7, 0.0), 5.0) == -6.25e9
    # the residual of a root near -1.5e9 resolves to its float spacing, 2.4e-7
    alpha, eps = linear_class_kappa(0.01), EpsilonFunction(1e7, 1e-9)
    value = solve_h_star(alpha, eps, 5.0)
    assert value == pytest.approx(bisect_h_star(alpha, eps, 5.0, lower=-6.25e9, tol=1e-6),
                                  rel=1e-14)
    assert -6.25e9 < value < -1e6


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
    assert pendulum_cbf_filter(P, eps).epsilon is eps
    assert pendulum_cbf_filter(P).epsilon is None


def test_robust_gain_zero_on_lg_zero_line():
    filt = pendulum_cbf_filter(P, EpsilonFunction(0.15))
    x = np.array([0.1, -0.1])
    assert correction_gain(filt, x) == 0.0
    assert filt.filter(x) == pytest.approx(pendulum_nominal(P)(x))


@given(x=pendulum_states)
@settings(max_examples=100)
def test_huge_epsilon_recovers_plain_filter_gain(x):
    plain = pendulum_cbf_filter(P)
    robust = pendulum_cbf_filter(P, EpsilonFunction(1e9, 0.0))
    assert abs(correction_gain(robust, x) - correction_gain(plain, x)) <= 1e-6


@given(x=pendulum_states)
@settings(max_examples=100)
def test_robust_gain_dominates_plain_gain(x):
    plain = pendulum_cbf_filter(P)
    robust = pendulum_cbf_filter(P, EpsilonFunction(0.15, 0.0))
    barrier = pendulum_barrier(P)
    if abs(barrier(x).lg_h[0]) > 1e-12:
        assert correction_gain(robust, x) >= correction_gain(plain, x)


@given(x=pendulum_states)
@settings(max_examples=200)
def test_robust_filter_output_in_tightened_set(x):
    filt = pendulum_cbf_filter(P, EpsilonFunction(0.5, 12.0))
    assert in_admissible_set(filt, x, filt.filter(x))


@given(x=pendulum_states)
@settings(max_examples=100)
def test_robust_filter_passes_through_admissible_nominal(x):
    filt = pendulum_cbf_filter(P, EpsilonFunction(0.15, 0.0))
    u_nom = pendulum_nominal(P)(x)
    if in_admissible_set(filt, x, u_nom, tol=0.0):
        assert np.array_equal(filt.filter(x), u_nom)


@given(x=pendulum_states)
@settings(max_examples=100)
def test_infinite_epsilon_reduces_to_plain_filter(x):
    # eps0 = inf makes the 1/eps term exactly zero
    plain = pendulum_cbf_filter(P)
    reduced = pendulum_cbf_filter(P, EpsilonFunction(math.inf, 0.0))
    assert float(reduced.filter(x)[0]) == float(plain.filter(x)[0])


@given(x=pendulum_states)
@settings(max_examples=200)
def test_robust_switching_equals_closed_form(x):
    # rel term covers states with tiny eps(h) where both forms blow up together
    filt = pendulum_cbf_filter(P, EpsilonFunction(0.5, 12.0))
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
    robust, plain = filter_function(1.0, eps), filter_function(1.0)
    # apply(h, lf_h, lg_h, u_nom) with lg_h = 2 and the residual
    # lf_h + lg_h u_nom + 1.0 h = -2: the plain gain is 2/4, so u = 0 + 0.5 * 2
    assert robust(100.0, -102.0, 2.0, 0.0) == plain(100.0, -102.0, 2.0, 0.0) == 1.0
    assert robust(-100.0, 98.0, 2.0, 0.0) == math.inf
    # zero on the lg_h = 0 set, whatever eps(h) does: u_nom passes through
    assert robust(-100.0, 98.0, 0.0, 3.0) == 3.0


def test_robust_pendulum_filter_gives_an_infinite_input_where_eps_vanishes():
    filt = pendulum_cbf_filter(P, EpsilonFunction(0.5, 12.0))
    x = np.array([0.1, 20.0])   # h about -1600: eps(h) underflows to 0
    assert filt.epsilon(pendulum_barrier(P)(x).h) == 0.0
    assert correction_gain(filt, x) == math.inf
    assert np.isinf(filt.filter(x)).all()


def test_robust_admissibility_takes_the_limits_of_1_over_eps():
    # where eps(h) underflows to 0 the tightening s/eps(h) is infinite, so no
    # finite input is admissible
    filt = pendulum_cbf_filter(P, EpsilonFunction(0.5, 12.0))
    x = np.array([0.1, 20.0])
    assert filt.epsilon(pendulum_barrier(P)(x).h) == 0.0
    for u in (-1e6, 0.0, 1e6):
        assert not in_admissible_set(filt, x, np.array([u]))
    # where eps(h) overflows the tightening vanishes: the plain constraint
    robust = pendulum_cbf_filter(P, EpsilonFunction(0.5, 1000.0))
    plain = pendulum_cbf_filter(P)
    x = np.array([0.05, 0.0])   # h = 0.96, lg_h = -0.2
    with pytest.raises(OverflowError):
        robust.epsilon(pendulum_barrier(P)(x).h)
    boundary = float(plain.filter(np.array([0.05, 0.0]))[0])
    for u in (boundary - 1.0, boundary, boundary + 1.0, 1e6):
        u = np.array([u])
        assert in_admissible_set(robust, x, u) == in_admissible_set(plain, x, u)
