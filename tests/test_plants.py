import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    CbfFilter,
    EpsilonFunction,
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
from safefilter.plants import pendulum_record, truck_record

from helpers import TRUCK_PAIR, in_admissible_set, switching_filter

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
    assert np.allclose(dyn.actuation, [[0.0], [0.5]])


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
    closed = dyn.drift(x, 0.0) + dyn.actuation @ nominal(x)
    expected = np.array([theta_dot, -P.kp * theta - P.kd * theta_dot])
    assert np.max(np.abs(closed - expected)) <= 1e-12


def test_pendulum_params_validated():
    with pytest.raises(ValueError):
        PendulumParams(mass=-1.0)
    with pytest.raises(ValueError):
        PendulumParams(alpha_c=0.0)
    # the barrier, the field and the certificate divide by these products,
    # which underflow to 0 or overflow to inf
    for overrides, product in (({"a": 1e-300}, r"a\*a"), ({"b": 1e-300}, r"b\*b"),
                               ({"a": 1e200}, r"a\*a"),
                               ({"mass": 1e-200, "length": 1e-100}, r"mass\*length\*length")):
        with pytest.raises(ValueError, match=product + " must be positive and finite"):
            PendulumParams(**overrides)


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


def _policy_nominal(d, v, v_l):
    return (T.gain_range * (range_policy(T, d) - v)
            + T.gain_speed * (speed_policy(T, v_l) - v))


def test_nominal_is_the_policy_composition_bit_for_bit():
    # truck_nominal's float core writes the two policies out inline
    def around(p):
        return (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))

    for d in (-1.0, 0.0, *around(T.d_st), 17.3, *around(T.d_go), 80.0):
        for v in (0.0, 12.5):
            for v_l in (0.0, 9.1, *around(T.v_bar_l), 30.0):
                assert truck_nominal(T, d, v, v_l).hex() == _policy_nominal(d, v, v_l).hex()


@given(state=truck_box)
@settings(max_examples=200)
def test_record_terms_match_the_barrier_evaluation_bit_for_bit(state):
    # the record's inline barrier and policies against truck_barrier, which
    # wraps BarrierEvaluation around them, and the policy composition
    d, v, v_l, a_l = state
    x = np.array([d, v, v_l])
    be = truck_barrier(T, a_l)(x)
    h, lf_h, lg_h = truck_record(T).barrier((d, v, v_l), a_l)
    u_nom = truck_record(T).nominal((d, v, v_l))
    assert [h.hex(), lf_h.hex(), lg_h.hex()] == [be.h.hex(), be.lf_h.hex(), be.lg_h[0].hex()]
    assert h.hex() == (d - truck_headway(T, v, v_l)).hex()
    assert u_nom.hex() == _policy_nominal(d, v, v_l).hex()
    # the Lie derivatives along the numpy dynamics, from the gradient of h
    grad = np.array([1.0, -(T.c1 + 2.0 * T.c3 * v + T.c4 * v_l),
                     -(T.c2 + T.c4 * v + 2.0 * T.c5 * v_l)])
    dyn = truck_dynamics(T, lambda t: a_l)
    assert lf_h == pytest.approx(float(grad @ dyn.drift(x, 0.0)), rel=1e-12, abs=1e-12)
    assert lg_h == pytest.approx(float((grad @ dyn.actuation)[0]), rel=1e-12, abs=1e-12)


def test_truck_params_consistency_enforced():
    # d_go = v_bar_l/kappa + d_st is derived, so a kappa override moves it
    assert T.d_go == 30.0
    assert TruckParams(kappa=0.5).d_go == 20.0 / 0.5 + 5.0 == 45.0
    assert range_policy(TruckParams(kappa=0.5), 45.0) == 20.0
    with pytest.raises(TypeError):
        TruckParams(d_go=29.0)
    with pytest.raises(ValueError):
        TruckParams(kappa=-0.8)
    with pytest.raises(ValueError, match="d_go"):
        TruckParams(kappa=1e-320)  # v_bar_l/kappa overflows


# ---------------------------------------------------------------------------
# Truck filter compositions
# ---------------------------------------------------------------------------


def _truck_filter(a_l, epsilon=None):
    """The truck's filter as a generic CbfFilter, for the oracles."""
    return CbfFilter(truck_barrier(T, a_l), linear_class_kappa(T.alpha_c),
                     lambda x: np.array([truck_nominal(T, x[0], x[1], x[2])]), epsilon)


@given(state=truck_box)
@settings(max_examples=200)
def test_safe_filter_matches_generic_switching(state):
    # the projection u_nom + gain lg_h against the min/max form it replaced
    d, v, v_l, a_l = state
    x = np.array([d, v, v_l])
    assert truck_safe_filter(T, d, v, v_l, a_l) == pytest.approx(
        switching_filter(_truck_filter(a_l), x), abs=1e-12, rel=1e-12
    )


@given(state=truck_box)
@settings(max_examples=200)
def test_robust_filter_matches_generic_switching(state):
    d, v, v_l, a_l = state
    x = np.array([d, v, v_l])
    filt = _truck_filter(a_l, EpsilonFunction(*TRUCK_PAIR))
    assert truck_robust_filter(T, d, v, v_l, a_l, *TRUCK_PAIR) == pytest.approx(
        switching_filter(filt, x), abs=1e-12, rel=1e-12
    )


@given(state=truck_box)
@settings(max_examples=200)
def test_truck_filters_satisfy_their_constraints(state):
    d, v, v_l, a_l = state
    x = np.array([d, v, v_l])
    assert in_admissible_set(_truck_filter(a_l), x, [truck_safe_filter(T, d, v, v_l, a_l)])
    robust = _truck_filter(a_l, EpsilonFunction(*TRUCK_PAIR))
    assert in_admissible_set(robust, x, [truck_robust_filter(T, d, v, v_l, a_l, *TRUCK_PAIR)])


def test_robust_truck_filter_meets_its_constraint_where_eps_leaves_the_float_range():
    # with lam = 50, eps(h) overflows for h above about 14 and underflows to
    # 0 below about -15
    eps = EpsilonFunction(TRUCK_PAIR[0], 50.0)
    robust, plain = _truck_filter(-8.0, eps), _truck_filter(-8.0)
    far = np.array([60.0, 2.0, 16.0])        # h about 55: the plain constraint
    with pytest.raises(OverflowError):
        eps(robust.barrier(far).h)
    u = truck_robust_filter(T, *far, -8.0, eps.eps0, eps.lam)
    assert u == truck_safe_filter(T, *far, -8.0) == switching_filter(robust, far)
    assert in_admissible_set(robust, far, [u]) and in_admissible_set(plain, far, [u])
    close = np.array([0.0, 20.0, 2.0])       # h about -35: no finite input is admissible
    assert eps(robust.barrier(close).h) == 0.0
    u = truck_robust_filter(T, *close, -8.0, eps.eps0, eps.lam)
    assert u == switching_filter(robust, close) == -math.inf
    for u in (-1e6, 0.0, 1e6):
        assert not in_admissible_set(robust, close, [u])


@given(state=truck_box)
@settings(max_examples=200)
def test_robust_filter_never_exceeds_safe_filter(state):
    # the robustifying term only ever asks for more braking here (lg_h < 0)
    d, v, v_l, a_l = state
    assert truck_robust_filter(T, d, v, v_l, a_l, *TRUCK_PAIR) <= \
        truck_safe_filter(T, d, v, v_l, a_l) + 1e-12


def test_admissible_nominal_passes_through():
    # at the cruise equilibrium the nominal command is zero and admissible
    assert truck_nominal(T, 25.0, 16.0, 16.0) == 0.0
    assert truck_safe_filter(T, 25.0, 16.0, 16.0, 0.0) == 0.0


def test_robust_filter_takes_its_gain_as_arguments():
    # the robust design (eps0, lam) belongs to the filter, not to the plant
    d, v, v_l, a_l = 27.4, 16.0, 16.0, -8.0
    with pytest.raises(TypeError):
        truck_robust_filter(T, d, v, v_l, a_l)
    filt = _truck_filter(a_l, EpsilonFunction(*TRUCK_PAIR))
    assert truck_robust_filter(T, d, v, v_l, a_l, eps0=0.5, lam=0.4) == pytest.approx(
        switching_filter(filt, np.array([d, v, v_l])), abs=1e-12, rel=1e-12
    )


def test_robust_filter_takes_the_limits_of_its_tightening():
    # far behind the leader eps(h) overflows and the tightening lg_h/eps(h)
    # vanishes; deep inside the unsafe set eps(h) underflows to 0 and the
    # command diverges to full braking
    assert truck_robust_filter(T, 5000.0, 16.0, 16.0, 0.0, *TRUCK_PAIR) == \
        truck_safe_filter(T, 5000.0, 16.0, 16.0, 0.0)
    assert truck_robust_filter(T, -5000.0, 16.0, 16.0, 0.0, *TRUCK_PAIR) == -math.inf


@pytest.mark.parametrize("eps0,lam", [(0.0, 0.4), (-0.5, 0.4), (math.nan, 0.4), (0.5, -0.1),
                                      (0.5, math.inf), (0.5, math.nan)])
def test_robust_filter_rejects_an_invalid_gain_on_every_call(eps0, lam):
    for _ in range(3):
        with pytest.raises(ValueError):
            truck_robust_filter(T, 27.4, 16.0, 16.0, 0.0, eps0, lam)


def _one_row(record, x, a_l):
    """A one-row ``run`` at x and t = 0: its log of (state, u_nom, u, h)
    and the error it returns."""
    log = tuple([None] for _ in range(len(x) + 3))
    a, d = [a_l], [0.0]
    rows, _, err = record.run(x, [0.0], 0.1, a, d, a, d, a, d, 1, 0, log,
                              dict.fromkeys(record.clamped, 0))
    return [column[0] for column in log] if rows else [], err


@pytest.mark.parametrize("plant", ["pendulum", "truck"])
@pytest.mark.parametrize("scale", [0.3, 30.0, 1e6])
def test_numpy_barriers_match_the_logged_barrier(plant, scale):
    # the numpy wrappers evaluate the generated barrier alone, without the
    # nominal input: the same (h, lf_h, lg_h), and the h a logged row holds
    rng = np.random.default_rng(11)
    record = pendulum_record(P) if plant == "pendulum" else truck_record(T)
    for x in rng.normal(0.0, scale, size=(100, len(record.labels))).tolist():
        x = tuple(x)
        a_l = None if plant == "pendulum" else float(rng.uniform(-10.0, 5.0))
        be = (pendulum_barrier(P) if plant == "pendulum" else truck_barrier(T, a_l))(np.array(x))
        expected = [v.hex() for v in record.barrier(x, a_l)]
        assert [float(v).hex() for v in (be.h, be.lf_h, be.lg_h[0])] == expected
        row, err = _one_row(record, x, a_l)
        assert err is None and row[-1].hex() == expected[0]


@pytest.mark.parametrize("plant,x", [("pendulum", (1e200, 0.0)), ("pendulum", (0.0, 1e160)),
                                     ("truck", (0.0, 1e160, 0.0)), ("truck", (math.inf, 0.0, 0.0))])
def test_numpy_barriers_raise_where_the_terms_overflow(plant, x):
    barrier = pendulum_barrier(P) if plant == "pendulum" else truck_barrier(T, 0.0)
    record = pendulum_record(P) if plant == "pendulum" else truck_record(T)
    a_l = None if plant == "pendulum" else 0.0
    with pytest.raises(ValueError, match="barrier evaluation entries must be finite"):
        barrier(np.array(x))
    # the loop stops at row 0, unlogged, with the same error
    row, err = _one_row(record, x, a_l)
    assert row == [] and isinstance(err, ValueError)
    assert str(err) == "barrier evaluation entries must be finite"
