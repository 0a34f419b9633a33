import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from safefilter import (
    BarrierEvaluation,
    ClassKappaE,
    DimensionError,
    PendulumParams,
    linear_class_kappa,
    pendulum_barrier,
    pendulum_dynamics,
    state_vector,
)


def test_hdot_is_affine_in_input():
    be = BarrierEvaluation(h=0.5, lf_h=1.0, lg_h=[2.0])
    assert be.hdot([3.0]) == 7.0
    zero = BarrierEvaluation(h=0.5, lf_h=0.0, lg_h=[0.0])
    assert zero.hdot([5.0]) == 0.0


def test_hdot_rejects_dimension_mismatch():
    be = BarrierEvaluation(h=0.0, lf_h=0.0, lg_h=[1.0, 2.0])
    with pytest.raises(DimensionError):
        be.hdot([1.0])


def test_barrier_evaluation_rejects_non_finite():
    with pytest.raises(ValueError):
        BarrierEvaluation(h=np.nan, lf_h=0.0, lg_h=[0.0])
    with pytest.raises(ValueError):
        BarrierEvaluation(h=0.0, lf_h=np.inf, lg_h=[0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["h", "lf_h", "lg_h", "lg_h[0] of 2", "lg_h[1] of 2"])
def test_barrier_evaluation_rejects_each_non_finite_entry(bad, where):
    fields = {"h": 0.5, "lf_h": -1.0, "lg_h": 2.0}
    if where.startswith("lg_h["):
        lg = [0.0, 0.0]
        lg[int(where[5])] = bad
        fields["lg_h"] = lg
    else:
        fields[where] = bad
    with pytest.raises(ValueError, match="must be finite"):
        BarrierEvaluation(**fields)


def test_barrier_evaluation_keeps_lg_h_as_a_row_vector():
    assert BarrierEvaluation(h=0.0, lf_h=0.0, lg_h=2.0).lg_h.shape == (1,)
    assert BarrierEvaluation(h=0.0, lf_h=0.0, lg_h=[1.0, 2.0]).lg_h.shape == (2,)
    source = np.array([1.0, 2.0])
    be = BarrierEvaluation(h=0.0, lf_h=0.0, lg_h=source)
    source[0] = np.nan  # the evaluation holds its own copy
    assert be.lg_h.tolist() == [1.0, 2.0]


def test_pendulum_drift_rate_matches_finite_differences():
    # lf_h at (-0.1, 0.5) from the hand-written gradient, checked against a
    # central difference of h along the frozen drift direction
    p = PendulumParams()
    barrier = pendulum_barrier(p)
    dyn = pendulum_dynamics(p)
    x = np.array([-0.1, 0.5])
    be = barrier(x)
    assert be.hdot([0.0]) == pytest.approx(2.7946693326985008, abs=1e-12)

    f = dyn.drift(x, 0.0)
    step = 1e-7
    fd = (barrier(x + step * f).h - barrier(x - step * f).h) / (2.0 * step)
    assert be.lf_h == pytest.approx(fd, abs=1e-6)


def test_linear_class_kappa_values():
    alpha = linear_class_kappa(0.2)
    assert alpha(1.0) == pytest.approx(0.2)
    assert alpha(0.0) == 0.0
    assert linear_class_kappa(0.1).inverse(-2.025) == pytest.approx(-20.25, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_linear_class_kappa_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        linear_class_kappa(bad)
    with pytest.raises(ValueError):
        ClassKappaE(bad)


@given(
    alpha_c=st.floats(1e-3, 1e3),
    r=st.floats(-1e3, 1e3),
)
def test_linear_class_kappa_inverse_roundtrip(alpha_c, r):
    alpha = linear_class_kappa(alpha_c)
    assert abs(alpha.inverse(alpha(r)) - r) <= 1e-10


@given(
    alpha_c=st.floats(1e-3, 1e3),
    r1=st.floats(-1e3, 1e3),
    r2=st.floats(-1e3, 1e3),
)
# adjacent floats can round to the same product alpha_c * r
@example(alpha_c=8.567265713070924, r1=-1000.0, r2=-999.9999999999999)
def test_linear_class_kappa_strictly_increasing(alpha_c, r1, r2):
    if r1 == r2:
        return
    lo, hi = min(r1, r2), max(r1, r2)
    alpha = linear_class_kappa(alpha_c)
    # monotone always; strictly increasing once the gap is beyond rounding
    assert alpha(lo) <= alpha(hi)
    if hi - lo > 1e-12 * max(1.0, abs(lo), abs(hi)):
        assert alpha(lo) < alpha(hi)


@given(
    lf=st.floats(-1e3, 1e3),
    lg=st.floats(-1e3, 1e3),
    u1=st.floats(-1e3, 1e3),
    u2=st.floats(-1e3, 1e3),
)
def test_hdot_linearity(lf, lg, u1, u2):
    be = BarrierEvaluation(h=0.0, lf_h=lf, lg_h=[lg])
    lhs = be.hdot([u1 + u2]) - be.hdot([u2])
    assert lhs == pytest.approx(lg * u1, abs=1e-9, rel=1e-9)


def test_state_vector_validation():
    x = state_vector([1.0, 2.0], dim=2)
    assert x.shape == (2,)
    with pytest.raises(DimensionError):
        state_vector([1.0, 2.0], dim=3)
    with pytest.raises(DimensionError):
        state_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        state_vector([1.0, np.inf])
