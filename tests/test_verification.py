import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    BarrierEvaluation,
    PendulumParams,
    TruckParams,
    certify_pendulum,
    certify_truck_grid,
    gradient_consistency,
    pendulum_barrier,
    pendulum_dynamics,
    truck_barrier,
    truck_dynamics,
    truck_headway,
)
from safefilter.verification import MAX_GRID_CELLS

P = PendulumParams()
T = TruckParams()


# ---------------------------------------------------------------------------
# Pendulum line check
# ---------------------------------------------------------------------------


def test_pendulum_certification_passes_for_published_rate():
    report = certify_pendulum(0.25, 0.5, 0.2)
    assert report.passed
    # quadratic margin with positive curvature bottoms out at theta = 0
    assert report.min_margin == pytest.approx(0.2, abs=1e-12)
    assert report.witness["theta"] == pytest.approx(0.0, abs=1e-12)


def test_pendulum_certification_fails_for_large_rate():
    # alpha_c > b/a flips the curvature: the margin goes negative far out
    report = certify_pendulum(0.25, 0.5, 2.5)
    assert not report.passed
    assert report.min_margin < 0.0
    assert abs(report.witness["theta"]) > 0.6


def test_pendulum_no_cross_term_variant_fails():
    report = certify_pendulum(0.25, 0.5, 0.2, cross_term=False)
    assert not report.passed
    assert abs(report.witness["theta"]) >= 0.25  # at or beyond the semi-axis


@given(theta0=st.floats(-1.0, 1.0))
@settings(max_examples=100)
def test_pendulum_closed_form_margin_matches_plant(theta0):
    # evaluate lf_h + alpha(h) from the plant barrier on the lg_h = 0 line and
    # compare against the closed form the certifier uses
    barrier = pendulum_barrier(P)
    x = np.array([theta0, -(P.b / (2.0 * P.a)) * theta0])
    be = barrier(x)
    assert abs(be.lg_h[0]) <= 1e-12
    direct = be.lf_h + P.alpha_c * be.h
    closed = P.alpha_c + (3.0 / (4.0 * P.a * P.a)) * (P.b / P.a - P.alpha_c) * theta0**2
    assert direct == pytest.approx(closed, abs=1e-9)


def test_pendulum_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify_pendulum(0.25, 0.5, 0.2, theta_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        certify_pendulum(-0.25, 0.5, 0.2)


def test_certify_rejects_a_range_whose_width_overflows():
    # hi - lo = inf would make np.linspace fill the scan with inf and nan
    with pytest.raises(ValueError, match="theta_range must have finite ends and a finite width"):
        certify_pendulum(0.25, 0.5, 0.2, theta_range=(-1e308, 1e308))
    for name in ("d_range", "vl_range"):
        with pytest.raises(ValueError, match=f"{name} must have finite ends and a finite width"):
            certify_truck_grid(TruckParams(), grid=(3, 3), **{name: (-1e308, 1e308)})
    # a wide range with a finite width still scans, and contains the minimiser
    with np.errstate(over="ignore"):
        report = certify_pendulum(0.25, 0.5, 0.2, theta_range=(-1e300, 1e300))
    assert report.passed and report.min_margin == 0.2


# ---------------------------------------------------------------------------
# Truck grid check
# ---------------------------------------------------------------------------


def test_truck_grid_passes_with_published_parameters():
    report = certify_truck_grid(T)
    assert report.passed
    # minimum sits at the (D=0, v_L=0) corner with the accelerating leader
    assert report.min_margin == pytest.approx(13.391666666666667, abs=1e-9)
    assert report.witness["D"] == 0.0
    assert report.witness["v_L"] == 0.0
    assert report.witness["a_L"] == 5.0


def test_truck_single_point_margin():
    # worked example at (D, v_L) = (50, 10): v is forced to -40/3 by the
    # lg_h = 0 line and the worst leader acceleration is the +5 endpoint
    report = certify_truck_grid(T, d_range=(50.0, 50.0), vl_range=(10.0, 10.0), grid=(2, 2))
    assert report.witness["v"] == pytest.approx(-40.0 / 3.0, abs=1e-9)
    assert report.min_margin == pytest.approx(26.366666666666667, abs=1e-9)


def test_worst_case_endpoint_matches_dense_scan():
    # margin is affine in a_L: a 50-point scan cannot find anything below the
    # endpoint minimum
    rng = np.random.default_rng(3)
    scan = np.linspace(-T.a_under_l, T.a_bar_l, 50)
    for _ in range(20):
        d = rng.uniform(0.0, 100.0)
        v_l = rng.uniform(0.0, 20.0)
        v0 = -(T.c1 + T.c4 * v_l) / (2.0 * T.c3)
        def margin(a_l):
            return (v_l - v0 - a_l * (T.c2 + T.c4 * v0 + 2.0 * T.c5 * v_l)
                    + T.alpha_c * (d - truck_headway(T, v0, v_l)))
        endpoint_min = min(margin(-T.a_under_l), margin(T.a_bar_l))
        assert min(margin(a) for a in scan) == pytest.approx(endpoint_min, abs=1e-9)


def test_dropping_alpha_term_reduces_margin():
    with_rate = certify_truck_grid(T, alpha_c=0.1)
    without_rate = certify_truck_grid(T, alpha_c=0.0)
    assert without_rate.min_margin < with_rate.min_margin


def test_grid_refinement_is_stable():
    coarse = certify_truck_grid(T, grid=(100, 100))
    fine = certify_truck_grid(T, grid=(200, 200))
    assert abs(coarse.min_margin - fine.min_margin) <= 1e-3


def test_degenerate_headway_curvature_rejected():
    flat = TruckParams(c3=0.0)
    with pytest.raises(ValueError):
        certify_truck_grid(flat)


def test_grid_validation():
    with pytest.raises(ValueError):
        certify_truck_grid(T, grid=(1, 200))
    with pytest.raises(ValueError):
        certify_truck_grid(T, a_l_bounds=(5.0, -10.0))


def test_scans_beyond_max_grid_cells_are_rejected_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
            certify_truck_grid(T, grid=(100000, 100000))
        with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
            certify_pendulum(P.a, P.b, P.alpha_c, samples=MAX_GRID_CELLS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Gradient cross-check
# ---------------------------------------------------------------------------


def test_gradient_consistency_pendulum():
    err = gradient_consistency(pendulum_dynamics(P), pendulum_barrier(P), [0.1, -0.2])
    assert err <= 1e-5


def test_gradient_consistency_truck():
    a_l = -8.0
    dyn = truck_dynamics(T, lambda t: a_l)
    err = gradient_consistency(dyn, truck_barrier(T, a_l), [27.4, 16.0, 16.0])
    assert err <= 1e-5


def test_gradient_consistency_constant_barrier_is_exact():
    def flat_barrier(x):
        return BarrierEvaluation(h=3.0, lf_h=0.0, lg_h=[0.0])

    err = gradient_consistency(pendulum_dynamics(P), flat_barrier, [0.1, 0.2])
    assert err == 0.0


def test_gradient_consistency_rejects_bad_step():
    with pytest.raises(ValueError):
        gradient_consistency(pendulum_dynamics(P), pendulum_barrier(P), [0.0, 0.0], step=0.0)
