import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from safefilter.verification import _SCAN_CELLS, MAX_GRID_CELLS, truck_margin_table

from helpers import margin_grid, reference_margin_cells, reference_margin_table

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


@given(lo=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0), alpha_c=st.floats(0.01, 5.0),
       cross_term=st.booleans())
@settings(max_examples=200)
@example(lo=-1.0, width=2.0, alpha_c=0.2, cross_term=True)    # 0 in range and on the grid
@example(lo=-1.0, width=2.3, alpha_c=0.2, cross_term=True)    # 0 in range, off the grid
@example(lo=0.5, width=1.0, alpha_c=0.2, cross_term=True)     # minimiser at lo
@example(lo=-3.0, width=1.0, alpha_c=0.2, cross_term=True)    # minimiser at hi
@example(lo=-1.0, width=2.0, alpha_c=4.0, cross_term=True)    # alpha_c > b/a: at an end
@example(lo=-1.0, width=2.0, alpha_c=0.2, cross_term=False)   # no cross term: at an end
def test_pendulum_exact_minimum_against_a_dense_scan(lo, width, alpha_c, cross_term):
    # the exact minimum over the range is at most every sample of a dense
    # scan, and equal to the scan's minimum where the scan holds the minimiser
    hi = lo + width
    report = certify_pendulum(P.a, P.b, alpha_c, theta_range=(lo, hi), cross_term=cross_term)
    theta = np.linspace(lo, hi, 2001)
    if cross_term:
        margin = alpha_c + (3.0 / (4.0 * P.a * P.a)) * (P.b / P.a - alpha_c) * theta**2
    else:
        margin = alpha_c * (1.0 - theta**2 / (P.a * P.a))
    assert report.min_margin <= margin.min()
    on_grid = theta == report.witness["theta"]
    if on_grid.any():
        assert report.min_margin == margin.min() == margin[on_grid][0]
    assert lo <= report.witness["theta"] <= hi


@pytest.mark.parametrize("theta_range", [(-np.pi, np.pi), (-0.0, 1.0), (-1.0, -0.0)])
@pytest.mark.parametrize("cross_term", [True, False])
def test_pendulum_witness_has_no_negative_zero(theta_range, cross_term):
    # on the lg_h = 0 line theta_dot = -(b/2a) theta is -0.0 at theta = 0,
    # and a range can start at -0.0
    report = certify_pendulum(P.a, P.b, P.alpha_c, theta_range=theta_range,
                              cross_term=cross_term)
    for name, value in report.witness.items():
        assert not (value == 0.0 and math.copysign(1.0, value) < 0.0), name


def test_pendulum_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify_pendulum(0.25, 0.5, 0.2, theta_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        certify_pendulum(-0.25, 0.5, 0.2)


@pytest.mark.parametrize("a, b", [
    (1e-300, 1.0),     # a*a underflows to 0
    (1e200, 1.0),      # a*a overflows
    (1e-100, 1e250),   # b/a overflows
    (1e100, 1e-250),   # b/a underflows to 0
])
def test_pendulum_certify_rejects_divisors_that_underflow_or_overflow(a, b):
    # positive a and b whose divisors are 0 or inf: a ValueError, not a
    # ZeroDivisionError or an inf or nan certificate
    with pytest.raises(ValueError, match="a\\*a and b/a must be positive and finite"):
        certify_pendulum(a, b, 0.2)


def test_certify_rejects_a_range_whose_width_overflows():
    # hi - lo = inf would make np.linspace fill the scan with inf and nan
    with pytest.raises(ValueError, match="theta_range must have a finite width"):
        certify_pendulum(0.25, 0.5, 0.2, theta_range=(-1e308, 1e308))
    for name in ("d_range", "vl_range"):
        with pytest.raises(ValueError, match=f"{name} must have a finite width"):
            certify_truck_grid(TruckParams(), grid=(3, 3), **{name: (-1e308, 1e308)})
    # a wide range with a finite width and a finite margin still scans, and
    # contains the minimiser
    report = certify_pendulum(0.25, 0.5, 0.2, theta_range=(-1e150, 1e150))
    assert report.passed and report.min_margin == 0.2
    # a finite width whose margin overflows in theta^2 is rejected, with or
    # without the cross term
    for cross_term in (True, False):
        with pytest.raises(ValueError, match="the margin overflows on theta_range"):
            certify_pendulum(0.25, 0.5, 0.2, theta_range=(-1e300, 1e300),
                             cross_term=cross_term)


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
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_BLOCK_ROWS_500 = _SCAN_CELLS // 500  # grid rows of one block at 500 columns


@pytest.mark.parametrize("grid", [
    (_BLOCK_ROWS_500 - 1, 500),       # one row short of a block
    (_BLOCK_ROWS_500, 500),           # one whole block
    (_BLOCK_ROWS_500 + 1, 500),       # a block and one row
    (2 * _BLOCK_ROWS_500 + 1, 500),   # two blocks and one row
    (2, 20_000),                      # wide: a block is one row beyond the cell budget
    (500, 500),
    (2, _SCAN_CELLS + 1),             # a row of two column chunks, the second of one column
    (3, 2 * _SCAN_CELLS + 5),         # rows of three column chunks
])
@pytest.mark.parametrize("d_range", [(0.0, 100.0), (100.0, 0.0)])
def test_margin_blocks_match_the_one_shot_scan_bit_for_bit(grid, d_range):
    # the in-place block scan gives the broadcast expression's four arrays,
    # and the margin of each cell computed on floats
    got = margin_grid(truck_margin_table(T, d_range=d_range, grid=grid))
    want = reference_margin_table(T, d_range, (0.0, 20.0), grid)
    for got_array, want_array in zip(got, want):
        _assert_same_bits(got_array, want_array)
    if grid[0] < 500 and grid[1] < _SCAN_CELLS:  # the float loop is slow on larger grids
        _assert_same_bits(got[3], np.array(reference_margin_cells(T, d_range, (0.0, 20.0),
                                                                  grid)))


# every headway coefficient but c3 zero, c1 = -0.0: the margin is a signed zero
# on a grid of signed zeros, and the two a_L branches tie with opposite signs
_ZERO_TRUCK = TruckParams(c0=0.0, c1=-0.0, c2=0.0, c3=1.0, c4=0.0, c5=0.0)


@pytest.mark.parametrize("alpha_c", [0.0, 0.1])
@pytest.mark.parametrize("vl_range", [(-0.0, 0.0), (0.0, -0.0)])
@pytest.mark.parametrize("d_range", [(-0.0, 0.0), (0.0, -0.0)])
def test_margin_blocks_match_the_one_shot_scan_on_signed_zero_ties(alpha_c, vl_range, d_range):
    # np.minimum keeps its argument order, so each tie of +0.0 and -0.0
    # resolves as in the broadcast expression
    grid = (3 * _BLOCK_ROWS_500 + 2, 500)
    got = margin_grid(truck_margin_table(_ZERO_TRUCK, alpha_c, d_range, vl_range, grid,
                                         (-10.0, 5.0)))
    want = reference_margin_table(_ZERO_TRUCK, d_range, vl_range, grid, alpha_c, (-10.0, 5.0))
    assert (want[3] == 0.0).all()
    for got_array, want_array in zip(got, want):
        _assert_same_bits(got_array, want_array)


def _reference_witness(p, d_range, vl_range, grid, alpha_c=None):
    """(D, v_L, v, margin) at the broadcast expression's first minimum, row-major."""
    d_axis, vl_axis, v_axis, margin = reference_margin_table(p, d_range, vl_range, grid, alpha_c)
    i, j = np.unravel_index(np.argmin(margin), margin.shape)
    return float(d_axis[i]), float(vl_axis[j]), float(v_axis[j]), float(margin[i, j])


@pytest.mark.parametrize("alpha_c, d_range, vl_range, grid, where", [
    # D falls along the rows: the minimum is in the last row, in the third block
    (None, (100.0, 0.0), (0.0, 20.0), (2 * _BLOCK_ROWS_500 + 1, 500), (2 * _BLOCK_ROWS_500, 0)),
    # and v_L along the columns: in the last column
    (None, (100.0, 0.0), (20.0, 0.0), (2 * _BLOCK_ROWS_500 + 1, 500),
     (2 * _BLOCK_ROWS_500, 499)),
    # in the last row and the last column chunk of a wide grid
    (None, (100.0, 0.0), (20.0, 0.0), (3, _SCAN_CELLS + 7), (2, _SCAN_CELLS + 6)),
    # alpha_c = 0: every row is equal, so every block ties and row 0 is the witness
    (0.0, (0.0, 100.0), (0.0, 20.0), (2 * _BLOCK_ROWS_500 + 1, 500), (0, 0)),
    (0.0, (100.0, 0.0), (0.0, 20.0), (2 * _BLOCK_ROWS_500 + 1, 500), (0, 0)),
])
def test_truck_witness_is_the_first_minimum_across_blocks(alpha_c, d_range, vl_range, grid,
                                                          where):
    report = certify_truck_grid(T, alpha_c=alpha_c, d_range=d_range, vl_range=vl_range,
                                grid=grid)
    d_w, vl_w, v_w, min_margin = _reference_witness(T, d_range, vl_range, grid, alpha_c)
    d_axis = np.linspace(*d_range, grid[0])
    vl_axis = np.linspace(*vl_range, grid[1])
    assert (d_w, vl_w) == (d_axis[where[0]], vl_axis[where[1]])
    assert (report.witness["D"], report.witness["v_L"], report.witness["v"],
            report.min_margin) == (d_w, vl_w, v_w, min_margin)


@pytest.mark.parametrize("alpha_c, d_range, vl_range, grid", [
    # v_L^2 overflows in the headway beyond |v_L| ~ 1e154, in every block
    (0.1, (0.0, 100.0), (-1e200, 1e200), (3, 3)),
    (0.1, (0.0, 100.0), (-1e200, 1e200), (2 * _BLOCK_ROWS_500 + 1, 500)),
    (0.1, (0.0, 100.0), (-1e200, 1e200), (2, 20_000)),
    # alpha_c D overflows beyond D ~ 7.19e307: in the last row, the third block
    (2.5, (0.0, 7.22e307), (0.0, 20.0), (2 * _BLOCK_ROWS_500 + 1, 500)),
])
def test_margin_block_scan_rejects_an_overflowing_grid_as_the_one_shot_scan(
        alpha_c, d_range, vl_range, grid):
    with pytest.raises(ValueError, match="the margin overflows"):
        reference_margin_table(T, d_range, vl_range, grid, alpha_c)
    message = (f"the margin overflows on the grid of d_range {d_range}, vl_range {vl_range} "
               f"and a_l_bounds (-10.0, 5.0)")
    blocks = truck_margin_table(T, alpha_c, d_range, vl_range, grid)[3]
    with pytest.raises(ValueError) as excinfo:
        for _ in blocks:
            pass
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        certify_truck_grid(T, alpha_c, d_range, vl_range, grid)
    assert str(excinfo.value) == message


def test_margin_scan_hands_out_the_blocks_before_an_overflowing_one():
    # alpha_c D overflows in the last row only, so the first two blocks come
    # out whole and finite before the third raises
    grid = (2 * _BLOCK_ROWS_500 + 1, 500)
    blocks = truck_margin_table(T, 2.5, (0.0, 7.22e307), (0.0, 20.0), grid)[3]
    starts = []
    with pytest.raises(ValueError, match="the margin overflows"):
        for i, block in blocks:
            assert block.shape == (_BLOCK_ROWS_500, 500) and np.isfinite(block).all()
            starts.append(i)
    assert starts == [0, _BLOCK_ROWS_500]


def test_margin_scan_leaves_the_error_state_before_each_block():
    # the scan lets overflow through inside each block only: the consumer sees
    # its own np.errstate before the first block, between blocks and after the
    # last, so the CSV writer's own overflow still warns
    grid = (2 * _BLOCK_ROWS_500 + 1, 500)
    for settings in ({"all": "warn"}, {"all": "raise"}, {"over": "raise", "invalid": "print"}):
        with np.errstate(**settings):
            outside = np.geterr()
            d_axis, vl_axis, v_axis, blocks = truck_margin_table(T, grid=grid)
            assert np.geterr() == outside
            seen = []
            for i, _ in blocks:
                assert np.geterr() == outside
                seen.append(i)
            assert np.geterr() == outside
            assert seen == [0, _BLOCK_ROWS_500, 2 * _BLOCK_ROWS_500]
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
        for _ in truck_margin_table(T, grid=grid)[3]:
            np.float64(1e308) * 10.0


def test_margin_scan_peaks_near_the_size_of_one_block():
    # a 500 x 500 scan reduced as it comes holds one block of 65 x 500 float64
    # (254 KB), its low branch and finiteness mask, and rows of 500: about 2.4
    # blocks, where the grid would be 7.7
    block_bytes = _BLOCK_ROWS_500 * 500 * 8
    tracemalloc.start()
    try:
        d_axis, vl_axis, v_axis, blocks = truck_margin_table(T, grid=(500, 500))
        low = min(block.min() for _, block in blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert low == reference_margin_table(T, (0.0, 100.0), (0.0, 20.0), (500, 500))[3].min()
    assert peak < 3 * block_bytes


def test_truck_certify_at_the_grid_cap_keeps_no_grid():
    # 2000 x 2000 is MAX_GRID_CELLS: its grid would be 32 MB, a block of 16
    # rows 256 KB; reduced as they come, the blocks peak near 0.7 MB
    assert 2000 * 2000 == MAX_GRID_CELLS
    tracemalloc.start()
    try:
        report = certify_truck_grid(T, grid=(2000, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.witness["D"] == 0.0
    assert peak < 1_000_000


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
