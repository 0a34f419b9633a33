"""The generated loop tests a group of checked terms with one ``isfinite`` call
on their sum and tests each term only where that sum is not finite.

A float sum is finite only if every term is, so the sum test alone can only
pass finite terms; the fall-through keeps terms that are each finite but
overflow in the sum.  A test-only plant table puts a chosen value into one
check at a time: the row's barrier terms, each RK4 stage's barrier terms and
derivative, and the new state.  ``run`` must give what the same loop gives
through ``sim.rk4_step``, whose checks test term by term: the same log, or
the same error with the same stage time and state.
"""

import math
import warnings

import numpy as np
import pytest

from safefilter import SimulationError, TruckParams, plants, rk4_step
from safefilter.plants import truck_barrier, truck_record, truck_robust_filter, truck_safe_filter

DT = 0.5
HALF = 0.5 * DT
MAX = 1.7976931348623157e308
BIG = 1e308

# Two states: dy/dt = y, so from y0 each RK4 stage state has its own y, exact
# in binary for y0 a power of two.  The bound tables ``terms``, ``dx`` and
# ``dy`` give the barrier terms (h, lf_h, lg_h), dx/dt and an addend of dy/dt
# at a stage's y; by default lg_h = 0, which leaves the filter's input at
# u_nom = 0.  dy/dt also adds the input channel w, which is 0.
_PROBE = plants._PlantSource(
    names=("x", "y"),
    shared="",
    nominal="u_nom = 0.0\n",
    barrier="h, lf_h, lg_h = terms.get(y, (1.0, 0.0, 0.0))\n",
    field=("dx.get(y, 0.0)", "y + w + dy.get(y, 0.0)"),
)
TERMS = ("h", "lf_h", "lg_h")


def _stage_ys(y0):
    """y at stages 1 to 4 of the first step, and at the second row."""
    y2 = y0 + HALF * y0
    y3 = y0 + HALF * y2
    y4 = y0 + DT * y3
    return {"stage 1": y0, "stage 2": y2, "stage 3": y3, "stage 4": y4,
            "row": y0 + DT / 6.0 * (y0 + 2.0 * y2 + 2.0 * y3 + y4)}


def _run(x0, terms, dx, dy):
    """Two rows through the probe's generated ``run``: the rows logged, the
    log (x, y, u_nom, u, h per row), the state after them and the error."""
    record = plants._record(_PROBE, dict(terms=terms, dx=dx, dy=dy), 1.0, "cbf", None)
    log = tuple([None, None] for _ in range(5))
    zeros = [0.0, 0.0]
    rows, x, err = record.run(x0, [0.0, DT], DT, [None] * 2, zeros, [None] * 2, zeros,
                              [None] * 2, zeros, 2, 1, log, {})
    return rows, [list(column[:rows]) for column in log], x, err


def _reference(x0, terms, dx, dy):
    """The same two rows through ``sim.rk4_step`` and a controller that tests
    each barrier term."""
    def checked_h(xs):
        h, lf_h, lg_h = terms.get(xs[1], (1.0, 0.0, 0.0))
        if not all(map(math.isfinite, (h, lf_h, lg_h))):
            raise ValueError("barrier evaluation entries must be finite")
        return h

    def field(xs, t, w):
        return (dx.get(xs[1], 0.0), xs[1] + w + dy.get(xs[1], 0.0))

    def control(xs, t):
        checked_h(xs)
        return 0.0

    log = [[] for _ in range(5)]
    x = x0
    for k in range(2):
        try:
            h = checked_h(x)
        except ValueError as err:
            return k, log, None, err
        for column, value in zip(log, (*x, 0.0, 0.0, h)):
            column.append(value)
        if k == 1:
            return 2, log, x, None
        try:
            x = rk4_step(field, control, lambda t: 0.0, x, k * DT, DT, u0=0.0)
        except (SimulationError, ValueError) as err:
            return 1, log, None, err


def _assert_same(got, expected):
    # repr compares nan, the signs of zeros and infinities exactly
    (rows, log, x, err), (rows_ref, log_ref, x_ref, err_ref) = got, expected
    assert (rows, repr(log), repr(x)) == (rows_ref, repr(log_ref), repr(x_ref))
    assert type(err) is type(err_ref)
    assert str(err) == str(err_ref)
    if isinstance(err, SimulationError):
        assert (err.t, repr(err.state)) == (err_ref.t, repr(err_ref.state))


def _case(where, value, y0=1.0):
    """(x0, terms, dx, dy) that put ``value`` at one check of the two rows:
    "<term> <at>" sets a barrier term at the second row or at stage 2, 3 or
    4 (stage 1's terms are the row's), and "d<state> <stage>" a derivative."""
    ys = _stage_ys(y0)
    terms, dx, dy = {}, {}, {}
    name, at = where.split(" ", 1)
    if name in TERMS:
        terms[ys[at]] = tuple(value if term == name else 0.0 for term in TERMS)
    else:
        (dx if name == "dx" else dy)[ys[at]] = value
    return (0.0, y0), terms, dx, dy


CHECKS = ([f"{term} {at}" for term in TERMS for at in ("row", "stage 2", "stage 3", "stage 4")]
          + [f"d{n} stage {s}" for n in "xy" for s in range(1, 5)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", CHECKS)
def test_one_non_finite_term_raises_the_per_term_error(where, value):
    case = _case(where, value)
    got = _run(*case)
    assert got[3] is not None
    _assert_same(got, _reference(*case))


@pytest.mark.parametrize("where,first,second", [
    # x weighs dx/dt at stages 2 and 3 twice each: 2 BIG + 2 BIG overflows
    # to inf, and 2 BIG - 2 BIG is inf - inf = nan
    ("dx", BIG, BIG), ("dx", BIG, -BIG),
    # y weighs dy/dt = y + MAX at stage 1 once, and the later stages carry
    # it: the weighted sum overflows to +inf, or to -inf from -MAX
    ("dy", MAX, None), ("dy", -MAX, None),
])
def test_one_non_finite_new_state_raises_the_per_term_error(where, first, second):
    x0, terms, dx, dy = _case(f"{where} stage {1 if second is None else 2}", first)
    if second is not None:
        dx[_stage_ys(1.0)["stage 3"]] = second
    got = _run(x0, terms, dx, dy)
    assert isinstance(got[3], SimulationError) and "non-finite state" in str(got[3])
    _assert_same(got, _reference(x0, terms, dx, dy))


def test_barrier_terms_that_overflow_only_in_the_sum_pass():
    # h + lf_h + lg_h is inf at the row and at every stage: h and lf_h are BIG
    terms = {y: (BIG, BIG, 0.0) for y in _stage_ys(1.0).values()}
    x0 = (0.0, 1.0)
    assert not math.isfinite(BIG + BIG)
    got = _run(x0, terms, {}, {})
    assert got[0] == 2 and got[3] is None
    _assert_same(got, _reference(x0, terms, {}, {}))
    # the record's other functions run the same check
    record = plants._record(_PROBE, dict(terms=terms, dx={}, dy={}), 1.0, "cbf", None)
    assert record.barrier(x0, None) == (BIG, BIG, 0.0)
    assert record.row(x0, None) == (0.0, 0.0, BIG)


@pytest.mark.parametrize("stage", ["stage 1", "stage 4"])
def test_derivatives_that_overflow_only_in_the_sum_pass(stage):
    # dx/dt = MAX at one stage and dy/dt = y >= 2**1020 there: the derivative's
    # sum is inf; stages 2 and 3 share one text with stage 4 and weigh 2 in
    # the new state, where 2 MAX would overflow
    y0 = 2.0 ** 1020
    case = _case(f"dx {stage}", MAX, y0)
    assert not math.isfinite(MAX + _stage_ys(y0)[stage])
    got = _run(*case)
    assert got[0] == 2 and got[3] is None
    _assert_same(got, _reference(*case))


def test_a_new_state_that_overflows_only_in_the_sum_passes():
    # x stays at MAX and y grows from 2**1021 to about 3.7e307: x + y is inf
    y0 = 2.0 ** 1021
    x0 = (MAX, y0)
    got = _run(x0, {}, {}, {})
    x1 = got[2]
    assert got[0] == 2 and got[3] is None and not math.isfinite(x1[0] + x1[1])
    assert x1 == (MAX, _stage_ys(y0)["row"])
    _assert_same(got, _reference(x0, {}, {}, {}))


def test_truck_wrappers_sum_floats_where_given_numpy_scalars():
    # h = 1.7e308 and lf_h = 5e307 overflow in their sum; numpy scalars would
    # warn there, so the wrappers hand the records floats
    p = TruckParams()
    x = (1.7e308, 0.0, 0.0)
    a_l = np.float64(-0.5e308 / p.c2)
    expected = truck_record(p).barrier(x, float(a_l))
    assert not math.isfinite(sum(expected))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        be = truck_barrier(p, a_l)(np.array(x))
        state = tuple(map(np.float64, x))
        u = truck_safe_filter(p, *state, a_l)
        u_robust = truck_robust_filter(p, *state, a_l, 0.5, 0.4)
    assert (be.h, be.lf_h, float(be.lg_h[0])) == expected
    assert u == truck_record(p, "cbf").row(x, float(a_l))[1] == 8.0
    assert u_robust == 8.0

