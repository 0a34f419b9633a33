"""Certification that a candidate barrier actually admits safe inputs everywhere.

On the set where lg_h = 0 no input can influence the barrier rate, so
``lf_h + alpha(h) > 0`` must hold there outright.  For the pendulum that set
is a line and the margin a quadratic in the angle, so its minimum over the
angle range is exact; for the truck it is checked on a grid with the
worst-case leader acceleration (the margin is affine in a_L, so interval
endpoints are exact).  The truck's grid check is a falsification/confidence
tool, not a proof: reports say "passed on grid", never "certified globally".

Also provides a finite-difference cross-check for hand-written barrier
gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import BarrierEvaluation, ControlAffineDynamics, shown
from .plants import TruckParams, truck_headway

__all__ = [
    "MAX_GRID_CELLS",
    "CertificationReport",
    "certify_pendulum",
    "certify_truck_grid",
    "check_grid",
    "check_range",
    "gradient_consistency",
    "truck_margin_table",
]

# Most cells one scan or h* sweep may evaluate: grid[0] * grid[1] grid points.
# The cap bounds a scan's or a sweep's time and its CSV's size.
MAX_GRID_CELLS = 4_000_000

# Cells of the truck margin grid that one in-place pass of the scan fills and
# hands out: a block of whole rows, at least one.
_SCAN_CELLS = 32_768


def check_range(bounds, name: str, error: type = ValueError) -> tuple[float, float]:
    """The float ends of a certify range whose width hi - lo is a finite
    float: the truck scan steps by (hi - lo) / (n - 1) with np.linspace, so
    an overflowing width would fill it with inf and nan.  A violation, an end
    too large for a float among them, is an ``error`` that calls the range
    ``name``."""
    try:
        lo, hi = float(bounds[0]), float(bounds[1])
    except OverflowError:
        lo = hi = math.inf
    if not math.isfinite(hi - lo):  # also false for an infinite or NaN end
        raise error(f"{name} must have a finite width hi - lo, got {shown(bounds)}")
    return lo, hi


def check_grid(grid, name: str = "grid", error: type = ValueError) -> None:
    """The cell cap of a certify or sweep grid, checked before a scan or a
    sweep allocates anything: at most ``MAX_GRID_CELLS`` cells.  A violation
    is an ``error`` that calls the grid ``name``; an axis below 1 point is
    left to the scan's own check."""
    if min(grid) > 0 and grid[0] * grid[1] > MAX_GRID_CELLS:
        raise error(f"{name} must have at most MAX_GRID_CELLS = {MAX_GRID_CELLS} cells, "
                    f"got {shown(grid[0] * grid[1])}")


def _scan_defaults(p: TruckParams, alpha_c, a_l_bounds) -> tuple:
    """alpha_c as a float and a_l_bounds, each the parameter set's where it is None."""
    return (p.alpha_c if alpha_c is None else float(alpha_c),
            (-p.a_under_l, p.a_bar_l) if a_l_bounds is None else a_l_bounds)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a worst-case margin scan over the lg_h = 0 set.

    The report keeps the minimum and its witness, not the scan: the truck's
    margin table is :func:`truck_margin_table`'s, whose blocks the certify
    command writes to the margin CSV as the report's scan reduces them.
    """

    passed: bool
    min_margin: float
    witness: dict            # state (and worst a_L) achieving the minimum
    grid_spec: dict


def certify_pendulum(
    a: float,
    b: float,
    alpha_c: float,
    theta_range: tuple[float, float] = (-np.pi, np.pi),
    cross_term: bool = True,
) -> CertificationReport:
    """Exact margin along the pendulum's lg_h = 0 line.

    With the cross term, the line is thdot = -(b/2a) theta and the margin is
    alpha_c + (3/(4 a^2)) (b/a - alpha_c) theta^2: positive everywhere iff
    alpha_c <= b/a.  Without the cross term the line is thdot = 0 and the
    margin alpha_c (1 - theta^2/a^2) dies at |theta| = a, which is why that
    variant is not a valid barrier.

    Either margin is a quadratic with its vertex at theta = 0, so its minimum
    over theta_range is at the first of lo, clip(0, lo, hi) and hi that
    attains it.  A margin that overflows at any of them is a ValueError.
    """
    if not (a > 0 and b > 0 and alpha_c > 0):
        raise ValueError("a, b and alpha_c must be positive")
    if not (0.0 < a * a < math.inf and 0.0 < b / a < math.inf):  # as PendulumParams checks
        raise ValueError(f"a*a and b/a must be positive and finite, got {a * a!r}, {b / a!r}")
    lo, hi = check_range(theta_range, "theta_range")
    if not lo < hi:
        raise ValueError(f"theta_range must be a finite interval, got {theta_range}")

    # theta * theta: an overflow gives inf, not an error, as numpy's theta**2
    if cross_term:
        def margin(theta):
            return alpha_c + (3.0 / (4.0 * a * a)) * (b / a - alpha_c) * (theta * theta)
        rate_condition = alpha_c <= b / a
        line = "theta_dot = -(b/2a) theta"
    else:
        def margin(theta):
            return alpha_c * (1.0 - (theta * theta) / (a * a))
        rate_condition = False  # margin <= 0 at |theta| = a for any alpha
        line = "theta_dot = 0"
    candidates = (lo, min(max(0.0, lo), hi), hi)
    margins = [margin(theta) for theta in candidates]
    if not all(map(math.isfinite, margins)):
        raise ValueError(f"the margin overflows on theta_range {theta_range}")

    min_margin = min(margins)
    theta_w = candidates[margins.index(min_margin)] + 0.0  # + 0.0 turns -0.0 into 0.0
    theta_dot_w = -(b / (2.0 * a)) * theta_w + 0.0 if cross_term else 0.0
    return CertificationReport(
        passed=bool(rate_condition and min_margin > 0.0),
        min_margin=min_margin,
        witness={"theta": theta_w, "theta_dot": theta_dot_w},
        grid_spec={
            "kind": "pendulum-line",
            "line": line,
            "theta_range": [lo, hi],
            "cross_term": cross_term,
        },
    )


def truck_margin_table(
    p: TruckParams,
    alpha_c: float | None = None,
    d_range: tuple[float, float] = (0.0, 100.0),
    vl_range: tuple[float, float] = (0.0, 20.0),
    grid: tuple[int, int] = (200, 200),
    a_l_bounds: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """Worst-case margin on the (D, v_L) grid: the axes D (nx,), v_L (ny,) and
    v (ny,), v implied by lg_h = 0, and the margin (nx, ny) at (D[i], v_L[j],
    v[j]) as an iterator over blocks of whole rows, in order: pairs (i, rows i,
    i + 1, ... of the margin).  Each block is a view of one buffer that the
    next block overwrites, so a consumer copies what it keeps.  alpha_c and
    a_l_bounds default to the parameter set's.  The arguments are checked here;
    a margin that overflows is a ValueError from the block that holds it."""
    alpha_c, a_l_bounds = _scan_defaults(p, alpha_c, a_l_bounds)
    if alpha_c < 0:
        raise ValueError(f"alpha_c must be nonnegative, got {alpha_c}")
    if p.c3 == 0.0:
        raise ValueError("c3 = 0: lg_h = 0 cannot be solved for v")
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must have at least 2 points per axis, got {shown(grid)}")
    check_grid((nx, ny))
    a_lo, a_hi = float(a_l_bounds[0]), float(a_l_bounds[1])
    if a_lo > a_hi:
        raise ValueError(f"a_l_bounds must be ordered, got {a_l_bounds}")

    d_axis = np.linspace(*check_range(d_range, "d_range"), nx)
    vl_axis = np.linspace(*check_range(vl_range, "vl_range"), ny)
    with np.errstate(over="ignore", invalid="ignore"):
        v0 = -(p.c1 + p.c4 * vl_axis) / (2.0 * p.c3)  # may be unphysical; scan anyway
    overflow = (f"the margin overflows on the grid of d_range {d_range}, "
                f"vl_range {vl_range} and a_l_bounds {a_l_bounds}")
    return d_axis, vl_axis, v0, _margin_blocks(p, alpha_c, d_axis, vl_axis, v0,
                                               (a_lo, a_hi), overflow)


def _margin_blocks(p, alpha_c, d_axis, vl_axis, v_axis, a_l_bounds, overflow):
    """The blocks of :func:`truck_margin_table`, each filled in place in one
    reused buffer of at most ``_SCAN_CELLS`` cells or one row.

    Each cell takes the operations of base = (v_L - v0) + alpha_c (D - rho)
    and min(base + slope a_lo, base + slope a_hi) in that order.  rho, v_L - v0
    and slope a_L depend on v_L alone: they are computed for each chunk of at
    most ``_SCAN_CELLS`` columns of each block and freed after it.  A finite
    range can overflow the quadratic headway: rejected block by block.  The
    errstate that lets the overflow through is left before each yield, so it
    never reaches the consumer.
    """
    nx, ny = d_axis.size, vl_axis.size
    rows = max(1, _SCAN_CELLS // ny)
    buffer = np.empty((min(rows, nx), ny))
    for i in range(0, nx, rows):
        block = buffer[:nx - i]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(0, ny, _SCAN_CELLS):
                columns = slice(j, j + _SCAN_CELLS)
                _fill_margin(block[:, columns], d_axis[i:i + rows, None], alpha_c,
                             *_column_terms(p, vl_axis[columns], v_axis[columns], *a_l_bounds))
        if not np.isfinite(block).all():
            raise ValueError(overflow)
        yield i, block


def _column_terms(p, vl, v0, a_lo, a_hi):
    """rho, v_L - v0 and the margin's rise slope a_L at each bound, for the
    columns (v_L, v0)."""
    slope = -(p.c2 + p.c4 * v0 + 2.0 * p.c5 * vl)  # d margin / d a_L
    return truck_headway(p, v0, vl), vl - v0, slope * a_lo, slope * a_hi


def _fill_margin(out, d_col, alpha_c, rho, gap, rise_lo, rise_hi):
    """The margin of the cells (d_col, columns) into ``out``, in place: the low
    branch is the only temporary, and np.minimum keeps its argument order, so
    ties of +0.0 and -0.0 resolve as in min(base + rise_lo, base + rise_hi)."""
    np.subtract(d_col, rho, out=out)
    out *= alpha_c
    np.add(gap, out, out=out)
    low = out + rise_lo
    out += rise_hi
    np.minimum(low, out, out=out)


def certify_truck_grid(
    p: TruckParams,
    alpha_c: float | None = None,
    d_range: tuple[float, float] = (0.0, 100.0),
    vl_range: tuple[float, float] = (0.0, 20.0),
    grid: tuple[int, int] = (200, 200),
    a_l_bounds: tuple[float, float] | None = None,
    sink: Callable | None = None,
) -> CertificationReport:
    """Grid check of the headway barrier over the driving envelope.

    The margin v_L - v0 - a_L (c2 + c4 v0 + 2 c5 v_L) + alpha_c (D - rho) is
    affine in a_L, so only the bound endpoints are evaluated; the minimum over
    the grid and both endpoints decides the report.  The scan is
    :func:`truck_margin_table`, reduced block by block to its first minimum in
    row-major order; no block is kept.  ``sink``, if given, is called with the
    scan's axes and blocks as truck_margin_table returns them, each block
    reduced before the sink sees it, and the blocks it leaves are reduced after
    it returns: the certify command writes the margin CSV from the same scan.
    """
    alpha_c, a_l_bounds = _scan_defaults(p, alpha_c, a_l_bounds)
    d_axis, vl_axis, v_axis, blocks = truck_margin_table(
        p, alpha_c, d_range, vl_range, grid, a_l_bounds)
    ny = vl_axis.size
    min_margin, cell = math.inf, 0  # the first minimum so far, row-major

    def reduced():
        nonlocal min_margin, cell
        for start, block in blocks:
            k = int(block.argmin())  # the block's first minimum, row-major
            if block.flat[k] < min_margin:  # strict: a tie keeps the earlier block's
                min_margin, cell = float(block.flat[k]), start * ny + k
            yield start, block

    scan = reduced()
    if sink is not None:
        sink(d_axis, vl_axis, v_axis, scan)
    for _ in scan:  # the blocks the sink left, or all of them
        pass
    i, j = divmod(cell, ny)
    d_w, vl_w, v_w = map(float, (d_axis[i], vl_axis[j], v_axis[j]))
    a_lo, a_hi = float(a_l_bounds[0]), float(a_l_bounds[1])
    # the scan's a_L rises at the witness, on floats: an overflow gives inf, no warning
    *_, rise_lo, rise_hi = _column_terms(p, vl_w, v_w, a_lo, a_hi)
    return CertificationReport(
        passed=bool(min_margin > 0.0),
        min_margin=min_margin,
        witness={
            "D": d_w,
            "v": v_w,
            "v_L": vl_w,
            "a_L": a_lo if rise_lo <= rise_hi else a_hi,
        },
        grid_spec={
            "kind": "truck-grid",
            "d_range": [float(d_range[0]), float(d_range[1])],
            "vl_range": [float(vl_range[0]), float(vl_range[1])],
            "grid": [int(grid[0]), int(grid[1])],
            "a_l_bounds": [a_lo, a_hi],
            "alpha_c": alpha_c,
        },
    )


def gradient_consistency(
    dynamics: ControlAffineDynamics,
    barrier: Callable[[np.ndarray], BarrierEvaluation],
    x,
) -> float:
    """Max relative error of analytic (lf_h, lg_h) against central differences.

    Differences of step 1e-6 are taken along the drift at t = 0 and each
    column of the input matrix; relative error uses an absolute floor of 1 so
    a constant barrier reports exactly 0.  Intended as a test utility:
    threshold 1e-5.
    """
    step = 1e-6
    x = np.asarray(x, dtype=float)
    be = barrier(x)

    def directional(v):
        return (barrier(x + step * v).h - barrier(x - step * v).h) / (2.0 * step)

    def rel_err(analytic, fd):
        return abs(analytic - fd) / max(1.0, abs(analytic))

    errs = [rel_err(be.lf_h, directional(dynamics.drift(x, 0.0)))]
    for j, column in enumerate(dynamics.actuation.T):
        errs.append(rel_err(float(be.lg_h[j]), directional(column)))
    return max(errs)
