"""Certification that a candidate barrier actually admits safe inputs everywhere.

On the set where lg_h = 0 no input can influence the barrier rate, so
``lf_h + alpha(h) > 0`` must hold there outright.  For the pendulum that set
is a line and the margin has a closed form; for the truck it is checked on a
grid with the worst-case leader acceleration (the margin is affine in a_L, so
interval endpoints are exact).  The grid check is a falsification/confidence
tool, not a proof: reports say "passed on grid", never "certified globally".

Also provides a finite-difference cross-check for hand-written barrier
gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import BarrierEvaluation, ControlAffineDynamics
from .plants import TruckParams, truck_headway

__all__ = [
    "MAX_GRID_CELLS",
    "CertificationReport",
    "certify_pendulum",
    "certify_truck_grid",
    "gradient_consistency",
    "truck_margin_table",
]

# Most cells one scan may evaluate: grid[0] * grid[1] truck grid points, or
# pendulum samples.  A truck certify run (the scan, then its margin table and
# CSV) peaks at about 100 bytes a cell, so the cap bounds one at about 0.4 GB;
# the 500 x 500 grid of the benchmark's design workload is 1/16 of it.
MAX_GRID_CELLS = 4_000_000


def _finite_width(name: str, bounds) -> tuple[float, float]:
    """The float ends of a scan range whose width hi - lo is a finite float:
    np.linspace steps by (hi - lo) / (n - 1), so an overflowing width would
    fill the scan with inf and nan."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if not math.isfinite(hi - lo):  # also false for an infinite or NaN end
        raise ValueError(f"{name} must have finite ends and a finite width hi - lo, "
                         f"got {bounds}")
    return lo, hi


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"{what} gives {cells} cells, more than "
                         f"MAX_GRID_CELLS = {MAX_GRID_CELLS}")


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a worst-case margin scan over the lg_h = 0 set."""

    passed: bool
    min_margin: float
    witness: dict            # state (and worst a_L) achieving the minimum
    grid_spec: dict

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_margin": self.min_margin,
            "witness": self.witness,
            "grid_spec": self.grid_spec,
        }


def certify_pendulum(
    a: float,
    b: float,
    alpha_c: float,
    theta_range: tuple[float, float] = (-np.pi, np.pi),
    samples: int = 2001,
    cross_term: bool = True,
) -> CertificationReport:
    """Analytic margin along the pendulum's lg_h = 0 line.

    With the cross term, the line is thdot = -(b/2a) theta and the margin is
    alpha_c + (3/(4 a^2)) (b/a - alpha_c) theta^2: positive everywhere iff
    alpha_c <= b/a.  Without the cross term the line is thdot = 0 and the
    margin alpha_c (1 - theta^2/a^2) dies at |theta| = a, which is why that
    variant is not a valid barrier.
    """
    if not (a > 0 and b > 0 and alpha_c > 0):
        raise ValueError("a, b and alpha_c must be positive")
    lo, hi = _finite_width("theta_range", theta_range)
    if not lo < hi:
        raise ValueError(f"theta_range must be a finite interval, got {theta_range}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    _check_cells(samples, f"samples = {samples}")

    theta = np.linspace(lo, hi, samples)
    if cross_term:
        margin = alpha_c + (3.0 / (4.0 * a * a)) * (b / a - alpha_c) * theta**2
        rate_condition = alpha_c <= b / a
        line = "theta_dot = -(b/2a) theta"
    else:
        margin = alpha_c * (1.0 - theta**2 / (a * a))
        rate_condition = False  # margin <= 0 at |theta| = a for any alpha
        line = "theta_dot = 0"

    idx = int(np.argmin(margin))
    min_margin = float(margin[idx])
    theta_w = float(theta[idx])
    theta_dot_w = -(b / (2.0 * a)) * theta_w if cross_term else 0.0
    return CertificationReport(
        passed=bool(rate_condition and min_margin > 0.0),
        min_margin=min_margin,
        witness={"theta": theta_w, "theta_dot": theta_dot_w},
        grid_spec={
            "kind": "pendulum-line",
            "line": line,
            "theta_range": [lo, hi],
            "samples": samples,
            "cross_term": cross_term,
        },
    )


def _truck_margin_grid(p, alpha_c, d_range, vl_range, grid, a_l_bounds):
    """Worst-case margin on the (D, v_L) grid; v is implied by lg_h = 0."""
    if p.c3 == 0.0:
        raise ValueError("c3 = 0: lg_h = 0 cannot be solved for v")
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must have at least 2 points per axis, got {grid}")
    _check_cells(nx * ny, f"grid {grid}")
    a_lo, a_hi = float(a_l_bounds[0]), float(a_l_bounds[1])
    if a_lo > a_hi:
        raise ValueError(f"a_l_bounds must be ordered, got {a_l_bounds}")

    d_axis = np.linspace(*_finite_width("d_range", d_range), nx)
    vl_axis = np.linspace(*_finite_width("vl_range", vl_range), ny)
    d_grid, vl_grid = np.meshgrid(d_axis, vl_axis, indexing="ij")

    v0 = -(p.c1 + p.c4 * vl_grid) / (2.0 * p.c3)  # may be unphysical; scan anyway
    base = vl_grid - v0 + alpha_c * (d_grid - truck_headway(p, v0, vl_grid))
    slope = -(p.c2 + p.c4 * v0 + 2.0 * p.c5 * vl_grid)  # d margin / d a_L
    margin = np.minimum(base + slope * a_lo, base + slope * a_hi)
    return d_grid, vl_grid, v0, slope, margin, (a_lo, a_hi)


def certify_truck_grid(
    p: TruckParams,
    alpha_c: float | None = None,
    d_range: tuple[float, float] = (0.0, 100.0),
    vl_range: tuple[float, float] = (0.0, 20.0),
    grid: tuple[int, int] = (200, 200),
    a_l_bounds: tuple[float, float] | None = None,
) -> CertificationReport:
    """Grid check of the headway barrier over the driving envelope.

    The margin v_L - v0 - a_L (c2 + c4 v0 + 2 c5 v_L) + alpha_c (D - rho) is
    affine in a_L, so only the bound endpoints are evaluated; the minimum over
    the grid and both endpoints decides the report.
    """
    alpha_c = p.alpha_c if alpha_c is None else float(alpha_c)
    if alpha_c < 0:
        raise ValueError(f"alpha_c must be nonnegative, got {alpha_c}")
    if a_l_bounds is None:
        a_l_bounds = (-p.a_under_l, p.a_bar_l)
    d_grid, vl_grid, v0, slope, margin, (a_lo, a_hi) = _truck_margin_grid(
        p, alpha_c, d_range, vl_range, grid, a_l_bounds
    )

    i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
    worst_a_l = a_lo if slope[i, j] * a_lo <= slope[i, j] * a_hi else a_hi
    min_margin = float(margin[i, j])
    return CertificationReport(
        passed=bool(min_margin > 0.0),
        min_margin=min_margin,
        witness={
            "D": float(d_grid[i, j]),
            "v": float(v0[i, j]),
            "v_L": float(vl_grid[i, j]),
            "a_L": float(worst_a_l),
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


def truck_margin_table(
    p: TruckParams,
    alpha_c: float | None = None,
    d_range: tuple[float, float] = (0.0, 100.0),
    vl_range: tuple[float, float] = (0.0, 20.0),
    grid: tuple[int, int] = (200, 200),
    a_l_bounds: tuple[float, float] | None = None,
) -> np.ndarray:
    """Full worst-case margin grid as rows (D, v_L, v0, margin) for plotting."""
    alpha_c = p.alpha_c if alpha_c is None else float(alpha_c)
    if a_l_bounds is None:
        a_l_bounds = (-p.a_under_l, p.a_bar_l)
    d_grid, vl_grid, v0, _, margin, _ = _truck_margin_grid(
        p, alpha_c, d_range, vl_range, grid, a_l_bounds
    )
    return np.column_stack([d_grid.ravel(), vl_grid.ravel(), v0.ravel(), margin.ravel()])


def gradient_consistency(
    dynamics: ControlAffineDynamics,
    barrier: Callable[[np.ndarray], BarrierEvaluation],
    x,
    step: float = 1e-6,
    t: float = 0.0,
) -> float:
    """Max relative error of analytic (lf_h, lg_h) against central differences.

    Differences are taken along the frozen drift vector and each actuation
    column; relative error uses an absolute floor of 1 so a constant barrier
    reports exactly 0.  Intended as a test utility: threshold 1e-5 at the
    default step.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=float)
    be = barrier(x)

    def directional(v):
        return (barrier(x + step * v).h - barrier(x - step * v).h) / (2.0 * step)

    def rel_err(analytic, fd):
        return abs(analytic - fd) / max(1.0, abs(analytic))

    errs = [rel_err(be.lf_h, directional(dynamics.drift(x, t)))]
    g_mat = np.atleast_2d(np.asarray(dynamics.actuation(x, t), dtype=float))
    for j in range(dynamics.input_dim):
        errs.append(rel_err(float(be.lg_h[j]), directional(g_mat[:, j])))
    return max(errs)
