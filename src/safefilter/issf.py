"""Robust safety filtering under bounded input disturbance.

Strengthening the barrier constraint by ``||lg_h||^2 / eps(h)`` buys
input-to-state safety: for any disturbance with sup-norm bound delta, an
inflated set remains forward invariant.  This module provides the robustness
gain ``eps``, the inflation ``set_inflation`` and the degraded safety level
``solve_h_star``, the root of the fixed-point equation on the inflated
boundary in closed form, through the Lambert W function.  The robust filter
is :class:`safefilter.cbf.CbfFilter` with ``epsilon`` set; ``IssfFilter``
is another name for it.

``solve_h_star_cells`` is ``solve_h_star`` over arrays of (eps0, lam) cells
sharing one delta, the h* table of the ``sweep`` command.  It takes the same
float operations in the same order on every cell: numpy's +, -, * and /
round as Python floats do, and each exp, log and log1p is libm's, through
``math`` per element, because numpy's own differ from libm in the last bit
on some inputs.  Newton runs on the cells not yet converged, each frozen at
the iteration where the scalar loop breaks, so every h* equals the scalar
one bit for bit.  The scalar ``solve_h_star`` stays the path of a single
design: one cell through the kernel's numpy calls costs about 80 us, some
thirty scalar solves (2.3 us each, Python 3.11, numpy 2.4, a 2-CPU Xeon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cbf import CbfFilter
from .core import ClassKappaE

__all__ = ["EpsilonFunction", "IssfFilter", "check_delta", "set_inflation", "solve_h_star",
           "solve_h_star_cells"]


@dataclass(frozen=True)
class EpsilonFunction:
    """Robustness gain eps(r) = eps0 * exp(lam * r).

    eps0 > 0 in plant-specific units, lam >= 0 in 1/(units of h).  lam = 0 is
    the constant gain; lam > 0 demands more robustness deep inside the safe
    set's low-h region and less far from the boundary.  lam < 0 is rejected
    because a decreasing gain voids the robust-invariance guarantee.
    """

    eps0: float
    lam: float = 0.0

    def __post_init__(self):
        if not self.eps0 > 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if not 0 <= self.lam < math.inf:  # eps(0) would be eps0 exp(inf * 0) = nan
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")

    def __call__(self, r: float) -> float:
        return self.eps0 * math.exp(self.lam * r)


def check_delta(delta: float) -> None:
    """The disturbance bound's rule: delta >= 0, which NaN fails."""
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")


def set_inflation(alpha: ClassKappaE, epsilon: EpsilonFunction, h_val: float, delta: float) -> float:
    """How far (in units of h) the invariant set grows under disturbance bound delta.

    Nonnegative, zero iff delta = 0: eps(h) * delta^2 / (4 * alpha_c) for
    alpha(r) = alpha_c * r.
    """
    check_delta(delta)
    return epsilon(h_val) * delta * delta / 4.0 / alpha.alpha_c


def solve_h_star(alpha: ClassKappaE, epsilon: EpsilonFunction, delta: float) -> float:
    """Degraded safety level: the root of  h + set_inflation(h, delta) = 0.

    Trajectories under the robust filter never drop below this barrier value.
    With c = set_inflation(0, delta) = eps0 delta^2 / (4 alpha_c) the equation
    is h + c e^{lam h} = 0, whose root is h* = -W0(lam c) / lam in closed
    form, with W0 the principal branch of the Lambert W function, and h* = -c
    at lam = 0 (-inf where c overflows).

    W0(z), the w >= 0 with w e^w = z, takes Newton's method from log1p(z)
    below z = e and from ln z - ln ln z above; the convergence is quadratic,
    so a step below 1e-10 w leaves an error below the float resolution.
    z e^{-w} is a product, or exp(ln z - w) where z overflows.  Below z = e,
    h* is -c e^{-w}, which equals -w / lam but keeps full precision where
    z = lam c is subnormal, and is -c where z underflows to 0.
    """
    if delta == 0.0:
        return 0.0
    c = set_inflation(alpha, epsilon, 0.0, delta)
    lam = epsilon.lam
    if lam == 0.0:
        return -c
    z = lam * c
    if z < math.e:
        w = math.log1p(z)
    else:
        log_z = math.log(z) if z < math.inf else (
            math.log(0.25 * lam) + math.log(epsilon.eps0) + 2.0 * math.log(delta)
            - math.log(alpha.alpha_c))
        if log_z == math.inf:
            return -math.inf
        w = log_z - math.log(log_z)
    for _ in range(64):
        z_exp = z * math.exp(-w) if z < math.inf else math.exp(log_z - w)
        step = (w - z_exp) / (1.0 + w)
        w -= step
        if abs(step) <= 1e-10 * w:
            break
    return -c * math.exp(-w) if z < math.e else -w / lam


def solve_h_star_cells(alpha: ClassKappaE, eps0, lam, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """``solve_h_star(alpha, EpsilonFunction(eps0[k], lam[k]), delta)`` for every
    cell k of the 1-d arrays ``eps0`` and ``lam``, bit for bit, and the mask of
    the cells where that raises (EpsilonFunction's rule, or a math function
    outside its domain); their h* is nan.  A delta that solve_h_star rejects
    raises its ValueError here.

    For eps0 > 0 and a finite lam >= 0, eps0 exp(lam * 0.0) is eps0 exactly,
    so c is eps0 delta^2 / 4 / alpha_c in set_inflation's order.  Newton's
    z e^{-w} is scale * exp(shift - w) on every cell: z * exp(0.0 - w) where
    z is finite (0.0 - w is -w, or a zero whose exp is 1.0 all the same), and
    1.0 * exp(ln z - w) where z overflows.
    """
    eps0 = np.asarray(eps0, np.float64)
    lam = np.asarray(lam, np.float64)
    failed = ~((eps0 > 0) & (lam >= 0) & (lam < math.inf))  # EpsilonFunction's rule
    if delta == 0.0:
        return np.where(failed, math.nan, 0.0), failed
    check_delta(delta)

    def each(f, x, at):
        """f per element of x through math; where f raises, nan, and the cell
        k[at[n]] of the element is marked failed."""
        values = x.tolist()
        try:
            return np.fromiter(map(f, values), np.float64, len(values))
        except (ValueError, OverflowError):
            out = np.empty(len(values))
            for n, value in enumerate(values):
                try:
                    out[n] = f(value)
                except (ValueError, OverflowError):
                    out[n], failed[k[at[n]]] = math.nan, True
            return out

    # an overflow is an inf that the branches handle as solve_h_star does
    with np.errstate(over="ignore", invalid="ignore"):
        c = eps0 * delta * delta / 4.0 / alpha.alpha_c
        h = -c  # the root at lam = 0
        # the other cells, k of the block, solve h* = -W0(z) / lam
        k = np.flatnonzero(~failed & (lam != 0.0))
        c_k, lam_k = c[k], lam[k]
        z = lam_k * c_k
        # W0(z) from log1p(z) below z = e, from ln z - ln ln z above it
        small = z < math.e
        at_small, at_big = np.flatnonzero(small), np.flatnonzero(~small)
        w = np.empty(len(z))
        w[at_small] = each(math.log1p, z[at_small], at_small)
        log_z = np.empty(len(z))
        log_z[at_big] = each(math.log, z[at_big], at_big)
        over = at_big[~(z[at_big] < math.inf)]  # ln z from its factors where z overflows
        log_z[over] = (each(math.log, 0.25 * lam_k[over], over)
                       + each(math.log, eps0[k[over]], over)
                       + 2.0 * math.log(delta) - math.log(alpha.alpha_c))
        top = at_big[log_z[at_big] == math.inf]  # h* = -inf, without Newton
        at_big = at_big[log_z[at_big] != math.inf]
        w[at_big] = log_z[at_big] - each(math.log, log_z[at_big], at_big)
        shift, scale = np.zeros(len(z)), z.copy()
        shift[over], scale[over] = log_z[over], 1.0

        go = ~failed[k]
        go[top] = False
        at = np.flatnonzero(go)
        w_at, shift, scale = w[at], shift[at], scale[at]
        for _ in range(64):
            step = (w_at - scale * each(math.exp, shift - w_at, at)) / (1.0 + w_at)
            w_at = w_at - step
            going = ~(np.abs(step) <= 1e-10 * w_at)  # the scalar loop's break, per cell
            if not going.all():
                w[at] = w_at
                at, w_at, shift, scale = at[going], w_at[going], shift[going], scale[going]
                if not len(at):
                    break
        w[at] = w_at

        h[k[at_small]] = -c_k[at_small] * each(math.exp, -w[at_small], at_small)
        h[k[at_big]] = -w[at_big] / lam_k[at_big]
        h[k[top]] = -math.inf
    h[failed] = math.nan
    return h, failed


IssfFilter = CbfFilter
