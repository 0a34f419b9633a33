"""Robust safety filtering under bounded input disturbance.

Strengthening the barrier constraint by ``||lg_h||^2 / eps(h)`` buys
input-to-state safety: for any disturbance with sup-norm bound delta, an
inflated set remains forward invariant.  This module provides the robustness
gain ``eps``, the inflation ``set_inflation`` and the degraded safety level
``h_star`` solving the fixed-point equation on the inflated boundary.  The
robust filter is :class:`safefilter.cbf.CbfFilter` with ``epsilon`` set;
``IssfFilter`` is another name for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cbf import CbfFilter
from .core import ClassKappaE

__all__ = [
    "EpsilonFunction",
    "IssfFilter",
    "RootBracketError",
    "set_inflation",
    "solve_h_star",
]


class RootBracketError(RuntimeError):
    """solve_h_star could not bracket a root in the search interval."""


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
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

    @property
    def kind(self) -> str:
        return "constant" if self.lam == 0 else "exponential"

    def __call__(self, r: float) -> float:
        return self.eps0 * math.exp(self.lam * r)

    def derivative(self, r: float) -> float:
        return self.eps0 * self.lam * math.exp(self.lam * r)


def set_inflation(alpha: ClassKappaE, epsilon: EpsilonFunction, h_val: float, delta: float) -> float:
    """How far (in units of h) the invariant set grows under disturbance bound delta.

    Nonnegative, zero iff delta = 0.  For linear alpha this reduces to
    eps(h) * delta^2 / (4 * alpha_c).
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return -alpha.inverse(-epsilon(h_val) * delta * delta / 4.0)


def solve_h_star(
    alpha: ClassKappaE,
    epsilon: EpsilonFunction,
    delta: float,
    lower: float = -1e6,
    tol: float = 1e-8,
) -> float:
    """Degraded safety level: the root of  h + set_inflation(h, delta) = 0.

    Trajectories under the robust filter never drop below this barrier value.
    Solved by bisection on [lower, 0], run to the floating-point limit; the
    residual is verified against ``tol``.  Bisection is deliberate: it needs
    no derivative and no global monotonicity of the inflation in h.
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return 0.0

    def residual(h):
        return h + set_inflation(alpha, epsilon, h, delta)

    lo, hi = float(lower), 0.0
    if residual(lo) >= 0.0:
        raise RootBracketError(
            f"no sign change on [{lo:g}, 0]: residual({lo:g}) >= 0"
        )
    # residual(0) = set_inflation(0, delta) >= 0, so the root is bracketed.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if residual(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    root = hi if abs(residual(hi)) <= abs(residual(lo)) else lo
    if abs(residual(root)) > tol:
        raise RootBracketError(
            f"bisection stalled: |residual({root:g})| = {abs(residual(root)):g} > {tol:g}"
        )
    return root


IssfFilter = CbfFilter
