"""Robust safety filtering under bounded input disturbance.

Strengthening the barrier constraint by ``||lg_h||^2 / eps(h)`` buys
input-to-state safety: for any disturbance with sup-norm bound delta, an
inflated set remains forward invariant.  This module provides the robustness
gain ``eps``, the inflation ``set_inflation``, the degraded safety level
``h_star`` solving the fixed-point equation on the inflated boundary, and the
closed-form robust filter with its single-input switching form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cbf import ADMISSIBLE_SLACK, LG_ZERO_TOL, _filter_terms
from .core import BarrierEvaluation, ClassKappaE, DimensionError

__all__ = [
    "EpsilonFunction",
    "IssfFilter",
    "RootBracketError",
    "in_inflated_set",
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


def in_inflated_set(alpha: ClassKappaE, epsilon: EpsilonFunction, h_val: float, delta: float) -> bool:
    """Membership in the inflated safe set: h + set_inflation(h, delta) >= 0."""
    return h_val + set_inflation(alpha, epsilon, h_val, delta) >= 0.0


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


@dataclass(frozen=True)
class IssfFilter:
    """Closed-form robust safety filter.

    Same structure as :class:`safefilter.cbf.CbfFilter` with the constraint
    tightened by ``||lg_h||^2 / eps(h)``; the correction gain gains a
    ``1/eps(h)`` term.  As eps -> inf the plain filter is recovered.
    """

    barrier: Callable[[np.ndarray], BarrierEvaluation]
    alpha: ClassKappaE
    nominal: Callable[[np.ndarray], np.ndarray]
    epsilon: EpsilonFunction

    def in_admissible_set(self, x, u, tol: float = ADMISSIBLE_SLACK) -> bool:
        """Whether input u satisfies the tightened barrier constraint at x."""
        be = self.barrier(x)
        s = float(be.lg_h @ be.lg_h)
        rate = be.hdot(u)
        floor = -self.alpha(be.h) + s / self.epsilon(be.h)
        return rate >= floor - tol * max(1.0, abs(rate), abs(floor))

    def correction_gain(self, x) -> float:
        """Unclipped robust correction gain; zero on the lg_h = 0 set."""
        return _filter_terms(self.barrier, self.nominal, self.alpha, x, self.epsilon)[2]

    def filter(self, x) -> np.ndarray:
        """Input closest to the nominal one among the robustly admissible set."""
        be, u_nom, gain = _filter_terms(self.barrier, self.nominal, self.alpha, x,
                                        self.epsilon)
        if gain <= 0.0:
            return u_nom
        return u_nom + gain * be.lg_h

    def filter_switching(self, x) -> float:
        """Single-input min/max form; agrees with filter() to well under 1e-10."""
        be = self.barrier(x)
        if be.lg_h.shape[0] != 1:
            raise DimensionError(
                f"switching form needs a single-input plant, got m={be.lg_h.shape[0]}"
            )
        u_nom = float(np.atleast_1d(np.asarray(self.nominal(x), dtype=float))[0])
        lg = float(be.lg_h[0])
        if abs(lg) <= LG_ZERO_TOL:
            return u_nom
        u_safe = -(be.lf_h + self.alpha(be.h)) / lg + lg / self.epsilon(be.h)
        return max(u_nom, u_safe) if lg > 0.0 else min(u_nom, u_safe)
