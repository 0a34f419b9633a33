"""Safety filter for undisturbed plants.

Minimally modifies a nominal controller so the barrier constraint
``hdot(x, u) >= -alpha(h(x))`` holds pointwise.  The projection onto that
half-space has a closed form, so no QP solver is involved; for single-input
plants an equivalent min/max switching form is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import BarrierEvaluation, ClassKappaE, DimensionError

__all__ = ["ADMISSIBLE_SLACK", "LG_ZERO_TOL", "CbfFilter", "filter_gain"]

# ||lg_h|| at or below this is treated as exactly zero.  The filter is
# continuous across the singularity, so the threshold only guards the
# floating-point division; it is far below any reachable magnitude here.
LG_ZERO_TOL = 1e-12

# Filtered inputs land on the constraint boundary up to rounding, so
# admissibility checks carry a small slack, scaled with the magnitude of the
# quantities compared.
ADMISSIBLE_SLACK = 1e-9


_LG_ZERO_TOL_SQ = LG_ZERO_TOL * LG_ZERO_TOL


def filter_gain(
    s: float,
    residual: float,
    h: float,
    epsilon: Optional[Callable[[float], float]] = None,
) -> float:
    """Gain of the correction along lg_h: the one formula every filter applies.

    ``s`` is ||lg_h||^2 and ``residual`` is lf_h + lg_h . u_nom + alpha(h), the
    barrier constraint at the nominal input.  The plain gain is -residual / s;
    a robustness gain ``epsilon`` adds 1/eps(h).  The gain is zero on the
    lg_h = 0 set, and a filter corrects u_nom only where it is positive.

    1/eps(h) takes its limits where eps(h) leaves the float range: 0 where it
    overflows, far inside the safe set, and inf where it underflows to 0, far
    outside it.  An infinite gain gives an infinite input, which the
    simulator rejects as a non-finite derivative.
    """
    if s <= _LG_ZERO_TOL_SQ:
        return 0.0
    gain = -residual / s
    if epsilon is None:
        return gain
    try:
        eps = epsilon(h)
    except OverflowError:
        return gain
    return gain + (1.0 / eps if eps > 0.0 else math.inf)


def _filter_terms(barrier, nominal, alpha, x, epsilon=None):
    """Barrier evaluation, nominal input and correction gain at state x."""
    be = barrier(x)
    u_nom = np.atleast_1d(np.asarray(nominal(x), dtype=float))
    residual = be.lf_h + float(be.lg_h @ u_nom) + alpha(be.h)
    return be, u_nom, filter_gain(float(be.lg_h @ be.lg_h), residual, be.h, epsilon)


@dataclass(frozen=True)
class CbfFilter:
    """Closed-form safety filter around a nominal controller.

    ``barrier`` maps a state to a :class:`BarrierEvaluation`; ``nominal`` maps
    a state to an input vector.  Both are fixed for the filter's lifetime and
    must be pure, which makes the filter safe to evaluate concurrently.
    """

    barrier: Callable[[np.ndarray], BarrierEvaluation]
    alpha: ClassKappaE
    nominal: Callable[[np.ndarray], np.ndarray]

    def in_admissible_set(self, x, u, tol: float = ADMISSIBLE_SLACK) -> bool:
        """Whether input u satisfies the barrier constraint at state x."""
        be = self.barrier(x)
        rate = be.hdot(u)
        floor = -self.alpha(be.h)
        return rate >= floor - tol * max(1.0, abs(rate), abs(floor))

    def correction_gain(self, x) -> float:
        """Unclipped gain of the correction along lg_h.

        Positive exactly when the nominal input violates the constraint;
        zero on the lg_h = 0 set.
        """
        return _filter_terms(self.barrier, self.nominal, self.alpha, x)[2]

    def filter(self, x) -> np.ndarray:
        """Admissible input closest to the nominal one (2-norm)."""
        be, u_nom, gain = _filter_terms(self.barrier, self.nominal, self.alpha, x)
        if gain <= 0.0:
            return u_nom
        return u_nom + gain * be.lg_h

    def filter_switching(self, x) -> float:
        """Single-input min/max form; agrees with filter() to well under 1e-10.

        For lg_h > 0 the safe input is a lower bound (max), for lg_h < 0 an
        upper bound (min); on lg_h = 0 the nominal input passes through.
        """
        be = self.barrier(x)
        if be.lg_h.shape[0] != 1:
            raise DimensionError(
                f"switching form needs a single-input plant, got m={be.lg_h.shape[0]}"
            )
        u_nom = float(np.atleast_1d(np.asarray(self.nominal(x), dtype=float))[0])
        lg = float(be.lg_h[0])
        if abs(lg) <= LG_ZERO_TOL:
            return u_nom
        u_safe = -(be.lf_h + self.alpha(be.h)) / lg
        return max(u_nom, u_safe) if lg > 0.0 else min(u_nom, u_safe)
