"""The closed-form safety filter, plain and robust.

Minimally modifies a nominal controller so the barrier constraint
``hdot(x, u) >= -alpha(h(x)) + ||lg_h||^2 / eps(h)`` holds pointwise.  The
projection onto that half-space has a closed form, so no QP solver is
involved.  Without a robustness gain ``eps`` the tightening term is absent
(the eps -> inf limit): that is the plain filter for undisturbed plants.
``filter_gain`` is the one formula; ``CbfFilter`` applies it to numpy
barrier evaluations, and the simulator and the truck filters apply it to
float closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import BarrierEvaluation, ClassKappaE

__all__ = ["LG_ZERO_TOL", "CbfFilter", "filter_gain"]

# ||lg_h|| at or below this is treated as exactly zero.  The filter is
# continuous across the singularity, so the threshold only guards the
# floating-point division; it is far below any reachable magnitude here.
LG_ZERO_TOL = 1e-12

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


@dataclass(frozen=True)
class CbfFilter:
    """Closed-form safety filter around a nominal controller.

    ``barrier`` maps a state to a :class:`BarrierEvaluation`; ``nominal`` maps
    a state to an input vector.  With a robustness gain ``epsilon`` (see
    :class:`safefilter.issf.EpsilonFunction`) the constraint is tightened by
    ``||lg_h||^2 / eps(h)``, which buys input-to-state safety under bounded
    input disturbance.  All of them are fixed for the filter's lifetime and
    must be pure, which makes the filter safe to evaluate concurrently.
    """

    barrier: Callable[[np.ndarray], BarrierEvaluation]
    alpha: ClassKappaE
    nominal: Callable[[np.ndarray], np.ndarray]
    epsilon: Optional[Callable[[float], float]] = None

    def filter(self, x) -> np.ndarray:
        """Admissible input closest to the nominal one (2-norm)."""
        be = self.barrier(x)
        u_nom = np.atleast_1d(np.asarray(self.nominal(x), dtype=float))
        residual = be.lf_h + float(be.lg_h @ u_nom) + self.alpha(be.h)
        gain = filter_gain(float(be.lg_h @ be.lg_h), residual, be.h, self.epsilon)
        if gain <= 0.0:
            return u_nom
        return u_nom + gain * be.lg_h
