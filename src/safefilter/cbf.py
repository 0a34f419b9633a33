"""The closed-form safety filter, plain and robust.

Minimally modifies a nominal controller so the barrier constraint
``hdot(x, u) >= -alpha(h(x)) + ||lg_h||^2 / eps(h)`` holds pointwise.  The
projection onto that half-space has a closed form, so no QP solver is
involved.  Without a robustness gain ``eps`` the tightening term is absent
(the eps -> inf limit): that is the plain filter for undisturbed plants.
``gain_function`` builds the one formula as a float closure: the simulator
builds it once per run and the plant records apply it at every RK4 stage;
``filter_gain`` evaluates it at one point for ``CbfFilter``, which applies it
to numpy barrier evaluations, and for the truck's float filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .core import BarrierEvaluation, ClassKappaE

if TYPE_CHECKING:
    from .issf import EpsilonFunction

__all__ = ["LG_ZERO_TOL", "CbfFilter", "filter_gain", "gain_function"]

# ||lg_h|| at or below this is treated as exactly zero.  The filter is
# continuous across the singularity, so the threshold only guards the
# floating-point division; it is far below any reachable magnitude here.
LG_ZERO_TOL = 1e-12

_LG_ZERO_TOL_SQ = LG_ZERO_TOL * LG_ZERO_TOL


def gain_function(epsilon: Optional[EpsilonFunction] = None) -> Callable[[float, float, float], float]:
    """The gain of the correction along lg_h as a float closure
    ``gain(s, residual, h)``: the one formula every filter applies.

    ``s`` is ||lg_h||^2 and ``residual`` is lf_h + lg_h . u_nom + alpha(h), the
    barrier constraint at the nominal input.  The plain gain is -residual / s;
    a robustness gain ``epsilon``, eps(h) = eps0 exp(lam h) as in
    :class:`safefilter.issf.EpsilonFunction`, adds 1/eps(h).  The gain is zero
    on the lg_h = 0 set, and a filter corrects u_nom only where it is positive.

    1/eps(h) takes its limits where eps(h) leaves the float range: 0 where it
    overflows, far inside the safe set, and inf where it underflows to 0, far
    outside it.  An infinite gain gives an infinite input, which the
    simulator rejects as a non-finite derivative.

    The closure is built once per run, with eps0, lam and ``math.exp`` bound,
    because the simulator applies it at every RK4 stage.
    """
    robust = epsilon is not None
    eps0, lam = (epsilon.eps0, epsilon.lam) if robust else (None, None)
    exp, inf, lg_zero_sq = math.exp, math.inf, _LG_ZERO_TOL_SQ

    def gain(s, residual, h):
        if s <= lg_zero_sq:
            return 0.0
        g = -residual / s
        if not robust:
            return g
        try:
            eps = eps0 * exp(lam * h)
        except OverflowError:
            return g
        return g + (1.0 / eps if eps > 0.0 else inf)

    return gain


def filter_gain(s: float, residual: float, h: float,
                epsilon: Optional[EpsilonFunction] = None) -> float:
    """``gain_function(epsilon)(s, residual, h)``: the gain at one point."""
    return gain_function(epsilon)(s, residual, h)


@dataclass(frozen=True)
class CbfFilter:
    """Closed-form safety filter around a nominal controller.

    ``barrier`` maps a state to a :class:`BarrierEvaluation`; ``nominal`` maps
    a state to an input vector.  With a robustness gain ``epsilon``, an
    :class:`safefilter.issf.EpsilonFunction`, the constraint is tightened by
    ``||lg_h||^2 / eps(h)``, which buys input-to-state safety under bounded
    input disturbance.  All of them are fixed for the filter's lifetime and
    must be pure, which makes the filter safe to evaluate concurrently.
    """

    barrier: Callable[[np.ndarray], BarrierEvaluation]
    alpha: ClassKappaE
    nominal: Callable[[np.ndarray], np.ndarray]
    epsilon: Optional[EpsilonFunction] = None

    def filter(self, x) -> np.ndarray:
        """Admissible input closest to the nominal one (2-norm)."""
        be = self.barrier(x)
        u_nom = np.atleast_1d(np.asarray(self.nominal(x), dtype=float))
        residual = be.lf_h + float(be.lg_h @ u_nom) + self.alpha(be.h)
        gain = filter_gain(float(be.lg_h @ be.lg_h), residual, be.h, self.epsilon)
        if gain <= 0.0:
            return u_nom
        return u_nom + gain * be.lg_h
