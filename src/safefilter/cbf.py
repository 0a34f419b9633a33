"""The closed-form safety filter, plain and robust.

Minimally modifies a nominal controller so the barrier constraint
``hdot(x, u) >= -alpha(h(x)) + ||lg_h||^2 / eps(h)`` holds pointwise.  The
projection onto that half-space has a closed form, so no QP solver is
involved.  Without a robustness gain ``eps`` the tightening term is absent
(the eps -> inf limit): that is the plain filter for undisturbed plants.
The formula for one input and a linear alpha is written once, as source
text (``filter_source``): the plant records inline it into every row and
RK4 stage of their loop, and ``filter_function`` compiles it into a float
closure, the one route to a filtered input outside the loop.  ``CbfFilter``
applies that closure to numpy barrier evaluations, and the truck filters to
the truck record's barrier terms and nominal input.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .core import BarrierEvaluation, ClassKappaE, DimensionError

if TYPE_CHECKING:
    from .issf import EpsilonFunction

__all__ = ["LG_ZERO_TOL", "CbfFilter", "filter_bindings", "filter_function", "filter_source"]

# ||lg_h|| at or below this is treated as exactly zero.  The filter is
# continuous across the singularity, so the threshold only guards the
# floating-point division; it is far below any reachable magnitude here.
LG_ZERO_TOL = 1e-12

# The filter formula: it binds the input u from the barrier terms h, lf_h,
# lg_h and the nominal input u_nom, with the robust lines or without them.
_FILTER_SOURCE = """\
s = lg_h * lg_h
if s <= lg_zero_sq:
    u = u_nom
else:
    g = -(lf_h + lg_h * u_nom + alpha_c * h) / s
{robust}    u = u_nom + g * lg_h if g > 0.0 else u_nom
"""
_ROBUST_SOURCE = """\
    try:
        eps = eps0 * exp(lam * h)
    except OverflowError:
        eps = inf  # 1/eps(h) -> 0, which leaves a nonzero g as it is
    g = g + (1.0 / eps if eps > 0.0 else inf)
"""


def filter_source(robust: bool) -> str:
    """The plain or the robust filter formula as source, unindented, reading
    the names :func:`filter_bindings` binds."""
    return _FILTER_SOURCE.format(robust=_ROBUST_SOURCE if robust else "")


def filter_bindings(alpha_c: float, epsilon: Optional[EpsilonFunction] = None) -> dict:
    """The constants :func:`filter_source` reads, for a gain ``epsilon`` or none."""
    names = {"alpha_c": alpha_c, "lg_zero_sq": LG_ZERO_TOL * LG_ZERO_TOL}
    if epsilon is not None:
        names.update(eps0=epsilon.eps0, lam=epsilon.lam, exp=math.exp, inf=math.inf)
    return names


@functools.lru_cache(maxsize=None)
def _apply_code(robust: bool):
    body = textwrap.indent(filter_source(robust), "    ")
    return compile(f"def apply(h, lf_h, lg_h, u_nom):\n{body}    return u\n", "<filter>", "exec")


@functools.lru_cache(maxsize=64)
def filter_function(alpha_c: float, epsilon: Optional[EpsilonFunction] = None
                    ) -> Callable[[float, float, float, float], float]:
    """The filter for one input and alpha(h) = alpha_c h as a float closure
    ``apply(h, lf_h, lg_h, u_nom) -> u``, compiled from :func:`filter_source`.

    The residual lf_h + lg_h u_nom + alpha_c h is the barrier constraint at
    the nominal input, and the gain of the correction along lg_h is
    -residual / lg_h^2; a robustness gain ``epsilon``, eps(h) = eps0
    exp(lam h) as in :class:`safefilter.issf.EpsilonFunction`, adds 1/eps(h).
    ``apply`` returns u_nom + gain lg_h where the gain is positive and u_nom
    elsewhere, also on the lg_h = 0 set.  1/eps(h) is 0 where eps(h)
    overflows, far inside the safe set, and inf far outside it, where eps(h)
    is 0 or subnormal below 1/DBL_MAX (about 5.6e-309) and 1.0 / eps
    overflows; the simulator rejects the infinite input as a non-finite
    derivative.
    """
    namespace = filter_bindings(alpha_c, epsilon)
    exec(_apply_code(epsilon is not None), namespace)
    return namespace["apply"]


@dataclass(frozen=True)
class CbfFilter:
    """Closed-form safety filter around a nominal controller.

    ``barrier`` maps a state to a :class:`BarrierEvaluation`; ``nominal`` maps
    a state to an input vector.  With a robustness gain ``epsilon``, an
    :class:`safefilter.issf.EpsilonFunction`, the constraint is tightened by
    ``||lg_h||^2 / eps(h)``, which buys input-to-state safety under bounded
    input disturbance.  All of them are fixed for the filter's lifetime and
    must be pure, which makes the filter safe to evaluate concurrently.  The
    filter serves one input and applies :func:`filter_function` for the
    linear ``alpha``.
    """

    barrier: Callable[[np.ndarray], BarrierEvaluation]
    alpha: ClassKappaE
    nominal: Callable[[np.ndarray], np.ndarray]
    epsilon: Optional[EpsilonFunction] = None

    def filter(self, x) -> np.ndarray:
        """Admissible input closest to the nominal one, as a 1-element array:
        ``filter_function`` applied to the barrier evaluation at x.  A barrier
        or nominal input of any other size is a :class:`DimensionError`."""
        be = self.barrier(x)
        u_nom = np.atleast_1d(np.asarray(self.nominal(x), dtype=float))
        if be.lg_h.shape != (1,) or u_nom.shape != (1,):
            raise DimensionError(f"the filter serves one input, got lg_h of shape "
                                 f"{be.lg_h.shape} and a nominal input of shape {u_nom.shape}")
        apply = filter_function(self.alpha.alpha_c, self.epsilon)
        return np.array([apply(be.h, be.lf_h, float(be.lg_h[0]), float(u_nom[0]))])
