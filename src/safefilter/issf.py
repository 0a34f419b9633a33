"""Robust safety filtering under bounded input disturbance.

Strengthening the barrier constraint by ``||lg_h||^2 / eps(h)`` buys
input-to-state safety: for any disturbance with sup-norm bound delta, an
inflated set remains forward invariant.  This module provides the robustness
gain ``eps``, the inflation ``set_inflation`` and the degraded safety level
``solve_h_star``, the root of the fixed-point equation on the inflated
boundary in closed form, through the Lambert W function.  The robust filter
is :class:`safefilter.cbf.CbfFilter` with ``epsilon`` set; ``IssfFilter``
is another name for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cbf import CbfFilter
from .core import ClassKappaE

__all__ = ["EpsilonFunction", "IssfFilter", "check_delta", "set_inflation", "solve_h_star"]


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


IssfFilter = CbfFilter
