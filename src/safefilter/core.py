"""Shared control-affine abstractions: dynamics, the linear class-K function,
barrier evaluations, and the error a closed-loop integration raises.

Everything here is immutable after construction and side-effect free, so filters
and simulators can evaluate these objects from any number of callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BarrierEvaluation",
    "ClassKappaE",
    "ControlAffineDynamics",
    "DimensionError",
    "SignalDomainError",
    "SimulationError",
    "linear_class_kappa",
    "shown",
    "state_vector",
]


class DimensionError(ValueError):
    """A vector has the wrong length for the requested operation."""


class SignalDomainError(ValueError):
    """A time signal was queried outside its domain of definition."""


class SimulationError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state

    @classmethod
    def non_finite(cls, what: str, t: float, x: tuple) -> "SimulationError":
        """The error for a non-finite ``what`` (derivative or state) at time
        ``t``, where ``x`` is the RK4 stage state it was evaluated at."""
        return cls(f"non-finite {what} at t={t:g}, state={x!r}", t=t, state=x)


def shown(value) -> str:
    """A value as an error message shows it: its repr, except that an integer
    too long for repr (Python limits int-to-str conversion to about 4300
    digits) is shown by its number of digits."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            n = abs(value)
            # a lower bound on floor(log10 n) from the bit length, then exact
            digits = max(int((n.bit_length() - 1) * 0.30102999566398120) - 1, 0)
            while 10 ** (digits + 1) <= n:
                digits += 1
            return f"an integer of {digits + 1} digits"
        return f"a {type(value).__name__} holding an integer too long to show"


def state_vector(values, dim: int) -> np.ndarray:
    """Validate a plant state: 1-d, finite, of dimension ``dim``."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"state must be a 1-d vector, got shape {x.shape}")
    if x.shape[0] != dim:
        raise DimensionError(f"state must have dimension {dim}, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"state entries must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class ControlAffineDynamics:
    """Plant model  xdot = drift(x, t) + actuation @ u.

    ``drift`` must be a pure function of the state and time; ``actuation`` is
    the constant input matrix, whose shape is the state and input dimensions.
    """

    drift: Callable[[np.ndarray, float], np.ndarray]
    actuation: np.ndarray


@dataclass(frozen=True)
class ClassKappaE:
    """The linear class-K function alpha(r) = alpha_c * r, alpha_c > 0 [1/s]:
    the alpha of both case studies, which gives the filter, h* and the
    pendulum certificate their closed forms."""

    alpha_c: float

    def __post_init__(self):
        if not self.alpha_c > 0:
            raise ValueError(f"alpha_c must be positive, got {self.alpha_c}")

    def __call__(self, r: float) -> float:
        return self.alpha_c * r


def linear_class_kappa(alpha_c: float) -> ClassKappaE:
    """alpha(r) = alpha_c * r with alpha_c > 0 [1/s]."""
    return ClassKappaE(alpha_c)


@dataclass(frozen=True)
class BarrierEvaluation:
    """Barrier value h and its Lie derivatives at one state.

    This triple is the sufficient statistic for every safety filter: the
    barrier rate under input u is ``lf_h + lg_h @ u``.
    """

    h: float
    lf_h: float
    lg_h: np.ndarray  # row vector, shape (m,)

    def __post_init__(self):
        lg = np.array(self.lg_h, dtype=float, ndmin=1)
        object.__setattr__(self, "lg_h", lg)
        # scalar checks: numpy reductions cost more than the m <= 2 entries here
        if not (math.isfinite(self.h) and math.isfinite(self.lf_h)
                and all(map(math.isfinite, lg.ravel().tolist()))):
            raise ValueError("barrier evaluation entries must be finite")

    def hdot(self, u) -> float:
        """Barrier rate along the flow for input u."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != self.lg_h.shape:
            raise DimensionError(
                f"input has shape {u.shape}, expected {self.lg_h.shape}"
            )
        return float(self.lf_h + self.lg_h @ u)
