"""Shared control-affine abstractions: dynamics, class-K functions, barrier
evaluations, and the error a closed-loop integration raises.

Everything here is immutable after construction and side-effect free, so filters
and simulators can evaluate these objects from any number of callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BarrierEvaluation",
    "ClassKappaE",
    "ControlAffineDynamics",
    "DimensionError",
    "SignalDomainError",
    "SimulationError",
    "linear_class_kappa",
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


def state_vector(values, dim: Optional[int] = None) -> np.ndarray:
    """Validate a plant state: 1-d, finite, optionally of a fixed dimension."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"state must be a 1-d vector, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise DimensionError(f"state must have dimension {dim}, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"state entries must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class ControlAffineDynamics:
    """Plant model  xdot = drift(x, t) + actuation(x, t) @ u.

    ``drift`` and ``actuation`` must be pure functions of the state and time.
    """

    drift: Callable[[np.ndarray, float], np.ndarray]
    actuation: Callable[[np.ndarray, float], np.ndarray]
    state_dim: int
    input_dim: int


@dataclass(frozen=True)
class ClassKappaE:
    """Strictly increasing function through the origin, with explicit inverse.

    Only the linear instance ships as a constructor; any forward/inverse pair
    may be injected (monotonicity is checked by sampling in the test suite,
    differentiability of the inverse is the caller's responsibility).
    """

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    label: str = "custom"

    def __call__(self, r: float) -> float:
        return self.forward(r)


def linear_class_kappa(alpha_c: float) -> ClassKappaE:
    """alpha(r) = alpha_c * r with alpha_c > 0 [1/s]."""
    if not alpha_c > 0:
        raise ValueError(f"alpha_c must be positive, got {alpha_c}")
    return ClassKappaE(
        forward=lambda r: alpha_c * r,
        inverse=lambda s: s / alpha_c,
        label=f"linear(alpha_c={alpha_c:g})",
    )


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
