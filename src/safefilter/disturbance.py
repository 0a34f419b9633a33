"""Input-channel disturbance signals and empirical bound estimation.

Signals are immutable, piecewise continuous on their domain, and carry the
declared sup-norm bound they were constructed with.  The disturbance always
enters additively on the input: the integrator applies u + d(t).
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import SignalDomainError

__all__ = [
    "DisturbanceSignal",
    "disturbance_from_csv",
    "estimate_sup_norm",
    "heaviside_pulse",
    "lag_residual",
    "sampled_disturbance",
    "zero_disturbance",
]


@dataclass(frozen=True)
class DisturbanceSignal:
    """Scalar disturbance d(t) on [0, duration] with declared bound sup|d| <= bound.

    ``_sample``, if given, evaluates the signal on an array of times; it must
    return the scalar evaluator's values bit for bit.
    """

    kind: str
    bound: float
    duration: float
    _evaluate: Callable[[float], float]
    _sample: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, t: float) -> float:
        return self._evaluate(t)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """d at each entry of the 1-d float array ``times``, as a float array.

        The values equal scalar calls bit for bit.  Out of domain this raises
        the scalar evaluator's SignalDomainError for the first offending time.
        """
        if self._sample is not None:
            return self._sample(times)
        evaluate = self._evaluate
        return np.array([evaluate(t) for t in times.tolist()], dtype=float)


def _domain_check(times: np.ndarray, t0: float, t1: float) -> None:
    """The scalar evaluators' domain error, for the first time outside [t0, t1]."""
    outside = (times < t0) | (times > t1)
    if outside.any():
        tau = float(times[int(np.argmax(outside))])
        raise SignalDomainError(f"t={tau:g} outside sampled domain [{t0:g}, {t1:g}]")


def zero_disturbance(duration: float = math.inf) -> DisturbanceSignal:
    return DisturbanceSignal("zero", 0.0, duration, lambda t: 0.0,
                             lambda times: np.zeros(times.shape))


def heaviside_pulse(m_amp: float) -> DisturbanceSignal:
    """Two-lobe pulse: +M on [0,5), 0 on [5,10), -M on [10,15), 0 afterwards.

    Sup-norm is exactly M and the lobes cancel in integral.  The unit step is
    right-continuous (s(0) = 1), so values at the edges belong to the piece
    that starts there.
    """
    if m_amp < 0:
        raise ValueError(f"amplitude must be nonnegative, got {m_amp}")

    def step(tau):
        return 1.0 if tau >= 0.0 else 0.0

    def evaluate(t):
        return m_amp * (1.0 - step(t - 5.0) - step(t - 10.0) + step(t - 15.0))

    return DisturbanceSignal("heaviside_pulse", m_amp, math.inf, evaluate)


def _check_samples(t, d):
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    if t.ndim != 1 or t.shape != d.shape or t.size < 2:
        raise ValueError("need matching 1-d time/value arrays with at least 2 samples")
    if not np.all(np.diff(t) > 0):
        raise ValueError("sample times must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(d))):
        raise ValueError("samples must be finite")
    return t, d


def sampled_disturbance(t, d) -> DisturbanceSignal:
    """Zero-order hold of recorded samples; right-continuous at sample times.

    The hold keeps the declared bound max|d| exact between samples.
    """
    t, d = _check_samples(t, d)
    t0, t1 = float(t[0]), float(t[-1])
    # plain lists: bisect on floats is the same search as np.searchsorted
    # without the array-call overhead on every evaluation
    times, values = t.tolist(), d.tolist()

    def evaluate(tau):
        if tau < t0 or tau > t1:
            raise SignalDomainError(f"t={tau:g} outside sampled domain [{t0:g}, {t1:g}]")
        return values[bisect.bisect_right(times, tau) - 1]

    def sample(taus):
        _domain_check(taus, t0, t1)
        # side="right" is bisect_right: a breakpoint starts its own piece
        return d[np.searchsorted(t, taus, side="right") - 1]

    return DisturbanceSignal("sampled", float(np.max(np.abs(d))), t1, evaluate, sample)


def disturbance_from_csv(path) -> DisturbanceSignal:
    """Load a sampled disturbance from a two-column CSV with header ``t,d``."""
    t, d = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", "d"]:
            raise ValueError(f"{path}: expected header 't,d', got {header}")
        for row in reader:
            if not row:
                continue
            t.append(float(row[0]))
            d.append(float(row[1]))
    return sampled_disturbance(t, d)


def lag_residual(t, u, time_constant: float) -> DisturbanceSignal:
    """Residual between a commanded signal and its first-order lag.

    Models actuation that tracks the command with time constant tau: the lag
    state solves tau * xdot = u - x from x(0) = u(0), and d = x - u.  The lag
    is propagated exactly for a zero-order-held command; the residual is then
    interpolated linearly, which stays within the declared bound max|d|.
    """
    if not time_constant > 0:
        raise ValueError(f"time_constant must be positive, got {time_constant}")
    t, u = _check_samples(t, u)
    lagged = np.empty_like(u)
    lagged[0] = u[0]
    for k in range(t.size - 1):
        decay = math.exp(-(t[k + 1] - t[k]) / time_constant)
        lagged[k + 1] = u[k] + (lagged[k] - u[k]) * decay
    d = lagged - u
    t0, t1 = float(t[0]), float(t[-1])

    def evaluate(tau):
        if tau < t0 or tau > t1:
            raise SignalDomainError(f"t={tau:g} outside sampled domain [{t0:g}, {t1:g}]")
        return float(np.interp(tau, t, d))

    def sample(taus):
        _domain_check(taus, t0, t1)
        # np.interp runs the same loop for one time as for many
        return np.interp(taus, t, d)

    return DisturbanceSignal("lag_residual", float(np.max(np.abs(d))), t1, evaluate, sample)


def estimate_sup_norm(t_cmd, u_cmd, t_meas, a_meas) -> float:
    """Empirical worst-case disturbance: max |measured accel - commanded accel|.

    Both records are linearly interpolated onto the union of their sample
    times over the overlapping window.  No smoothing is applied.
    """
    t_cmd, u_cmd = _check_samples(t_cmd, u_cmd)
    t_meas, a_meas = _check_samples(t_meas, a_meas)
    lo = max(t_cmd[0], t_meas[0])
    hi = min(t_cmd[-1], t_meas[-1])
    if lo > hi:
        raise ValueError(
            f"records do not overlap: [{t_cmd[0]:g}, {t_cmd[-1]:g}] vs "
            f"[{t_meas[0]:g}, {t_meas[-1]:g}]"
        )
    grid = np.union1d(t_cmd, t_meas)
    grid = grid[(grid >= lo) & (grid <= hi)]
    diff = np.interp(grid, t_meas, a_meas) - np.interp(grid, t_cmd, u_cmd)
    return float(np.max(np.abs(diff)))
