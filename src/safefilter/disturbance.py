"""Time signals (input disturbances, leader acceleration) and empirical bound estimation.

Signals are immutable, piecewise continuous on their domain, and carry the
declared sup-norm bound they were constructed with.  Each kind writes its
formula once, on arrays of times.  The disturbance always enters additively
on the input: the integrator applies u + d(t).
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SignalDomainError

__all__ = [
    "DisturbanceSignal",
    "disturbance_from_csv",
    "estimate_sup_norm",
    "heaviside_pulse",
    "lag_residual",
    "open_file",
    "open_utf8",
    "read_csv_samples",
    "sampled_disturbance",
    "unrepresentable_name",
    "zero_disturbance",
]


@dataclass(frozen=True)
class DisturbanceSignal:
    """Scalar signal of time on [start, duration] with declared bound sup|s| <= bound.

    It is the type of both exogenous signals of the simulator: the input
    disturbance d(t) and the truck leader's acceleration a_L(t).  ``sample``, the one
    evaluator, maps a 1-d float array of times to a float array; out of domain
    it raises SignalDomainError for the first offending time.  A scalar call
    evaluates a one-element array.  A signal carries no kind tag: nothing
    dispatches on how it was built.  A recorded signal starts at its first
    sample time; the other kinds start at 0.
    """

    bound: float
    duration: float
    sample: Callable[[np.ndarray], np.ndarray]
    start: float = 0.0

    def __call__(self, t: float) -> float:
        return float(self.sample(np.array([t], dtype=float))[0])


def zero_disturbance() -> DisturbanceSignal:
    return DisturbanceSignal(0.0, math.inf, lambda times: np.zeros(times.shape))


def heaviside_pulse(m_amp: float) -> DisturbanceSignal:
    """Two-lobe pulse: +M on [0,5), 0 on [5,10), -M on [10,15), 0 afterwards.

    Sup-norm is exactly M and the lobes cancel in integral.  The unit step is
    right-continuous (s(0) = 1), so values at the edges belong to the piece
    that starts there.
    """
    if not 0 <= m_amp < math.inf:  # which nan fails
        raise ValueError(f"amplitude must be nonnegative and finite, got {m_amp}")

    def step(tau):
        return np.where(tau >= 0.0, 1.0, 0.0)

    def sample(t):
        return m_amp * (1.0 - step(t - 5.0) - step(t - 10.0) + step(t - 15.0))

    return DisturbanceSignal(m_amp, math.inf, sample)


def _check_samples(t, d):
    # copies: a signal keeps its own samples, never the caller's arrays or
    # the table they may be views of
    t = np.array(t, dtype=float)
    d = np.array(d, dtype=float)
    if t.ndim != 1 or t.shape != d.shape or t.size < 2:
        raise ValueError("need matching 1-d time/value arrays with at least 2 samples")
    if not np.all(np.diff(t) > 0):
        raise ValueError("sample times must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(d))):
        raise ValueError("samples must be finite")
    return t, d


def _recorded(t, values, lookup) -> DisturbanceSignal:
    """The signal of the samples ``values`` at the checked times ``t``, with
    bound max|values| on [t[0], t[-1]]: ``lookup(taus)`` evaluates it at times
    inside that domain, and the first time outside it is a SignalDomainError."""
    t0, t1 = float(t[0]), float(t[-1])

    def sample(taus):
        outside = (taus < t0) | (taus > t1)
        if outside.any():
            tau = float(taus[int(np.argmax(outside))])
            raise SignalDomainError(f"t={tau:g} outside sampled domain [{t0:g}, {t1:g}]")
        return lookup(taus)

    return DisturbanceSignal(float(np.max(np.abs(values))), t1, sample, t0)


def sampled_disturbance(t, d) -> DisturbanceSignal:
    """Zero-order hold of recorded samples; right-continuous at sample times.

    The hold keeps the declared bound max|d| exact between samples.
    """
    t, d = _check_samples(t, d)
    # side="right": a breakpoint starts its own piece
    return _recorded(t, d, lambda taus: d[np.searchsorted(t, taus, side="right") - 1])


def unrepresentable_name(path, action: str) -> OSError:
    """The OSError "cannot <action> '<path>': the file-system encoding
    '<encoding>' cannot represent its name", for the UnicodeEncodeError of a
    name that the encoding cannot represent, a non-ASCII name under an ASCII
    locale, in place of the codec's own message."""
    return OSError(f"cannot {action} '{path}': the file-system encoding "
                   f"'{sys.getfilesystemencoding()}' cannot represent its name")


def open_file(path, mode: str = "r", **kwargs):
    """``open(path, mode, **kwargs)``, with a name that the file-system
    encoding cannot represent as ``unrepresentable_name(path, "open")``."""
    try:
        return open(path, mode, **kwargs)
    except UnicodeEncodeError as err:
        raise unrepresentable_name(path, "open") from err


def open_utf8(path, newline=None):
    """``path`` opened to read as UTF-8 with or without a byte order mark,
    through ``open_file``."""
    return open_file(path, encoding="utf-8-sig", newline=newline)


def read_csv_samples(path, column: str) -> tuple[np.ndarray, np.ndarray]:
    """The time and value columns of a two-column CSV with header ``t,<column>``,
    read as UTF-8 with or without a byte order mark."""
    t, values = [], []
    with open_utf8(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", column]:
            raise ValueError(f"{path}: expected header 't,{column}', got {header}")
        for row in filter(None, reader):  # blank lines hold no sample
            if len(row) != 2:
                raise ValueError(f"{path}: expected 2 fields per row, got {row}")
            t.append(float(row[0]))
            values.append(float(row[1]))
    return np.array(t), np.array(values)


def disturbance_from_csv(path) -> DisturbanceSignal:
    """Load a sampled disturbance from a two-column CSV with header ``t,d``."""
    return sampled_disturbance(*read_csv_samples(path, "d"))


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
    # the recurrence steps on Python floats, read from and written to the
    # arrays through memoryviews: numpy scalars cost more per operation, and a
    # list of floats more memory
    lagged = np.empty_like(u)
    out, times = memoryview(lagged), memoryview(t)
    x = out[0] = float(u[0])
    for k, (t0, t1, u0) in enumerate(zip(times, times[1:], memoryview(u)), start=1):
        x = out[k] = u0 + (x - u0) * math.exp(-(t1 - t0) / time_constant)
    d = lagged - u
    return _recorded(t, d, lambda taus: np.interp(taus, t, d))


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
