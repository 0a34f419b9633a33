"""Fixed-step closed-loop simulation of the two case studies.

A scenario pins a plant, a controller flavor (nominal / cbf / issf), an input
disturbance d(t), and for the truck the leader's acceleration a_L(t), which
the leader profiles below build; both are ``DisturbanceSignal``s.  Integration is
classical RK4 with the controller evaluated inside every sub-stage
(continuous-time idealization) and time signals sampled at sub-stage times.
Runs are deterministic: identical scenarios produce bit-identical logs.

The engine runs on Python floats: the plants have two or three states and
one input, and numpy's per-call overhead on arrays that small costs more
than the arithmetic.  A state is a tuple of floats.  ``run_scenario`` takes
the plant's :class:`safefilter.plants.PlantRecord` for the scenario's
controller, generated from the one RK4 template in ``plants`` with the
barrier, nominal input and filter formula inlined, and runs every plant and
controller in blocks of ``_SAMPLE_BLOCK_STEPS`` rows.  Per block both time
signals are sampled through their array evaluator, ``sample``, once per
distinct stage time, and one ``run`` call logs the rows (inputs and barrier
value; a row's input channel u + d is RK4 stage 1) and takes each step's four
stages and the truck's clamp.  ``rk4_step`` is the same RK4 step, generic
over a field and a controller of (x, t) on tuples.

Each float goes through the same IEEE operations in the same order as the
numpy filters and dynamics, so the logs match a numpy reference integrator
bit for bit; leaving out the matrix product's terms 0 * w can change only
the sign of a zero.  The samples and the log columns are numpy arrays, the
log preallocated for the whole run.  ``run`` reads the block's times and
samples and writes its rows in place through memoryviews of them, whose
items are Python floats, so no float is copied through a list; the log's d
column is the block's samples at t_k, copied array to array.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import SimulationError, linear_class_kappa, state_vector
from .disturbance import (
    DisturbanceSignal,
    lag_residual,
    read_csv_samples,
    sampled_disturbance,
    zero_disturbance,
)
from .issf import EpsilonFunction, solve_h_star
from .plants import (
    CONTROLLERS,
    PendulumParams,
    TruckParams,
    pendulum_record,
    range_policy_inverse,
    truck_record,
)

__all__ = [
    "MAX_STEPS",
    "Scenario",
    "ScenarioResult",
    "SignalTooShortError",
    "SimulationError",
    "SteadyStateWindowError",
    "constant_speed_profile",
    "hard_brake_profile",
    "leader_profile_from_csv",
    "rk4_step",
    "run_scenario",
    "steady_state_shift",
    "step_count",
    "truck_lag_disturbance",
    "write_csv_table",
]

# Most RK4 steps one run may take.  A truck run logs n_steps + 1 rows of 8
# floats, so the cap bounds a log at about 0.64 GB; the presets take at most
# 12,000 steps, and dt = 1e-5 over 100 s still fits.
MAX_STEPS = 10_000_000

# Rows per block: run_scenario samples the time signals and makes one
# generated ``run`` call per block, so the samples take memory bounded by the
# block rather than by n_steps.
_SAMPLE_BLOCK_STEPS = 1024

# Rows per %-format call in write_csv_table: enough to amortise the call, few
# enough that one block's text stays small next to the table itself.
_CSV_BLOCK_ROWS = 1024

# Step of the reference run behind truck_lag_disturbance: fixed, so the
# synthesized signal does not change with the consuming scenario's dt.
_LAG_REFERENCE_DT = 0.01


class SteadyStateWindowError(ValueError):
    """No qualifying constant-leader-speed window in the trajectory."""


class SignalTooShortError(ValueError):
    """A scenario's disturbance or leader ends before its last logged time."""

    def __init__(self, signal: str, duration: float, t_last: float):
        super().__init__(f"{signal} ends at t={duration:g}, before the last logged "
                         f"time t={t_last:g}")
        self.signal = signal


# ---------------------------------------------------------------------------
# Leader profiles: the leader acceleration a_L(t) as a time signal
# ---------------------------------------------------------------------------


def constant_speed_profile(v0: float, v_bar_l: float = 20.0) -> DisturbanceSignal:
    if not 0.0 <= v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in [0, {v_bar_l}], got {v0}")
    return zero_disturbance()


def hard_brake_profile(
    v0: float,
    t_brake: float,
    a_peak: float,
    duration: float,
    v_bar_l: float = 20.0,
    a_under_l: float = 10.0,
) -> DisturbanceSignal:
    """Constant speed v0 until t_brake, trapezoidal deceleration to standstill.

    ``duration`` is the total braking time; the ramp time follows from the
    requirement that the speed reaches exactly zero:
    ramp = duration - v0/|a_peak|, hold = 2 v0/|a_peak| - duration.
    """
    if not 0.0 < v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in (0, {v_bar_l}], got {v0}")
    if not a_peak < 0.0:
        raise ValueError(f"a_peak must be negative (braking), got {a_peak}")
    if abs(a_peak) > a_under_l:
        raise ValueError(
            f"peak deceleration {abs(a_peak)} exceeds the leader limit {a_under_l}"
        )
    t_min = v0 / abs(a_peak)
    if not t_min - 1e-12 <= duration <= 2.0 * t_min + 1e-12:
        raise ValueError(
            f"duration must lie in [{t_min:g}, {2 * t_min:g}] for the speed to "
            f"reach exactly zero, got {duration}"
        )
    ramp = duration - t_min
    hold = duration - 2.0 * ramp
    t1 = t_brake + ramp            # full deceleration reached
    t2 = t1 + hold                 # ramp-down begins
    t_end = t_brake + duration
    # a rectangle (ramp <= 0) has constant pieces in place of the ramps
    ramp_up = (lambda t: a_peak * (t - t_brake) / ramp) if ramp > 0 else a_peak
    ramp_down = (lambda t: a_peak * (t_end - t) / ramp) if ramp > 0 else 0.0

    def sample(t):
        # disjoint pieces in if-chain order; each is evaluated on its own times only
        off = (t < t_brake) | (t >= t_end)
        up = ~off & (t < t1)
        held = ~off & ~(t < t1) & (t < t2)
        return np.piecewise(t, [off, up, held], [0.0, ramp_up, a_peak, ramp_down])

    return DisturbanceSignal(abs(a_peak), math.inf, sample)


def leader_profile_from_csv(
    path,
    v0: float,
    v_bar_l: float = 20.0,
    a_bounds: tuple[float, float] = (-10.0, 5.0),
) -> DisturbanceSignal:
    """Zero-order-hold leader acceleration from a CSV with header ``t,a_L``.

    Non-finite samples and acceleration samples outside ``a_bounds`` are
    rejected at load; an induced speed outside [0, v_bar_l] only warns (the
    simulator clamps the state).
    """
    t, a = read_csv_samples(path, "a_L")
    signal = sampled_disturbance(t, a)
    if not np.all((a >= a_bounds[0]) & (a <= a_bounds[1])):
        raise ValueError(f"{path}: acceleration samples must lie within {a_bounds}")
    if not 0.0 <= v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in [0, {v_bar_l}], got {v0}")

    # induced speed is piecewise linear under the hold
    v_knots = v0 + np.concatenate(([0.0], np.cumsum(a[:-1] * np.diff(t))))
    if np.any(v_knots < -1e-9) or np.any(v_knots > v_bar_l + 1e-9):
        warnings.warn("induced leader speed leaves [0, v_bar_l]; the simulator will clamp")
    return signal


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------


def rk4_step(
    field: Callable[[tuple, float, float], tuple],
    controller: Callable[[tuple, float], float],
    disturbance: Callable[[float], float],
    x: tuple,
    t: float,
    dt: float,
    u0: Optional[float] = None,
) -> tuple:
    """One classical RK4 step of  xdot = f(x,t) + g(x,t) (k(x,t) + d(t)).

    ``field(x, t, w)`` is the closed-loop derivative f(x,t) + g(x,t) w for the
    scalar input channel w = u + d, returned as a tuple of floats like the
    state.  ``u0``, if given, is the controller output k(x, t) already
    computed by the caller; stage 1 then uses it instead of evaluating the
    controller again.  Every stage derivative and the new state are checked
    to be finite.  The plant records' generated ``run`` writes it out on
    their own floats, with the same stage times, checks and errors.

    The end stage samples time signals just inside the step: piecewise
    signals with breakpoints on the step grid must resolve to the piece
    governing this step, otherwise the integrator loses its order at jumps.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    isfinite = math.isfinite

    def derivative(xs, ts, w):
        k = field(xs, ts, w)
        if not all(map(isfinite, k)):
            raise SimulationError.non_finite("derivative", ts, xs)
        return k

    if u0 is None:
        u0 = controller(x, t)
    half = 0.5 * dt
    t_mid, t_end = t + half, t + dt - 1e-9 * dt
    k1 = derivative(x, t, u0 + disturbance(t))
    x2 = tuple([xi + half * ki for xi, ki in zip(x, k1)])
    u = controller(x2, t_mid)
    # stages 2 and 3 share one sample, taken after stage 2's controller call,
    # so an error from the controller at t + dt/2 surfaces first
    d_mid = disturbance(t_mid)
    k2 = derivative(x2, t_mid, u + d_mid)
    x3 = tuple([xi + half * ki for xi, ki in zip(x, k2)])
    k3 = derivative(x3, t_mid, controller(x3, t_mid) + d_mid)
    x4 = tuple([xi + dt * ki for xi, ki in zip(x, k3)])
    k4 = derivative(x4, t_end, controller(x4, t_end) + disturbance(t_end))
    sixth = dt / 6.0
    x_next = tuple([xi + sixth * (a + 2.0 * b + 2.0 * c + d)
                    for xi, a, b, c, d in zip(x, k1, k2, k3, k4)])
    # finite stages can still overflow in the weighted sum
    if not all(map(isfinite, x_next)):
        raise SimulationError.non_finite("state", t + dt, x_next)
    return x_next


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: plant + controller flavor + disturbance (+ leader)."""

    name: str
    plant: str                      # "pendulum" | "truck"
    controller: str                 # "nominal" | "cbf" | "issf"
    x0: tuple
    horizon: float                  # [s]
    dt: float                       # [s]
    disturbance: DisturbanceSignal
    pendulum: Optional[PendulumParams] = None
    truck: Optional[TruckParams] = None
    leader: Optional[DisturbanceSignal] = None
    epsilon: Optional[EpsilonFunction] = None
    delta: float = 0.0              # declared disturbance bound for the h* report

    def __post_init__(self):
        if self.plant not in ("pendulum", "truck"):
            raise ValueError(f"unknown plant {self.plant!r}")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon >= self.dt):
            raise ValueError(f"horizon must be finite and >= dt, got {self.horizon}")
        if self.plant == "pendulum" and self.pendulum is None:
            raise ValueError("pendulum scenario needs pendulum params")
        if self.plant == "truck" and (self.truck is None or self.leader is None):
            raise ValueError("truck scenario needs truck params and a leader profile")
        if self.controller == "issf" and self.epsilon is None:
            raise ValueError("issf controller needs an epsilon function")
        if not self.delta >= 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        # checked before run_scenario allocates its n_steps + 1 log rows;
        # horizon/dt can overflow to inf, which n_steps cannot floor
        if self.horizon / self.dt > MAX_STEPS + 1 or self.n_steps > MAX_STEPS:
            raise ValueError(f"horizon/dt = {self.horizon / self.dt:.9g} gives more than "
                             f"MAX_STEPS = {MAX_STEPS} steps")
        t_last = self.n_steps * self.dt
        for name, signal in (("disturbance", self.disturbance), ("leader", self.leader)):
            if signal is not None and signal.duration < t_last:
                raise SignalTooShortError(name, signal.duration, t_last)

    @property
    def n_steps(self) -> int:
        """RK4 steps in the run; the last logged time is n_steps * dt."""
        return step_count(self.horizon, self.dt)


@dataclass
class ScenarioResult:
    """Time-indexed closed-loop log plus summary metrics.

    The h column is the barrier value the filter computed at each logged
    state; it equals h(x), so it can always be recomputed from the state log
    alone.
    """

    name: str
    plant: str
    controller: str
    state_labels: tuple
    time: np.ndarray
    states: np.ndarray
    u_nom: np.ndarray
    u_filt: np.ndarray
    d: np.ndarray
    h: np.ndarray
    h_min: float
    h_star: Optional[float]
    clamp_counts: dict

    def to_csv(self, path) -> None:
        """Plot-ready log: t,<state columns>,u_nom,u_filt,d,h at 9 significant digits."""
        header = "t," + ",".join(self.state_labels) + ",u_nom,u_filt,d,h"
        write_csv_table(path, header, self.time, self.states, self.u_nom,
                        self.u_filt, self.d, self.h)


def write_csv_table(path, header: str, *columns: np.ndarray) -> None:
    """Write ``header`` and the rows of float columns side by side as CSV, 9
    significant digits; each of ``columns`` is one column (1-d) or a block of
    them (2-d), all with the same rows.

    Each block of ``_CSV_BLOCK_ROWS`` rows is stacked on its own, so no copy
    of the whole table is made, and written as one bytes ``%``-format over its
    cells to a binary file; ``b"%.9g" % x``, ``"%.9g" % x`` and ``f"{x:.9g}"``
    share CPython's float formatter, so the bytes match a per-cell loop,
    ``nan``, ``inf`` and ``-0`` included.
    """
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([column[start:start + _CSV_BLOCK_ROWS]
                                     for column in columns])
            row_fmt = b",".join([b"%.9g"] * block.shape[1]) + b"\n"
            handle.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def step_count(horizon: float, dt: float) -> int:
    """RK4 steps in a run of ``horizon`` seconds at step ``dt``.

    The 1e-9 keeps a horizon that is a whole number of steps from losing its
    last step to rounding in horizon / dt.
    """
    return int(math.floor(horizon / dt + 1e-9))


def _stage_samples(scn: Scenario, t_rows: np.ndarray, last: bool) -> tuple:
    """The leader acceleration and the disturbance at the stage times of a
    block of logged times, as (rows, 3) arrays: (a, d) at each t_k, at
    t_k + dt/2 and just inside the step's end; a is None for a plant without
    a leader.  ``last`` marks a block that ends with the final row, which
    starts no step; its mid and end entries are nan and never read.

    The times are the floats ``rk4_step`` uses, and they are sampled in the
    order a step-by-step run would query them, so an out-of-domain signal
    reports the same first time.
    """
    dt = scn.dt
    times = np.column_stack([t_rows, t_rows + 0.5 * dt, t_rows + dt - 1e-9 * dt])
    queried = times.ravel()[:-2] if last else times.ravel()

    def sample(signal):
        values = np.full(times.size, np.nan)
        values[:queried.size] = signal.sample(queried)
        return values.reshape(times.shape)

    return None if scn.leader is None else sample(scn.leader), sample(scn.disturbance)


def run_scenario(scn: Scenario) -> ScenarioResult:
    """Integrate a scenario and log (t, state, u_nom, u_filt, d, h) per step."""
    params = scn.pendulum if scn.plant == "pendulum" else scn.truck
    record = pendulum_record if scn.plant == "pendulum" else truck_record
    labels, *_, run, clamped = record(params, scn.controller, scn.epsilon)

    x = tuple(state_vector(scn.x0, dim=len(labels)).tolist())
    dt = scn.dt
    n_steps = scn.n_steps
    time = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, len(labels)))
    u_nom, u_filt, d_log, h_log = np.empty((4, n_steps + 1))
    clamp_counts = dict.fromkeys(clamped, 0)
    no_leader = (itertools.repeat(None),) * 3

    def logged(k, h_star=None):
        # the result of the log up to row k
        return ScenarioResult(
            name=scn.name, plant=scn.plant, controller=scn.controller, state_labels=labels,
            time=time[: k + 1], states=states[: k + 1],
            u_nom=u_nom[: k + 1], u_filt=u_filt[: k + 1],
            d=d_log[: k + 1], h=h_log[: k + 1],
            h_min=float(np.min(h_log[: k + 1])), h_star=h_star,
            clamp_counts=clamp_counts,
        )

    def failed(err, k):
        # the run failed after logging row k: attach the log up to that row,
        # so callers can flush it
        t = float(time[k])
        wrapped = SimulationError(f"scenario {scn.name!r} failed at t={t:g}: {err}",
                                  t=t, state=states[k])
        wrapped.partial = logged(k)
        return wrapped

    for start in range(0, n_steps + 1, _SAMPLE_BLOCK_STEPS):
        stop = min(start + _SAMPLE_BLOCK_STEPS, n_steps + 1)
        a, d = _stage_samples(scn, time[start:stop], stop == n_steps + 1)
        # run reads the samples and writes the log's rows in place, through
        # memoryviews: a buffer's items are Python floats, with no list copy
        a_rows, a_mids, a_ends = no_leader if a is None else map(memoryview, a.T)
        d_rows, d_mids, d_ends = map(memoryview, d.T)
        log = [memoryview(column[start:stop])
               for column in (*states.T, u_nom, u_filt, h_log)]
        rows, x, err = run(x, memoryview(time[start:stop]), dt, a_rows, d_rows, a_mids, d_mids,
                           a_ends, d_ends, stop - start, n_steps - start, log, clamp_counts)
        end = start + rows
        d_log[start:end] = d[:rows, 0]
        if start == 0 and rows and h_log[0] < 0.0:
            warnings.warn(f"scenario {scn.name!r}: initial state is outside the safe set")
        if err is not None:
            # a ValueError is the barrier terms overflowing at a state the run
            # reached; at row 0, that is the caller's initial state
            if end == 0:
                raise err
            raise failed(err, end - 1) from err

    h_star = None
    if scn.controller == "issf":
        h_star = solve_h_star(linear_class_kappa(params.alpha_c), scn.epsilon, scn.delta)
    return logged(n_steps, h_star)


# ---------------------------------------------------------------------------
# Metrics and scenario helpers
# ---------------------------------------------------------------------------


def steady_state_shift(result: ScenarioResult, p: TruckParams, v_star: float) -> float:
    """Shift of the settled following distance against the range-policy target.

    Looks for the first window where the leader holds v_star (|v_L - v*| <=
    0.01 for at least 10 s), averages D over the window's last 5 s, and
    subtracts the range-policy distance for v_star.  Positive values mean the
    controller settles farther away than the cruise policy asks.
    """
    if result.plant != "truck":
        raise ValueError("steady-state shift is defined for truck runs")
    t = result.time
    v_l = result.states[:, 2]
    mask = np.abs(v_l - v_star) <= 0.01
    padded = np.concatenate(([False], mask, [False])).astype(int)
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1  # inclusive
    for s, e in zip(starts, ends):
        if t[e] - t[s] >= 10.0 - 1e-9:
            sel = (t >= t[e] - 5.0 - 1e-9) & (t <= t[e] + 1e-9)
            d_mean = float(np.mean(result.states[sel, 0]))
            return d_mean - range_policy_inverse(p, v_star)
    raise SteadyStateWindowError(
        f"no window with |v_L - {v_star:g}| <= 0.01 lasting 10 s"
    )


def truck_lag_disturbance(
    p: TruckParams,
    leader: DisturbanceSignal,
    x0: tuple,
    horizon: float,
    tau: float = 0.6,
) -> DisturbanceSignal:
    """Synthetic stand-in for the actuation lag seen on the real truck.

    Runs the safety-filtered braking scenario without disturbance, records the
    commanded acceleration, and returns the first-order-lag residual of that
    command, from a reference run at ``_LAG_REFERENCE_DT``.
    """
    reference = run_scenario(
        Scenario(
            name="lag-reference",
            plant="truck",
            controller="cbf",
            x0=tuple(x0),
            horizon=horizon,
            dt=_LAG_REFERENCE_DT,
            disturbance=zero_disturbance(),
            truck=p,
            leader=leader,
        )
    )
    return lag_residual(reference.time, reference.u_filt, tau)
