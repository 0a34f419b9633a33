"""Fixed-step closed-loop simulation of the two case studies.

A scenario pins a plant, a controller flavor (nominal / cbf / issf), an input
disturbance, and for the truck a leader acceleration profile.  Integration is
classical RK4 with the controller evaluated inside every sub-stage
(continuous-time idealization) and time signals sampled at sub-stage times.
Runs are deterministic: identical scenarios produce bit-identical logs.

The engine runs on Python floats, since the plants have two or three states
and one input, and numpy's per-call overhead on arrays that small costs more
than the arithmetic.  A state is a tuple of floats.  ``run_scenario`` builds
the controller's gain closure once per run (``cbf.gain_function``; none for
the nominal controller), takes the plant's
:class:`safefilter.plants.PlantRecord` built with it, and steps every plant
and controller through one loop over it.  The logged row gives a state's
nominal input, applied input and barrier value from one evaluation of the
barrier terms, and its input channel u + d is RK4 stage 1; the record's
fused ``step`` writes out the four stages, and a nominal stage does not
evaluate the barrier.  The time signals (the disturbance and the leader's
acceleration) are sampled once per run, block by block, at the stage times,
so a step evaluates the controller once per stage and the disturbance once
per distinct stage time.  ``rk4_step`` is the same RK4 step, generic over a
field and a controller of (x, t) on tuples.

Each float goes through the same IEEE operations in the same order as the
numpy filters and dynamics, so the logs match a numpy reference integrator
bit for bit; leaving out the matrix product's terms 0 * w can change only
the sign of a zero.  Only the log columns are numpy arrays, preallocated and
filled row by row.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cbf import gain_function
from .core import SignalDomainError, SimulationError, linear_class_kappa, state_vector
from .disturbance import DisturbanceSignal, lag_residual, zero_disturbance
from .issf import EpsilonFunction, solve_h_star
from .plants import (
    PendulumParams,
    TruckParams,
    pendulum_record,
    range_policy_inverse,
    truck_record,
)

__all__ = [
    "LeaderProfile",
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

CONTROLLERS = ("nominal", "cbf", "issf")

# Most RK4 steps one run may take.  A truck run logs n_steps + 1 rows of 8
# floats, so the cap bounds a log at about 0.64 GB; the presets take at most
# 12,000 steps, and dt = 1e-5 over 100 s still fits.
MAX_STEPS = 10_000_000

# Steps per block of stage-time samples: run_scenario samples the disturbance
# and the leader for this many steps at a time, so the samples take memory
# bounded by the block rather than by n_steps.
_SAMPLE_BLOCK_STEPS = 1024

# Rows per %-format call in write_csv_table: enough to amortise the call, few
# enough that one block's text stays small next to the table itself.
_CSV_BLOCK_ROWS = 1024


class SteadyStateWindowError(ValueError):
    """No qualifying constant-leader-speed window in the trajectory."""


class SignalTooShortError(ValueError):
    """A scenario's disturbance or leader ends before its last logged time."""

    def __init__(self, signal: str, duration: float, t_last: float):
        super().__init__(f"{signal} ends at t={duration:g}, before the last logged "
                         f"time t={t_last:g}")
        self.signal = signal


# ---------------------------------------------------------------------------
# Leader profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeaderProfile:
    """Lead-vehicle acceleration signal, starting from speed v0."""

    kind: str
    v0: float
    duration: float
    accel: Callable[[float], float]


def constant_speed_profile(v0: float, v_bar_l: float = 20.0) -> LeaderProfile:
    if not 0.0 <= v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in [0, {v_bar_l}], got {v0}")
    return LeaderProfile("constant", v0, math.inf, lambda t: 0.0)


def hard_brake_profile(
    v0: float,
    t_brake: float,
    a_peak: float,
    duration: float,
    v_bar_l: float = 20.0,
    a_under_l: float = 10.0,
) -> LeaderProfile:
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

    def accel(t):
        if t < t_brake or t >= t_end:
            return 0.0
        if t < t1:
            return a_peak * (t - t_brake) / ramp if ramp > 0 else a_peak
        if t < t2:
            return a_peak
        return a_peak * (t_end - t) / ramp if ramp > 0 else 0.0

    return LeaderProfile("hard_brake", v0, math.inf, accel)


def leader_profile_from_csv(
    path,
    v0: float,
    v_bar_l: float = 20.0,
    a_bounds: tuple[float, float] = (-10.0, 5.0),
) -> LeaderProfile:
    """Zero-order-hold leader acceleration from a CSV with header ``t,a_L``.

    Acceleration samples outside ``a_bounds`` are rejected at load; an induced
    speed outside [0, v_bar_l] only warns (the simulator clamps the state).
    """
    import csv as _csv

    t, a = [], []
    with open(path, newline="") as handle:
        reader = _csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", "a_L"]:
            raise ValueError(f"{path}: expected header 't,a_L', got {header}")
        for row in reader:
            if not row:
                continue
            t.append(float(row[0]))
            a.append(float(row[1]))
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    if t.size < 2 or not np.all(np.diff(t) > 0):
        raise ValueError(f"{path}: need >= 2 strictly increasing sample times")
    if np.any(a < a_bounds[0]) or np.any(a > a_bounds[1]):
        raise ValueError(f"{path}: acceleration samples violate bounds {a_bounds}")
    if not 0.0 <= v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in [0, {v_bar_l}], got {v0}")

    # induced speed is piecewise linear under the hold
    v_knots = v0 + np.concatenate(([0.0], np.cumsum(a[:-1] * np.diff(t))))
    if np.any(v_knots < -1e-9) or np.any(v_knots > v_bar_l + 1e-9):
        warnings.warn("induced leader speed leaves [0, v_bar_l]; the simulator will clamp")
    t0, t1 = float(t[0]), float(t[-1])
    times, accels = t.tolist(), a.tolist()

    def accel(tau):
        if tau < t0 or tau > t1:
            raise SignalDomainError(f"t={tau:g} outside leader profile domain [{t0:g}, {t1:g}]")
        return accels[bisect.bisect_right(times, tau) - 1]

    return LeaderProfile("sampled", v0, t1, accel)


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
    to be finite.  This is the generic tuple RK4 that each plant record's
    fused ``step`` writes out on its own floats, with the same stage times,
    checks and errors.

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
    leader: Optional[LeaderProfile] = None
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
        # checked before run_scenario allocates its n_steps + 1 log rows;
        # horizon/dt can overflow to inf, which n_steps cannot floor
        if self.horizon / self.dt > MAX_STEPS + 1 or self.n_steps > MAX_STEPS:
            raise ValueError(f"horizon/dt = {self.horizon / self.dt:.9g} gives more than "
                             f"MAX_STEPS = {MAX_STEPS} steps")
        t_last = self.n_steps * self.dt
        if self.disturbance.duration < t_last:
            raise SignalTooShortError("disturbance", self.disturbance.duration, t_last)
        if self.leader is not None and self.leader.duration < t_last:
            raise SignalTooShortError("leader", self.leader.duration, t_last)

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
    dt: float
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
        table = np.column_stack([self.time, self.states, self.u_nom,
                                 self.u_filt, self.d, self.h])
        write_csv_table(path, header, table)


def write_csv_table(path, header: str, table: np.ndarray) -> None:
    """Write ``header`` and the rows of a 2-d float table as CSV, 9 significant digits.

    Each block of ``_CSV_BLOCK_ROWS`` rows is one ``%``-format over its cells;
    ``"%.9g" % x`` and ``f"{x:.9g}"`` share CPython's float formatter, so the
    bytes match a per-cell loop, ``nan``, ``inf`` and ``-0`` included.
    """
    row_fmt = ",".join(["%.9g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            handle.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def step_count(horizon: float, dt: float) -> int:
    """RK4 steps in a run of ``horizon`` seconds at step ``dt``.

    The 1e-9 keeps a horizon that is a whole number of steps from losing its
    last step to rounding in horizon / dt.
    """
    return int(math.floor(horizon / dt + 1e-9))


def _logged_row(plant, gain):
    """``row(x, a) -> (u_nom, u, h)`` at a logged state x, with the leader
    acceleration a (None without a leader): the nominal and applied inputs
    and the barrier value, from one evaluation of the barrier terms."""
    terms = plant.terms
    if gain is None:
        def row(x, a):
            h, _, _, u = terms(x, a)
            return u, u, h

        return row

    alpha_c = plant.alpha_c

    def row(x, a):
        h, lf_h, lg_h, u_nom = terms(x, a)
        g = gain(lg_h * lg_h, lf_h + lg_h * u_nom + alpha_c * h, h)
        return u_nom, (u_nom if g <= 0.0 else u_nom + g * lg_h), h

    return row


def _stage_samples(scn: Scenario, t_rows: np.ndarray, last: bool) -> tuple:
    """The leader acceleration and the disturbance at the stage times of a
    block of logged times, as lists: (a, d) at each t_k, at t_k + dt/2 and
    just inside the step's end.  ``last`` marks a block that ends with the
    final row, which starts no step; its mid and end entries are None.

    The times are the floats ``rk4_step`` uses, and they are sampled in the
    order a step-by-step run would query them, so an out-of-domain signal
    reports the same first time.
    """
    dt = scn.dt
    times = np.column_stack([t_rows, t_rows + 0.5 * dt, t_rows + dt - 1e-9 * dt]).ravel()
    if last:
        times = times[:-2]
    if scn.leader is not None:
        accel = scn.leader.accel
        a = [accel(t) for t in times.tolist()]
    else:
        a = [None] * times.size
    d = scn.disturbance.sample(times).tolist()
    if last:
        a += [None, None]
        d += [None, None]
    return a[0::3], d[0::3], a[1::3], d[1::3], a[2::3], d[2::3]


def run_scenario(scn: Scenario) -> ScenarioResult:
    """Integrate a scenario and log (t, state, u_nom, u_filt, d, h) per step."""
    gain = None
    if scn.controller != "nominal":
        # gain_function by its module-level name, so wrappers of it see every run
        gain = gain_function(scn.epsilon if scn.controller == "issf" else None)
    if scn.plant == "pendulum":
        plant = pendulum_record(scn.pendulum, gain)
    else:
        plant = truck_record(scn.truck, gain)
    row = _logged_row(plant, gain)
    labels, step, clamp = plant.labels, plant.step, plant.clamp

    x = tuple(state_vector(scn.x0, dim=len(labels)).tolist())
    dt = scn.dt
    n_steps = scn.n_steps
    time = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, len(labels)))
    u_nom = np.empty(n_steps + 1)
    u_filt = np.empty(n_steps + 1)
    d_log = np.empty(n_steps + 1)
    h_log = np.empty(n_steps + 1)
    clamp_counts = {label: 0 for label in labels[1:]} if clamp else {}

    def failed(err, k):
        # the step from row k failed: attach the log up to that row, so
        # callers can flush it
        t = float(time[k])
        wrapped = SimulationError(f"scenario {scn.name!r} failed at t={t:g}: {err}",
                                  t=t, state=states[k])
        wrapped.partial = ScenarioResult(
            name=scn.name, plant=scn.plant, controller=scn.controller,
            dt=dt, state_labels=labels,
            time=time[: k + 1], states=states[: k + 1],
            u_nom=u_nom[: k + 1], u_filt=u_filt[: k + 1],
            d=d_log[: k + 1], h=h_log[: k + 1],
            h_min=float(np.min(h_log[: k + 1])), h_star=None,
            clamp_counts=clamp_counts,
        )
        return wrapped

    # a ValueError from a step is the plant's barrier terms overflowing at a
    # state the step reached: the run fails there like on a non-finite
    # derivative
    for start in range(0, n_steps + 1, _SAMPLE_BLOCK_STEPS):
        stop = min(start + _SAMPLE_BLOCK_STEPS, n_steps + 1)
        t_rows = time[start:stop]
        samples = _stage_samples(scn, t_rows, stop == n_steps + 1)
        for k, t, a, d, a_mid, d_mid, a_end, d_end in zip(
                range(start, stop), t_rows.tolist(), *samples):
            try:
                u_nom_k, u, h = row(x, a)
            except ValueError as err:
                if k == 0:
                    raise
                raise failed(err, k - 1) from err
            states[k] = x
            u_nom[k] = u_nom_k
            u_filt[k] = u
            d_log[k] = d
            h_log[k] = h
            if k == 0 and h < 0.0:
                warnings.warn(f"scenario {scn.name!r}: initial state is outside the safe set")
            if k == n_steps:
                # the last row starts no step, so no stage 1 checks its input
                if not math.isfinite(u + d):
                    err = SimulationError.non_finite("input", t, x)
                    raise failed(err, k) from err
                break
            try:
                x = step(x, t, dt, a, u + d, a_mid, d_mid, a_end, d_end)
            except (SimulationError, ValueError) as err:
                raise failed(err, k) from err
            if clamp is not None:
                x = clamp(x, clamp_counts)

    h_star = None
    if scn.controller == "issf":
        h_star = solve_h_star(linear_class_kappa(plant.alpha_c), scn.epsilon, scn.delta)

    return ScenarioResult(
        name=scn.name,
        plant=scn.plant,
        controller=scn.controller,
        dt=dt,
        state_labels=labels,
        time=time,
        states=states,
        u_nom=u_nom,
        u_filt=u_filt,
        d=d_log,
        h=h_log,
        h_min=float(np.min(h_log)),
        h_star=h_star,
        clamp_counts=clamp_counts,
    )


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
    leader: LeaderProfile,
    x0: tuple,
    horizon: float,
    tau: float = 0.6,
    dt_ref: float = 0.01,
) -> DisturbanceSignal:
    """Synthetic stand-in for the actuation lag seen on the real truck.

    Runs the safety-filtered braking scenario without disturbance, records the
    commanded acceleration, and returns the first-order-lag residual of that
    command.  The reference run always uses ``dt_ref`` so the synthesized
    signal does not change when the consuming scenario's step size does.
    """
    reference = run_scenario(
        Scenario(
            name="lag-reference",
            plant="truck",
            controller="cbf",
            x0=tuple(x0),
            horizon=horizon,
            dt=dt_ref,
            disturbance=zero_disturbance(),
            truck=p,
            leader=leader,
        )
    )
    return lag_residual(reference.time, reference.u_filt, tau)
