"""Fixed-step closed-loop simulation of the two case studies.

A scenario pins a plant, a controller flavor (nominal / cbf / issf), an input
disturbance, and for the truck a leader acceleration profile.  Integration is
classical RK4 with the controller evaluated inside every sub-stage
(continuous-time idealization) and time signals sampled at sub-stage times.
The logged row at (x, t) is RK4 stage 1: ``run_scenario`` passes its logged
controller output to ``rk4_step`` as ``u0``, so each step evaluates the
controller once per stage and the disturbance once per distinct stage time.
Runs are deterministic: identical scenarios produce bit-identical logs.

The engine runs on Python floats, since the plants have two or three states
and one input, and numpy's per-call overhead on arrays that small costs more
than the arithmetic.  A state is a tuple of floats.  Each plant contributes
float closures (see ``_pendulum_maps`` / ``_truck_maps``): the closed-loop
field f(x,t) + g(x,t) w for the input channel w = u + d, the nominal and
applied inputs, the barrier value and, for the truck, the speed clamp.  The
pendulum's barrier and nominal input are the float cores of ``plants``, and
its filter is the shared ``cbf.filter_gain``.  The truck uses its scalar
filters.  Each float goes through the same IEEE operations in the same order
as the numpy filters and dynamics, so the logs match a numpy reference
integrator bit for bit; leaving out the matrix product's terms 0 * w can
change only the sign of a zero.  Only the log columns are numpy arrays,
preallocated and filled row by row.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cbf import filter_gain
from .core import SignalDomainError, linear_class_kappa, state_vector
from .disturbance import DisturbanceSignal, lag_residual, zero_disturbance
from .issf import EpsilonFunction, solve_h_star
from .plants import (
    PENDULUM_STATE_LABELS,
    TRUCK_STATE_LABELS,
    PendulumParams,
    TruckParams,
    pendulum_barrier_core,
    pendulum_nominal_core,
    range_policy_inverse,
    truck_headway,
    truck_nominal,
    truck_robust_filter,
    truck_safe_filter,
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

# Speeds are clamped at zero (vehicles do not reverse in the braking
# scenarios); only undershoots beyond this are counted as clamp events so the
# integrator's terminal-braking rounding does not show up in the log.
_CLAMP_LOG_TOL = 1e-9

# Most RK4 steps one run may take.  A truck run logs n_steps + 1 rows of 8
# floats, so the cap bounds a log at about 0.64 GB; the presets take at most
# 12,000 steps, and dt = 1e-5 over 100 s still fits.
MAX_STEPS = 10_000_000

# Rows per %-format call in write_csv_table: enough to amortise the call, few
# enough that one block's text stays small next to the table itself.
_CSV_BLOCK_ROWS = 1024


class SimulationError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


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
    """Lead-vehicle acceleration signal with its induced speed."""

    kind: str
    v0: float
    duration: float
    accel: Callable[[float], float]
    speed: Callable[[float], float]


def constant_speed_profile(v0: float, v_bar_l: float = 20.0) -> LeaderProfile:
    if not 0.0 <= v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in [0, {v_bar_l}], got {v0}")
    return LeaderProfile("constant", v0, math.inf, lambda t: 0.0, lambda t: v0)


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

    v_at_t1 = v0 + 0.5 * a_peak * ramp
    v_at_t2 = v_at_t1 + a_peak * hold

    def speed(t):
        if t <= t_brake:
            return v0
        if t >= t_end:
            return 0.0
        if t < t1:
            tau = t - t_brake
            return v0 + 0.5 * a_peak * tau * tau / ramp if ramp > 0 else v0 + a_peak * tau
        if t < t2:
            return v_at_t1 + a_peak * (t - t1)
        tau = t - t2
        return v_at_t2 + a_peak * (tau - 0.5 * tau * tau / ramp) if ramp > 0 else v_at_t2

    return LeaderProfile("hard_brake", v0, math.inf, accel, speed)


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

    def speed(tau):
        if tau < t0 or tau > t1:
            raise SignalDomainError(f"t={tau:g} outside leader profile domain [{t0:g}, {t1:g}]")
        return float(np.interp(tau, t, v_knots))

    return LeaderProfile("sampled", v0, t1, accel, speed)


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------


def _non_finite(what: str, t: float, x: tuple) -> SimulationError:
    return SimulationError(f"non-finite {what} at t={t:g}, state={x!r}", t=t, state=x)


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
    controller again.

    The end stage samples time signals just inside the step: piecewise
    signals with breakpoints on the step grid must resolve to the piece
    governing this step, otherwise the integrator loses its order at jumps.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    isfinite = math.isfinite
    half = 0.5 * dt
    t_mid = t + half
    t_end = t + dt - 1e-9 * dt
    if u0 is None:
        u0 = controller(x, t)
    k1 = field(x, t, u0 + disturbance(t))
    if not all(map(isfinite, k1)):
        raise _non_finite("derivative", t, x)
    x2 = tuple([xi + half * ki for xi, ki in zip(x, k1)])
    u2 = controller(x2, t_mid)
    # stages 2 and 3 share this sample; it is taken after stage 2's controller
    # call, so an error from the controller at t_mid still surfaces first
    d_mid = disturbance(t_mid)
    k2 = field(x2, t_mid, u2 + d_mid)
    if not all(map(isfinite, k2)):
        raise _non_finite("derivative", t_mid, x2)
    x3 = tuple([xi + half * ki for xi, ki in zip(x, k2)])
    k3 = field(x3, t_mid, controller(x3, t_mid) + d_mid)
    if not all(map(isfinite, k3)):
        raise _non_finite("derivative", t_mid, x3)
    x4 = tuple([xi + dt * ki for xi, ki in zip(x, k3)])
    k4 = field(x4, t_end, controller(x4, t_end) + disturbance(t_end))
    if not all(map(isfinite, k4)):
        raise _non_finite("derivative", t_end, x4)
    sixth = dt / 6.0
    x_next = tuple([xi + sixth * (a + 2.0 * b + 2.0 * c + d)
                    for xi, a, b, c, d in zip(x, k1, k2, k3, k4)])
    # finite stages can still overflow in the weighted sum
    if not all(map(isfinite, x_next)):
        raise _non_finite("state", t + dt, x_next)
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
        # checked before run_scenario allocates its n_steps + 1 log rows
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"horizon/dt gives {self.n_steps} steps, more than "
                             f"MAX_STEPS = {MAX_STEPS}")
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

    The h column is the barrier re-evaluated at the logged states, so it can
    always be recomputed from the state log alone.
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


# The maps below give the closed loop on tuples of floats: the field
# f(x, t) + g(x, t) w, the nominal and applied inputs k(x, t), the barrier
# value h(x, t), and the state clamp (or None).


def _pendulum_maps(scn: Scenario):
    p = scn.pendulum
    g_over_l = p.gravity / p.length
    g_entry = 1.0 / (p.mass * p.length * p.length)  # pendulum_dynamics' actuation
    sin = math.sin
    barrier = pendulum_barrier_core(p)
    nominal = pendulum_nominal_core(p)

    def field(x, t, w):
        th, om = x
        return (om, g_over_l * sin(th) + g_entry * w)

    def u_nominal(x, t):
        return nominal(*x)

    if scn.controller == "nominal":
        u_control = u_nominal
    else:
        alpha_c = p.alpha_c
        epsilon = scn.epsilon if scn.controller == "issf" else None

        def u_control(x, t):
            th, om = x
            h, lf_h, lg_h = barrier(th, om)
            u = nominal(th, om)
            # filter_gain by its module-level name, so wrappers of it see every call
            gain = filter_gain(lg_h * lg_h, lf_h + lg_h * u + alpha_c * h, h, epsilon)
            if gain <= 0.0:
                return u
            return u + gain * lg_h

    def h_of(x, t):
        return barrier(*x)[0]

    return field, u_nominal, u_control, h_of, None


def _truck_maps(scn: Scenario):
    # the truck functions are called by their module-level names, so
    # wrappers of them see every call
    p = scn.truck
    accel = scn.leader.accel

    def field(x, t, w):
        return (x[2] - x[1], w, accel(t))

    def u_nominal(x, t):
        return truck_nominal(p, *x)

    if scn.controller == "nominal":
        u_control = u_nominal
    elif scn.controller == "cbf":
        def u_control(x, t):
            return truck_safe_filter(p, *x, accel(t))
    else:
        eps0, lam = scn.epsilon.eps0, scn.epsilon.lam

        def u_control(x, t):
            return truck_robust_filter(p, *x, accel(t), eps0, lam)

    def h_of(x, t):
        return x[0] - truck_headway(p, x[1], x[2])

    def clamp(x, counts):
        # vehicles do not reverse; see _CLAMP_LOG_TOL for why tiny
        # integrator undershoots are clamped silently
        d_gap, v, v_l = x
        if v < 0.0:
            if v < -_CLAMP_LOG_TOL:
                counts["v"] += 1
            v = 0.0
        if v_l < 0.0:
            if v_l < -_CLAMP_LOG_TOL:
                counts["v_L"] += 1
            v_l = 0.0
        return (d_gap, v, v_l)

    return field, u_nominal, u_control, h_of, clamp


def run_scenario(scn: Scenario) -> ScenarioResult:
    """Integrate a scenario and log (t, state, u_nom, u_filt, d, h) per step."""
    if scn.plant == "pendulum":
        field, u_nominal, u_control, h_of, clamp = _pendulum_maps(scn)
        labels, alpha_c = PENDULUM_STATE_LABELS, scn.pendulum.alpha_c
    else:
        field, u_nominal, u_control, h_of, clamp = _truck_maps(scn)
        labels, alpha_c = TRUCK_STATE_LABELS, scn.truck.alpha_c

    x = tuple(state_vector(scn.x0, dim=len(labels)).tolist())
    if h_of(x, 0.0) < 0.0:
        warnings.warn(f"scenario {scn.name!r}: initial state is outside the safe set")

    dt = scn.dt
    n_steps = scn.n_steps
    time = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, len(labels)))
    u_nom = np.empty(n_steps + 1)
    u_filt = np.empty(n_steps + 1)
    d_log = np.empty(n_steps + 1)
    h_log = np.empty(n_steps + 1)
    clamp_counts = {label: 0 for label in labels[1:]} if clamp else {}

    disturbance = scn.disturbance
    for k in range(n_steps + 1):
        t = k * dt  # the float time[k] holds
        states[k] = x
        u_nom[k] = u_nominal(x, t)
        u = u_control(x, t)
        u_filt[k] = u
        d_log[k] = disturbance(t)
        h_log[k] = h_of(x, t)
        if k < n_steps:
            try:
                # rk4_step by its module-level name, so wrappers of it see every step
                x = rk4_step(field, u_control, disturbance, x, t, dt, u0=u)
            except SimulationError as err:
                wrapped = SimulationError(
                    f"scenario {scn.name!r} failed at t={t:g}: {err}",
                    t=t, state=states[k],
                )
                # partial log up to the failing step, so callers can flush it
                wrapped.partial = ScenarioResult(
                    name=scn.name, plant=scn.plant, controller=scn.controller,
                    dt=dt, state_labels=labels,
                    time=time[: k + 1], states=states[: k + 1],
                    u_nom=u_nom[: k + 1], u_filt=u_filt[: k + 1],
                    d=d_log[: k + 1], h=h_log[: k + 1],
                    h_min=float(np.min(h_log[: k + 1])), h_star=None,
                    clamp_counts=clamp_counts,
                )
                raise wrapped from err
            if clamp is not None:
                x = clamp(x, clamp_counts)

    h_star = None
    if scn.controller == "issf":
        h_star = solve_h_star(linear_class_kappa(alpha_c), scn.epsilon, scn.delta)

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
