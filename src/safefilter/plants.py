"""The two concrete case studies.

Inverted pendulum: torque-actuated, elliptical barrier over (angle, rate),
feedback-linearizing nominal controller.

Connected truck: car-following state (headway D, own speed v, leader speed
v_L) with acceleration input, quadratic headway barrier h = D - rho(v, v_L),
range/speed-policy cruise controller, and scalar safe / robust filters.

Each plant is one :class:`PlantRecord` of float closures over a state tuple:
its nominal input, its barrier terms, one fused RK4 step and its state
clamp.  ``terms`` is the one barrier formula of its plant and computes the
nominal input with it.  ``step`` writes the four RK4 stages out on the
plant's own floats, with the field, the controller of each stage (the
nominal input, or the filter closure ``apply`` from ``cbf.filter_function``
on ``terms``) and every finiteness check, so a filtered stage costs two
Python calls.  The numpy-facing barriers, nominal controllers and truck
filters are thin wrappers over the record, and the truck filters apply the
same ``cbf.filter_function``.  The numpy dynamics (``pendulum_dynamics`` /
``truck_dynamics``) stay separate: they are the reference the fused field is
checked against.

Barrier gradients are hand-differentiated (two plants, closed forms, zero
dependency weight); a finite-difference cross-check lives in `verification`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .cbf import CbfFilter, filter_function
from .core import BarrierEvaluation, ControlAffineDynamics, SimulationError, linear_class_kappa
from .issf import EpsilonFunction

__all__ = [
    "PendulumParams",
    "PlantRecord",
    "TruckParams",
    "pendulum_barrier",
    "pendulum_cbf_filter",
    "pendulum_dynamics",
    "pendulum_nominal",
    "pendulum_record",
    "range_policy",
    "range_policy_inverse",
    "speed_policy",
    "truck_barrier",
    "truck_dynamics",
    "truck_headway",
    "truck_nominal",
    "truck_record",
    "truck_robust_filter",
    "truck_safe_filter",
]

# Speeds are clamped at zero (vehicles do not reverse in the braking
# scenarios); only undershoots beyond this are counted as clamp events so the
# integrator's terminal-braking rounding does not show up in the log.
_CLAMP_LOG_TOL = 1e-9


class PlantRecord(NamedTuple):
    """A plant's closed loop as float closures over a state tuple ``x``.

    ``a`` is the leader acceleration sampled at the evaluation time, or None
    for a plant without a leader.

    * ``nominal(x) -> u``: the hand-designed input;
    * ``terms(x, a) -> (h, lf_h, lg_h, u_nom)``: the barrier value, its Lie
      derivatives and the nominal input, everything a filter needs;
    * ``step(x, t, dt, a, w, a_mid, d_mid, a_end, d_end) -> x_next``: one
      classical RK4 step from (x, t) under the record's controller, the
      nominal input or ``apply(*terms(x, a))`` for the filter closure
      ``apply`` the record was built with.  ``w`` is the input channel u + d
      at x, as logged, and ``a`` the leader acceleration there; ``a_mid`` /
      ``d_mid`` are the time signals at t + dt/2, shared by stages 2 and 3,
      and ``a_end`` / ``d_end`` just inside the step's end, for stage 4.  It
      raises :class:`SimulationError` on a non-finite stage derivative or
      new state;
    * ``clamp(x, counts) -> x`` pins a stepped state to the plant's domain,
      counting clamp events in ``counts`` by state label, or is None.
    """

    labels: tuple
    nominal: Callable[[tuple], float]
    terms: Callable[[tuple, Optional[float]], tuple]
    step: Callable[..., tuple]
    clamp: Optional[Callable[[tuple, dict], tuple]]


# ---------------------------------------------------------------------------
# Inverted pendulum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendulumParams:
    mass: float = 2.0      # [kg]
    length: float = 1.0    # [m]
    gravity: float = 10.0  # [m/s^2]
    a: float = 0.25        # angle semi-axis of the safe ellipse [rad]
    b: float = 0.5         # rate semi-axis [rad/s]
    alpha_c: float = 0.2   # barrier constraint rate [1/s]
    kp: float = 0.6        # nominal proportional gain [1/s^2]
    kd: float = 0.6        # nominal derivative gain [1/s]

    def __post_init__(self):
        for name in ("mass", "length", "gravity", "a", "b", "alpha_c", "kp", "kd"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # the barrier, the field and the certificate divide by these products,
        # which can underflow to 0 or overflow for positive factors
        for name, value in (("a*a", self.a * self.a), ("b*b", self.b * self.b),
                            ("a*b", self.a * self.b),
                            ("mass*length*length", self.mass * self.length * self.length)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # alpha_c <= b/a is required for certification, not construction.


def pendulum_dynamics(p: PendulumParams) -> ControlAffineDynamics:
    """State (theta, theta_dot), input torque at the base."""
    g_over_l = p.gravity / p.length
    g_col = np.array([[0.0], [1.0 / (p.mass * p.length * p.length)]])

    def drift(x, t=0.0):
        return np.array([x[1], g_over_l * math.sin(x[0])])

    def actuation(x, t=0.0):
        return g_col

    return ControlAffineDynamics(drift, actuation)


def pendulum_record(p: PendulumParams,
                    apply: Optional[Callable[[float, float, float, float], float]] = None
                    ) -> PlantRecord:
    """The pendulum's closed loop on floats; see :class:`PlantRecord`.

    ``apply`` is a filter closure from ``cbf.filter_function``: ``step``
    then applies it to ``terms`` at every stage, and without it the nominal
    input.  ``terms`` raises the ValueError that BarrierEvaluation raises
    where the barrier triple is not finite.  A stage evaluates sin(theta)
    twice: once in ``terms`` or ``nominal`` and once in the field.
    """
    aa, bb, ab = p.a * p.a, p.b * p.b, p.a * p.b
    g_over_l = p.gravity / p.length
    ml2 = p.mass * p.length * p.length
    g_entry = 1.0 / ml2  # pendulum_dynamics' actuation
    kp, kd = p.kp, p.kd
    sin, isfinite, non_finite = math.sin, math.isfinite, SimulationError.non_finite

    def nominal(x):
        th, om = x
        return ml2 * (-g_over_l * sin(th) - kp * th - kd * om)

    def terms(x, a):
        th, om = x
        sin_th = sin(th)
        h = 1.0 - th * th / aa - om * om / bb - th * om / ab
        dh_dth = -2.0 * th / aa - om / ab
        dh_dom = -2.0 * om / bb - th / ab
        lf_h = dh_dth * om + dh_dom * g_over_l * sin_th
        lg_h = dh_dom / ml2
        if not (isfinite(h) and isfinite(lf_h) and isfinite(lg_h)):
            raise ValueError("barrier evaluation entries must be finite")
        return h, lf_h, lg_h, ml2 * (-g_over_l * sin_th - kp * th - kd * om)

    # the four stages written out: stage k's derivative is
    # (omega, g/l sin(theta) + w / (m l^2)) at its stage state
    def step(x, t, dt, a, w, a_mid, d_mid, a_end, d_end):
        th, om = x
        k1t, k1o = om, g_over_l * sin(th) + g_entry * w
        if not (isfinite(k1t) and isfinite(k1o)):
            raise non_finite("derivative", t, x)
        half = 0.5 * dt

        th2, om2 = th + half * k1t, om + half * k1o
        u = nominal((th2, om2)) if apply is None else apply(*terms((th2, om2), a_mid))
        k2t, k2o = om2, g_over_l * sin(th2) + g_entry * (u + d_mid)
        if not (isfinite(k2t) and isfinite(k2o)):
            raise non_finite("derivative", t + half, (th2, om2))

        th3, om3 = th + half * k2t, om + half * k2o
        u = nominal((th3, om3)) if apply is None else apply(*terms((th3, om3), a_mid))
        k3t, k3o = om3, g_over_l * sin(th3) + g_entry * (u + d_mid)
        if not (isfinite(k3t) and isfinite(k3o)):
            raise non_finite("derivative", t + half, (th3, om3))

        th4, om4 = th + dt * k3t, om + dt * k3o
        u = nominal((th4, om4)) if apply is None else apply(*terms((th4, om4), a_end))
        k4t, k4o = om4, g_over_l * sin(th4) + g_entry * (u + d_end)
        if not (isfinite(k4t) and isfinite(k4o)):
            raise non_finite("derivative", t + dt - 1e-9 * dt, (th4, om4))

        sixth = dt / 6.0
        x_next = (th + sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t),
                  om + sixth * (k1o + 2.0 * k2o + 2.0 * k3o + k4o))
        # finite stages can still overflow in the weighted sum
        if not (isfinite(x_next[0]) and isfinite(x_next[1])):
            raise non_finite("state", t + dt, x_next)
        return x_next

    return PlantRecord(("theta", "theta_dot"), nominal, terms, step, None)


def pendulum_barrier(p: PendulumParams) -> Callable[[np.ndarray], BarrierEvaluation]:
    """Elliptical barrier 1 - theta^2/a^2 - thdot^2/b^2 - theta*thdot/(a*b).

    The cross term matters: it keeps the barrier compatible with the drift on
    the lg_h = 0 line (thdot = -(b/2a) theta); without it certification fails.
    """
    terms = pendulum_record(p).terms

    def barrier(x):
        return BarrierEvaluation(*terms((float(x[0]), float(x[1])), None)[:3])

    return barrier


def pendulum_nominal(p: PendulumParams) -> Callable[[np.ndarray], np.ndarray]:
    """Feedback-linearizing stabilizer to upright; closed loop is linear."""
    nominal = pendulum_record(p).nominal

    def controller(x):
        return np.array([nominal((x[0], x[1]))])

    return controller


def pendulum_cbf_filter(p: PendulumParams,
                        epsilon: Optional[EpsilonFunction] = None) -> CbfFilter:
    """The pendulum's safety filter, robust with a gain ``epsilon``."""
    return CbfFilter(pendulum_barrier(p), linear_class_kappa(p.alpha_c), pendulum_nominal(p),
                     epsilon)


# ---------------------------------------------------------------------------
# Connected truck
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruckParams:
    """Published truck controller-design parameter set (the defaults).

    The free-flow distance ``d_go`` is derived, not set: the range policy
    reaches the leader speed cap there.  The robust design (eps0, lam, delta)
    is not a plant constant; it belongs to the ISSf filter, and a scenario
    or config sets it beside the plant.
    """

    c0: float = 2.0        # headway polynomial constant [m]
    c1: float = 1.1        # [s]
    c2: float = 0.6        # [s]
    c3: float = 0.03       # [s^2/m]
    c4: float = -0.03      # [s^2/m]
    c5: float = -0.03      # [s^2/m]
    alpha_c: float = 0.1   # barrier constraint rate [1/s]
    gain_range: float = 0.4   # range-policy error gain [1/s]
    gain_speed: float = 0.5   # speed error gain [1/s]
    kappa: float = 0.8        # 1/kappa is the desired time headway [1/s]
    d_st: float = 5.0         # stopping distance [m]
    v_bar_l: float = 20.0     # leader speed cap [m/s]
    a_bar_l: float = 5.0      # leader acceleration cap [m/s^2]
    a_under_l: float = 10.0   # leader deceleration cap, magnitude [m/s^2]

    def __post_init__(self):
        for name in (
            "alpha_c", "gain_range", "gain_speed", "kappa", "d_st",
            "v_bar_l", "a_bar_l", "a_under_l",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.d_go):
            raise ValueError(f"d_go = v_bar_l/kappa + d_st must be finite, got {self.d_go!r}")

    @property
    def d_go(self) -> float:
        """Free-flow distance v_bar_l/kappa + d_st [m]; 30 for the defaults."""
        return self.v_bar_l / self.kappa + self.d_st


def truck_headway(p: TruckParams, v: float, v_l: float) -> float:
    """Minimum safe bumper-to-bumper distance given both speeds [m]."""
    return p.c0 + p.c1 * v + p.c2 * v_l + p.c3 * v * v + p.c4 * v * v_l + p.c5 * v_l * v_l


def truck_barrier(p: TruckParams, a_l: float) -> Callable[[np.ndarray], BarrierEvaluation]:
    """Headway barrier h = D - rho(v, v_L) for the current measured leader accel.

    a_l is the leader acceleration exogenous at the evaluation instant
    (received over V2V in deployment, read off the scenario profile here).
    """
    terms = truck_record(p).terms

    def barrier(x):
        return BarrierEvaluation(*terms((float(x[0]), float(x[1]), float(x[2])), a_l)[:3])

    return barrier


def truck_dynamics(p: TruckParams, leader_accel: Callable[[float], float]) -> ControlAffineDynamics:
    """Connected car-following model: Ddot = v_L - v, vdot = u, v_Ldot = a_L(t)."""
    g_col = np.array([[0.0], [1.0], [0.0]])

    def drift(x, t=0.0):
        return np.array([x[2] - x[1], 0.0, leader_accel(t)])

    def actuation(x, t=0.0):
        return g_col

    return ControlAffineDynamics(drift, actuation)


def range_policy(p: TruckParams, d: float) -> float:
    """Desired speed from headway distance: saturated ramp, continuous at both knots."""
    if d < p.d_st:
        return 0.0
    if d <= p.d_go:
        return p.kappa * (d - p.d_st)
    return p.v_bar_l


def range_policy_inverse(p: TruckParams, v: float) -> float:
    """Distance at which the range policy commands speed v, for v in [0, v_bar_l]."""
    if not 0.0 <= v <= p.v_bar_l:
        raise ValueError(f"v must lie in [0, {p.v_bar_l}], got {v}")
    # multiply by the time headway 1/kappa rather than dividing: for the
    # published kappa = 0.8 this keeps v = 16 -> D = 25 exact in floats
    return p.d_st + v * (1.0 / p.kappa)


def speed_policy(p: TruckParams, v_l: float) -> float:
    """Leader-speed feedthrough, saturated at the cap v_bar_l."""
    return v_l if v_l <= p.v_bar_l else p.v_bar_l


def truck_record(p: TruckParams,
                 apply: Optional[Callable[[float, float, float, float], float]] = None
                 ) -> PlantRecord:
    """The truck's closed loop on floats; see :class:`PlantRecord`.

    ``apply`` and the ValueError of ``terms`` are as in
    :func:`pendulum_record`.  ``range_policy``, ``speed_policy`` and
    ``truck_headway`` are written out inline, in their order of operations,
    with the parameters bound once, because the simulator evaluates the
    record at every RK4 stage.  The clamp pins both speeds at zero: the
    vehicles do not reverse.
    """
    c0, c1, c2, c3, c4, c5 = p.c0, p.c1, p.c2, p.c3, p.c4, p.c5
    gain_range, gain_speed, kappa = p.gain_range, p.gain_speed, p.kappa
    d_st, d_go, v_bar_l = p.d_st, p.d_go, p.v_bar_l
    isfinite, non_finite = math.isfinite, SimulationError.non_finite

    def nominal(x):
        d, v, v_l = x
        if d < d_st:
            v_range = 0.0
        elif d <= d_go:
            v_range = kappa * (d - d_st)
        else:
            v_range = v_bar_l
        v_speed = v_l if v_l <= v_bar_l else v_bar_l
        return gain_range * (v_range - v) + gain_speed * (v_speed - v)

    def terms(x, a):
        d, v, v_l = x
        h = d - (c0 + c1 * v + c2 * v_l + c3 * v * v + c4 * v * v_l + c5 * v_l * v_l)
        lf_h = v_l - v - a * (c2 + c4 * v + 2.0 * c5 * v_l)
        lg_h = -(c1 + 2.0 * c3 * v + c4 * v_l)
        if not (isfinite(h) and isfinite(lf_h) and isfinite(lg_h)):
            raise ValueError("barrier evaluation entries must be finite")
        # nominal(x), written out: terms runs at every filtered RK4 stage
        if d < d_st:
            v_range = 0.0
        elif d <= d_go:
            v_range = kappa * (d - d_st)
        else:
            v_range = v_bar_l
        v_speed = v_l if v_l <= v_bar_l else v_bar_l
        return h, lf_h, lg_h, gain_range * (v_range - v) + gain_speed * (v_speed - v)

    # the four stages written out: stage k's derivative is (v_L - v, w, a_L)
    # at its stage state
    def step(x, t, dt, a, w, a_mid, d_mid, a_end, d_end):
        d, v, v_l = x
        k1d, k1v, k1l = v_l - v, w, a
        if not (isfinite(k1d) and isfinite(k1v) and isfinite(k1l)):
            raise non_finite("derivative", t, x)
        half = 0.5 * dt

        x2 = (d + half * k1d, v + half * k1v, v_l + half * k1l)
        u = nominal(x2) if apply is None else apply(*terms(x2, a_mid))
        k2d, k2v, k2l = x2[2] - x2[1], u + d_mid, a_mid
        if not (isfinite(k2d) and isfinite(k2v) and isfinite(k2l)):
            raise non_finite("derivative", t + half, x2)

        x3 = (d + half * k2d, v + half * k2v, v_l + half * k2l)
        u = nominal(x3) if apply is None else apply(*terms(x3, a_mid))
        k3d, k3v, k3l = x3[2] - x3[1], u + d_mid, a_mid
        if not (isfinite(k3d) and isfinite(k3v) and isfinite(k3l)):
            raise non_finite("derivative", t + half, x3)

        x4 = (d + dt * k3d, v + dt * k3v, v_l + dt * k3l)
        u = nominal(x4) if apply is None else apply(*terms(x4, a_end))
        k4d, k4v, k4l = x4[2] - x4[1], u + d_end, a_end
        if not (isfinite(k4d) and isfinite(k4v) and isfinite(k4l)):
            raise non_finite("derivative", t + dt - 1e-9 * dt, x4)

        sixth = dt / 6.0
        x_next = (d + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d),
                  v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
                  v_l + sixth * (k1l + 2.0 * k2l + 2.0 * k3l + k4l))
        # finite stages can still overflow in the weighted sum
        if not (isfinite(x_next[0]) and isfinite(x_next[1]) and isfinite(x_next[2])):
            raise non_finite("state", t + dt, x_next)
        return x_next

    def clamp(x, counts):
        # see _CLAMP_LOG_TOL for why tiny integrator undershoots are clamped
        # silently
        d, v, v_l = x
        if v < 0.0:
            if v < -_CLAMP_LOG_TOL:
                counts["v"] += 1
            v = 0.0
        if v_l < 0.0:
            if v_l < -_CLAMP_LOG_TOL:
                counts["v_L"] += 1
            v_l = 0.0
        return (d, v, v_l)

    return PlantRecord(("D", "v", "v_L"), nominal, terms, step, clamp)


def truck_nominal(p: TruckParams, d: float, v: float, v_l: float) -> float:
    """Connected cruise controller: range-policy and relative-speed error terms."""
    return truck_record(p).nominal((d, v, v_l))


def _truck_filter(p: TruckParams, x: tuple, a_l: float,
                  epsilon: Optional[EpsilonFunction]) -> float:
    return filter_function(p.alpha_c, epsilon)(*truck_record(p).terms(x, a_l))


def truck_safe_filter(p: TruckParams, d: float, v: float, v_l: float, a_l: float) -> float:
    """The closed-form filter of the nominal acceleration at (D, v, v_L, a_L).

    In the driving domain lg_h < 0, so the filter caps the nominal command:
    min{k_n, k_s} with k_s the acceleration that makes the constraint active.
    """
    return _truck_filter(p, (d, v, v_l), a_l, None)


def truck_robust_filter(p: TruckParams, d: float, v: float, v_l: float, a_l: float,
                        eps0: float, lam: float) -> float:
    """The safe command robustified for bounded input disturbance,
    min{k_n, k_s + lg_h/eps(h)} in the driving domain, with eps(h) =
    eps0 e^{lam h}: earlier and harder braking."""
    return _truck_filter(p, (d, v, v_l), a_l, EpsilonFunction(eps0, lam))
