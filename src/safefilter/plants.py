"""The two concrete case studies.

Inverted pendulum: torque-actuated, elliptical barrier over (angle, rate),
feedback-linearizing nominal controller.

Connected truck: car-following state (headway D, own speed v, leader speed
v_L) with acceleration input, quadratic headway barrier h = D - rho(v, v_L),
range/speed-policy cruise controller, and scalar safe / robust filter
compositions that exploit lg_h < 0 in the driving domain.

Barrier gradients are hand-differentiated (two plants, closed forms, zero
dependency weight); a finite-difference cross-check lives in `verification`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cbf import LG_ZERO_TOL, CbfFilter
from .core import BarrierEvaluation, ControlAffineDynamics, linear_class_kappa
from .issf import EpsilonFunction, IssfFilter

__all__ = [
    "PendulumParams",
    "TruckParams",
    "pendulum_barrier",
    "pendulum_barrier_core",
    "pendulum_cbf_filter",
    "pendulum_dynamics",
    "pendulum_issf_filter",
    "pendulum_nominal",
    "pendulum_nominal_core",
    "range_policy",
    "range_policy_inverse",
    "speed_policy",
    "truck_barrier",
    "truck_dynamics",
    "truck_filter_core",
    "truck_headway",
    "truck_nominal",
    "truck_nominal_core",
    "truck_robust_filter",
    "truck_safe_filter",
]

PENDULUM_STATE_LABELS = ("theta", "theta_dot")
TRUCK_STATE_LABELS = ("D", "v", "v_L")


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
        # alpha_c <= b/a is required for certification, not construction.


def pendulum_dynamics(p: PendulumParams) -> ControlAffineDynamics:
    """State (theta, theta_dot), input torque at the base."""
    g_over_l = p.gravity / p.length
    g_col = np.array([[0.0], [1.0 / (p.mass * p.length * p.length)]])

    def drift(x, t=0.0):
        return np.array([x[1], g_over_l * math.sin(x[0])])

    def actuation(x, t=0.0):
        return g_col

    return ControlAffineDynamics(drift, actuation, state_dim=2, input_dim=1)


def pendulum_barrier_core(p: PendulumParams) -> Callable[[float, float, float], tuple]:
    """(h, L_f h, L_g h) of the elliptical barrier at (theta, theta_dot), as floats.

    The one implementation of the pendulum barrier: ``pendulum_barrier`` wraps
    it in a :class:`BarrierEvaluation`, and the simulator calls it directly.
    The third argument is sin(theta), so a caller that also needs it for the
    nominal input and the dynamics computes it once.  A non-finite triple
    raises the ValueError that BarrierEvaluation raises.
    """
    aa, bb, ab = p.a * p.a, p.b * p.b, p.a * p.b
    g_over_l = p.gravity / p.length
    ml2 = p.mass * p.length * p.length
    isfinite = math.isfinite

    def core(th, om, sin_th):
        h = 1.0 - th * th / aa - om * om / bb - th * om / ab
        dh_dth = -2.0 * th / aa - om / ab
        dh_dom = -2.0 * om / bb - th / ab
        lf_h = dh_dth * om + dh_dom * g_over_l * sin_th
        lg_h = dh_dom / ml2
        if not (isfinite(h) and isfinite(lf_h) and isfinite(lg_h)):
            raise ValueError("barrier evaluation entries must be finite")
        return h, lf_h, lg_h

    return core


def pendulum_barrier(p: PendulumParams) -> Callable[[np.ndarray], BarrierEvaluation]:
    """Elliptical barrier 1 - theta^2/a^2 - thdot^2/b^2 - theta*thdot/(a*b).

    The cross term matters: it keeps the barrier compatible with the drift on
    the lg_h = 0 line (thdot = -(b/2a) theta); without it certification fails.
    """
    core = pendulum_barrier_core(p)

    def barrier(x):
        th = float(x[0])
        return BarrierEvaluation(*core(th, float(x[1]), math.sin(th)))

    return barrier


def pendulum_nominal_core(p: PendulumParams) -> Callable[[float, float, float], float]:
    """Nominal torque at (theta, theta_dot) as a float, given sin(theta); see
    ``pendulum_nominal``."""
    ml2 = p.mass * p.length * p.length
    g_over_l = p.gravity / p.length
    kp, kd = p.kp, p.kd

    def core(th, om, sin_th):
        return ml2 * (-g_over_l * sin_th - kp * th - kd * om)

    return core


def pendulum_nominal(p: PendulumParams) -> Callable[[np.ndarray], np.ndarray]:
    """Feedback-linearizing stabilizer to upright; closed loop is linear."""
    core = pendulum_nominal_core(p)

    def nominal(x):
        th = x[0]
        return np.array([core(th, x[1], math.sin(th))])

    return nominal


def pendulum_cbf_filter(p: PendulumParams) -> CbfFilter:
    return CbfFilter(pendulum_barrier(p), linear_class_kappa(p.alpha_c), pendulum_nominal(p))


def pendulum_issf_filter(p: PendulumParams, epsilon: EpsilonFunction) -> IssfFilter:
    return IssfFilter(
        pendulum_barrier(p), linear_class_kappa(p.alpha_c), pendulum_nominal(p), epsilon
    )


# ---------------------------------------------------------------------------
# Connected truck
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruckParams:
    """Published truck controller-design parameter set (the defaults)."""

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
    d_go: float = 30.0        # free-flow distance [m]
    v_bar_l: float = 20.0     # leader speed cap [m/s]
    a_bar_l: float = 5.0      # leader acceleration cap [m/s^2]
    a_under_l: float = 10.0   # leader deceleration cap, magnitude [m/s^2]
    delta: float = 4.5        # input disturbance bound [m/s^2]
    eps0: float = 0.5         # robustness gain scale [s^3/m]
    lam: float = 0.4          # robustness gain shaping [1/m]

    def __post_init__(self):
        for name in (
            "alpha_c", "gain_range", "gain_speed", "kappa", "d_st", "d_go",
            "v_bar_l", "a_bar_l", "a_under_l", "eps0",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.delta < 0 or self.lam < 0:
            raise ValueError("delta and lam must be nonnegative")
        if abs(self.d_go - (self.v_bar_l / self.kappa + self.d_st)) > 1e-9:
            raise ValueError(
                f"d_go must equal v_bar_l/kappa + d_st = "
                f"{self.v_bar_l / self.kappa + self.d_st!r}, got {self.d_go!r}"
            )


def truck_headway(p: TruckParams, v: float, v_l: float) -> float:
    """Minimum safe bumper-to-bumper distance given both speeds [m]."""
    return p.c0 + p.c1 * v + p.c2 * v_l + p.c3 * v * v + p.c4 * v * v_l + p.c5 * v_l * v_l


def _truck_lie_derivatives(p: TruckParams, v: float, v_l: float, a_l: float):
    lf_h = v_l - v - a_l * (p.c2 + p.c4 * v + 2.0 * p.c5 * v_l)
    lg_h = -(p.c1 + 2.0 * p.c3 * v + p.c4 * v_l)
    return lf_h, lg_h


def truck_barrier(p: TruckParams, a_l: float) -> Callable[[np.ndarray], BarrierEvaluation]:
    """Headway barrier h = D - rho(v, v_L) for the current measured leader accel.

    a_l is the leader acceleration exogenous at the evaluation instant
    (received over V2V in deployment, read off the scenario profile here).
    """

    def barrier(x):
        d_gap, v, v_l = float(x[0]), float(x[1]), float(x[2])
        h = d_gap - truck_headway(p, v, v_l)
        lf_h, lg_h = _truck_lie_derivatives(p, v, v_l, a_l)
        return BarrierEvaluation(h, lf_h, lg_h)

    return barrier


def truck_dynamics(p: TruckParams, leader_accel: Callable[[float], float]) -> ControlAffineDynamics:
    """Connected car-following model: Ddot = v_L - v, vdot = u, v_Ldot = a_L(t)."""
    g_col = np.array([[0.0], [1.0], [0.0]])

    def drift(x, t=0.0):
        return np.array([x[2] - x[1], 0.0, leader_accel(t)])

    def actuation(x, t=0.0):
        return g_col

    return ControlAffineDynamics(drift, actuation, state_dim=3, input_dim=1, exogenous=leader_accel)


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


def truck_nominal_core(p: TruckParams) -> Callable[[float, float, float], float]:
    """Nominal acceleration at (D, v, v_L) as a float; see ``truck_nominal``.

    ``range_policy`` and ``speed_policy`` are written out inline, with the
    parameters bound once, because the simulator evaluates this at every RK4
    stage.
    """
    gain_range, gain_speed, kappa = p.gain_range, p.gain_speed, p.kappa
    d_st, d_go, v_bar_l = p.d_st, p.d_go, p.v_bar_l

    def core(d, v, v_l):
        if d < d_st:
            v_range = 0.0
        elif d <= d_go:
            v_range = kappa * (d - d_st)
        else:
            v_range = v_bar_l
        v_speed = v_l if v_l <= v_bar_l else v_bar_l
        return gain_range * (v_range - v) + gain_speed * (v_speed - v)

    return core


def truck_nominal(p: TruckParams, d: float, v: float, v_l: float) -> float:
    """Connected cruise controller: range-policy and relative-speed error terms."""
    return truck_nominal_core(p)(d, v, v_l)


def truck_filter_core(
    p: TruckParams,
    eps0: float | None = None,
    lam: float | None = None,
) -> Callable[[float, float, float, float], tuple]:
    """(u_nom, u, h) of the truck's closed-form filter at (D, v, v_L, a_L), as floats.

    The one implementation of the truck filter: ``truck_safe_filter`` and
    ``truck_robust_filter`` wrap it, and the simulator calls it directly.
    The filtered input is min{k_n, k_s} in the driving domain where lg_h < 0.
    If lg_h >= 0 is ever reached (far outside the domain of interest), the
    sign-switched max form is still the exact closed-form filter.

    With ``eps0`` the safe command is robustified for bounded input
    disturbance: k_s gains lg_h/eps(h) with eps(h) = eps0 e^{lam h} (``lam``
    defaults to 0, the constant gain), i.e. earlier and harder braking.
    """
    c0, c1, c2, c3, c4, c5 = p.c0, p.c1, p.c2, p.c3, p.c4, p.c5
    alpha_c = p.alpha_c
    nominal = truck_nominal_core(p)
    robust = eps0 is not None
    lam = 0.0 if lam is None else lam
    exp, copysign, inf = math.exp, math.copysign, math.inf

    def core(d, v, v_l, a_l):
        # the terms of truck_headway and truck_barrier, in their order
        h = d - (c0 + c1 * v + c2 * v_l + c3 * v * v + c4 * v * v_l + c5 * v_l * v_l)
        lf_h = v_l - v - a_l * (c2 + c4 * v + 2.0 * c5 * v_l)
        lg_h = -(c1 + 2.0 * c3 * v + c4 * v_l)
        u_nom = nominal(d, v, v_l)
        if abs(lg_h) <= LG_ZERO_TOL:
            return u_nom, u_nom, h
        u_safe = -(lf_h + alpha_c * h) / lg_h
        if robust:
            try:
                tightening = lg_h / (eps0 * exp(lam * h))
            except OverflowError:
                # far behind the leader eps(h) overflows: the term's limit is 0
                tightening = 0.0
            except ZeroDivisionError:
                # deep inside the unsafe set eps(h) underflows to 0: the term
                # diverges, and the simulator rejects the infinite input
                tightening = copysign(inf, lg_h)
            u_safe = u_safe + tightening
        return u_nom, (min(u_nom, u_safe) if lg_h < 0.0 else max(u_nom, u_safe)), h

    return core


def truck_safe_filter(p: TruckParams, d: float, v: float, v_l: float, a_l: float) -> float:
    """min{k_n, k_s} in the driving domain where lg_h < 0; see ``truck_filter_core``."""
    return truck_filter_core(p)(d, v, v_l, a_l)[1]


def truck_robust_filter(
    p: TruckParams,
    d: float,
    v: float,
    v_l: float,
    a_l: float,
    eps0: float | None = None,
    lam: float | None = None,
) -> float:
    """min{k_n, k_s + lg_h/eps(h)}: the safe command robustified for bounded
    input disturbance, with eps0 and lam defaulting to the parameter set's;
    see ``truck_filter_core``."""
    eps0 = p.eps0 if eps0 is None else eps0
    lam = p.lam if lam is None else lam
    return truck_filter_core(p, eps0, lam)(d, v, v_l, a_l)[1]
