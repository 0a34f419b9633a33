"""The two concrete case studies.

Inverted pendulum: torque-actuated, elliptical barrier over (angle, rate),
feedback-linearizing nominal controller.

Connected truck: car-following state (headway D, own speed v, leader speed
v_L) with acceleration input, quadratic headway barrier h = D - rho(v, v_L),
range/speed-policy cruise controller, and scalar safe / robust filters.

Each plant's closed loop is written once, as a :class:`_PlantSource` table
of source lines: its state names, nominal input, barrier terms, field and
clamped states.  ``_LOOP_TEMPLATE``, the one RK4 skeleton, writes a table's
lines, with the nominal input or the filter formula ``cbf.filter_source`` at
every stage, into the plant's ``nominal``, ``barrier``, logged ``row`` and
``run``, a loop over a block of rows and their steps that makes no Python
call.  Each (plant, controller kind) is compiled once per process,
on first use, and a record executes it with its parameters bound.  A new
plant is another table; a new stage policy is another template over the
tables.  The numpy barriers, nominal controllers and truck filters wrap a
record; the numpy dynamics stay separate, as the reference the generated
field is checked against.

Barrier gradients are hand-differentiated (two plants, closed forms, zero
dependency weight); a finite-difference cross-check lives in `verification`.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .cbf import CbfFilter, filter_bindings, filter_source
from .core import BarrierEvaluation, ControlAffineDynamics, SimulationError, linear_class_kappa
from .issf import EpsilonFunction

__all__ = [
    "CONTROLLERS", "PendulumParams", "PlantRecord", "TruckParams", "check_controller",
    "pendulum_barrier", "pendulum_cbf_filter", "pendulum_dynamics", "pendulum_nominal",
    "pendulum_record", "range_policy", "range_policy_inverse", "speed_policy", "truck_barrier",
    "truck_dynamics", "truck_headway", "truck_nominal", "truck_record", "truck_robust_filter",
    "truck_safe_filter",
]

# The controller kinds: the nominal input, the plain and the robust filter.
CONTROLLERS = ("nominal", "cbf", "issf")


def check_controller(controller: str, epsilon: Optional[EpsilonFunction]) -> None:
    """The controller rule: a kind of :data:`CONTROLLERS`, and "issf" with
    its robustness gain ``epsilon``."""
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}")
    if controller == "issf" and epsilon is None:
        raise ValueError("issf controller needs an epsilon function")


class PlantRecord(NamedTuple):
    """A plant's closed loop under one controller kind, as float functions
    over a state tuple ``x``; ``a`` is the leader acceleration at the
    evaluation time, None for a plant without a leader.

    * ``nominal(x) -> u_nom`` and ``barrier(x, a) -> (h, lf_h, lg_h)``; the
      latter raises BarrierEvaluation's ValueError where they are not finite;
    * ``row(x, a) -> (u_nom, u, h)`` at a logged state;
    * ``run(x, t_rows, dt, a_rows, d_rows, a_mids, d_mids, a_ends, d_ends,
      n, last, log, counts) -> (rows, x, err)``, ``sim.run_scenario``'s
      block loop: it reads the row times and the samples at each row's stage
      times from iterables of floats, logs n rows by index into the writable
      float sequences ``log`` (state columns, u_nom, u and h), steps from
      each but the final one, at index ``last``, pins the ``clamped`` states
      at zero, counting clamp events in ``counts``, and returns the rows
      logged, the new state and the error that stopped it, or None.
      ``run_scenario`` passes memoryviews of its numpy samples and log.

    Each check of a group of terms (the barrier terms, a stage derivative,
    the new state) is one ``isfinite`` call on their sum, which is finite
    only if every term is; where it is not, a call per term decides, so
    finite terms whose sum overflows pass and every error is the per-term
    check's.
    """

    labels: tuple
    nominal: Callable[[tuple], float]
    barrier: Callable[[tuple, Optional[float]], tuple]
    row: Callable[[tuple, Optional[float]], tuple]
    run: Callable[..., tuple]
    clamped: tuple


# ---------------------------------------------------------------------------
# The closed loop as source
# ---------------------------------------------------------------------------


class _PlantSource(NamedTuple):
    """Source lines over a plant's state names, which are its log labels:
    ``shared`` binds what the controller and the field share, ``nominal``
    binds u_nom, ``barrier`` binds h, lf_h and lg_h, and ``field`` gives the
    state derivative, one expression per state, in the input channel w;
    a step pins the states ``clamp`` names at zero."""

    names: tuple
    shared: str
    nominal: str
    barrier: str
    field: tuple
    clamp: tuple = ()


def _all_finite(terms) -> str:
    """An expression true where every one of ``terms`` is finite: one
    ``isfinite`` call on their sum, and a call per term only where the sum is
    not finite.  A float sum is finite only if every term is, and finite
    terms whose sum overflows still pass the per-term calls."""
    return f"isfinite({' + '.join(terms)}) or " + " and ".join(f"isfinite({t})" for t in terms)


_BARRIER_ERROR = "barrier evaluation entries must be finite"
_BARRIER_CHECK = f"""\
if not ({_all_finite(("h", "lf_h", "lg_h"))}):
    raise ValueError({_BARRIER_ERROR!r})
"""

# The one RK4 skeleton: {row} binds a row's terms, checked, and input u.  A
# row's ValueError stops ``run`` with the row unlogged, a step's error with it
# logged.  The stages keep the operation order, times, checks and errors of
# sim.rk4_step; stage 1 reuses the row's shared lines, at the same state.  A
# table's **, exp or division raises an ArithmeticError where a product gives
# inf or nan; it is the error of a non-finite value there: in a row the
# barrier's ValueError (as is a math function's domain error), and in a step
# a non-finite derivative at the stage state, stamped with the step's time t,
# as the stage's own time is not kept on the path without an error.
_LOOP_TEMPLATE = """\
def nominal(x):
    {state}, = x
{shared}{nominal}    return u_nom


def barrier(x, a):
    {state}, = x
{shared}{barrier}    return h, lf_h, lg_h


def row(x, a):
    {state}, = x
{row}    return u_nom, u, h


def run(x, t_rows, dt, a_rows, d_rows, a_mids, d_mids, a_ends, d_ends, n, last, log, counts):
    {bound} = bound
    {state}, = x
    {columns} = log
    half, sixth = 0.5 * dt, dt / 6.0
    for i, t, a, d, a_mid, d_mid, a_end, d_end in zip(
            range(n), t_rows, a_rows, d_rows, a_mids, d_mids, a_ends, d_ends):
        try:
{row_in_run}        except (ValueError, ArithmeticError):
            return i, None, ValueError({barrier_error})
{store}        try:
            if i == last:
                # the last row starts no step, so no stage 1 checks its input
                if not isfinite(u + d):
                    raise non_finite("input", t, ({state},))
                break
            {base} = {state}
            w = u + d
            {k1} = {field}
            if not ({k1_finite}):
                raise non_finite("derivative", t, ({state},))
{stages}            {state} = {weighted_sum}
            # finite stages can still overflow in the weighted sum
            if not ({state_finite}):
                raise non_finite("state", t + dt, ({state},))
        except (SimulationError, ValueError) as err:
            return i + 1, None, err
        except ArithmeticError:
            return i + 1, None, non_finite("derivative", t, ({state},))
{clamp}    return n, ({state},), None
"""

# Every name the generated code binds or reads besides a table's own:
# ``run``'s parameters and loop locals, the filter's names, the globals and
# builtins it reads and the functions it defines.  A state or binding that
# took one would be silently overwritten or shadowed, so _record rejects it,
# as it rejects one that takes a per-state name of another state.  The state
# tuple ``x`` is not among them: each function unpacks it first and never
# reads it again, so a state may take its name.
_RESERVED = (
    "t_rows", "dt", "a_rows", "d_rows", "a_mids", "d_mids", "a_ends", "d_ends", "n",
    "last", "log", "counts", "half", "sixth", "i", "t", "a", "d", "a_mid", "d_mid", "a_end",
    "d_end", "w", "err", "u_nom", "u", "h", "lf_h", "lg_h", "log_u_nom", "log_u", "log_h",
    "s", "g", "eps", "alpha_c", "lg_zero_sq", "eps0", "lam", "exp", "inf", "bound",
    "isfinite", "non_finite", "SimulationError", "ValueError", "OverflowError", "ArithmeticError",
    "range", "zip", "nominal", "barrier", "row", "run")
# The per-state names: the step's base state, the four stage derivatives and
# the log column.
_PER_STATE = ("{n}0", "k1_{n}", "k2_{n}", "k3_{n}", "k4_{n}", "log_{n}")

_STAGE_TEMPLATE = """\
{state} = {stage_state}
a = {a}
{shared}{control}w = u + {d}
{k} = {field}
if not ({k_finite}):
    raise non_finite("derivative", {t}, ({state},))
"""

# Stages 2 to 4: the step fraction from the base state, time and samples.
_STAGES = (("half", "t + half", "a_mid", "d_mid"), ("half", "t + half", "a_mid", "d_mid"),
           ("dt", "t + dt - 1e-9 * dt", "a_end", "d_end"))

# Speeds are clamped at zero (vehicles do not reverse in the braking
# scenarios); only undershoots beyond this are counted as clamp events so the
# integrator's terminal-braking rounding does not show up in the log.
_CLAMP_LOG_TOL = 1e-9
_CLAMP_TEMPLATE = f"""\
if {{n}} < 0.0:
    if {{n}} < -{_CLAMP_LOG_TOL!r}:
        counts["{{n}}"] += 1
    {{n}} = 0.0
"""


def _loop_source(src: _PlantSource, controller: str, bound: tuple) -> str:
    """The source of a plant's nominal, barrier, row and run under
    ``controller``, one of :data:`CONTROLLERS`; ``run`` binds the globals
    named in ``bound`` as locals."""

    def each(fmt):  # fmt for each state name n
        return ", ".join(fmt.format(n=n) for n in src.names)

    def finite(fmt):  # true where fmt is finite for every state name n
        return _all_finite([fmt.format(n=n) for n in src.names])

    def block(text, depth=1):
        return textwrap.indent(text, "    " * depth)

    barrier = src.barrier + _BARRIER_CHECK
    terms = barrier + src.nominal
    row_input = "u = u_nom\n" if controller == "nominal" else filter_source(controller == "issf")
    control = (src.nominal if controller == "nominal" else terms) + row_input
    state, field = each("{n}"), ", ".join(src.field)
    stages = "".join(_STAGE_TEMPLATE.format(
        state=state, stage_state=each(f"{{n}}0 + {h} * k{i - 1}_{{n}}"), a=a, shared=src.shared,
        control=control, d=d, k=each(f"k{i}_{{n}}"), field=field,
        k_finite=finite(f"k{i}_{{n}}"), t=t)
        for i, (h, t, a, d) in enumerate(_STAGES, start=2))
    logged, row = (*src.names, "u_nom", "u", "h"), src.shared + terms + row_input
    return _LOOP_TEMPLATE.format(
        bound=", ".join(bound), state=state, barrier_error=repr(_BARRIER_ERROR),
        shared=block(src.shared), nominal=block(src.nominal), barrier=block(barrier),
        row=block(row), row_in_run=block(row, 3),
        columns=", ".join(f"log_{n}" for n in logged), base=each("{n}0"),
        store=block("".join(f"log_{n}[i] = {n}\n" for n in logged), 2), k1=each("k1_{n}"),
        field=field, k1_finite=finite("k1_{n}"), stages=block(stages, 3),
        weighted_sum=each("{n}0 + sixth * (k1_{n} + 2.0 * k2_{n} + 2.0 * k3_{n} + k4_{n})"),
        state_finite=finite("{n}"),
        clamp=block("".join(_CLAMP_TEMPLATE.format(n=n) for n in src.clamp), 2))


@functools.lru_cache(maxsize=None)
def _loop_code(src: _PlantSource, controller: str, bound: tuple):
    return compile(_loop_source(src, controller, bound),
                   f"<safefilter.plants {'/'.join(src.names)} {controller}>", "exec")


def _record(src: _PlantSource, bindings: dict, alpha_c: float, controller: str,
            epsilon: Optional[EpsilonFunction]) -> PlantRecord:
    """A plant's compiled loop, run with its parameters and filter constants as
    globals.  A controller that breaks :func:`check_controller`, or a state
    or binding named as the generated code names its own, is a ValueError."""
    check_controller(controller, epsilon)
    taken = {*_RESERVED, *(fmt.format(n=n) for n in src.names for fmt in _PER_STATE)}
    clash = [name for name in (*src.names, *bindings) if name in taken]
    if clash:
        raise ValueError(f"plant table names {clash} are taken by the generated loop")
    namespace = dict(bindings, isfinite=math.isfinite, non_finite=SimulationError.non_finite,
                     SimulationError=SimulationError)
    if controller != "nominal":
        namespace.update(filter_bindings(alpha_c, epsilon if controller == "issf" else None))
    # run unpacks these constants and helpers, fixed per (plant, controller),
    # into locals at entry
    code = _loop_code(src, controller, tuple(namespace))
    namespace["bound"] = tuple(namespace.values())
    exec(code, namespace)
    kernels = map(namespace.get, ("nominal", "barrier", "row", "run"))
    return PlantRecord(src.names, *kernels, src.clamp)


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


_PENDULUM_SOURCE = _PlantSource(  # sin(theta) and (g/l) sin(theta) are shared with the field
    names=("theta", "theta_dot"),
    shared="sin_theta = sin(theta)\ng_sin = g_over_l * sin_theta\n",
    # -g_sin is (-g_over_l) * sin_theta exactly: negation commutes with rounding
    nominal="u_nom = ml2 * (-g_sin - kp * theta - kd * theta_dot)\n",
    barrier="""\
h = 1.0 - theta * theta / aa - theta_dot * theta_dot / bb - theta * theta_dot / ab
dh_dth = -2.0 * theta / aa - theta_dot / ab
dh_dom = -2.0 * theta_dot / bb - theta / ab
lf_h = dh_dth * theta_dot + dh_dom * g_over_l * sin_theta
lg_h = dh_dom / ml2
""",
    # (omega, g/l sin(theta) + w / (m l^2)): pendulum_dynamics' drift and actuation
    field=("theta_dot", "g_sin + g_entry * w"),
)


@functools.lru_cache(maxsize=64)
def pendulum_record(p: PendulumParams, controller: str = "nominal",
                    epsilon: Optional[EpsilonFunction] = None) -> PlantRecord:
    """The pendulum's closed loop under one of :data:`CONTROLLERS`, "issf"
    with the robustness gain ``epsilon``; see :class:`PlantRecord`."""
    ml2 = p.mass * p.length * p.length
    bindings = dict(aa=p.a * p.a, bb=p.b * p.b, ab=p.a * p.b, g_over_l=p.gravity / p.length,
                    ml2=ml2, g_entry=1.0 / ml2, kp=p.kp, kd=p.kd, sin=math.sin)
    return _record(_PENDULUM_SOURCE, bindings, p.alpha_c, controller, epsilon)


def pendulum_barrier(p: PendulumParams) -> Callable[[np.ndarray], BarrierEvaluation]:
    """Elliptical barrier 1 - theta^2/a^2 - thdot^2/b^2 - theta*thdot/(a*b).

    The cross term matters: it keeps the barrier compatible with the drift on
    the lg_h = 0 line (thdot = -(b/2a) theta); without it certification fails.
    """
    evaluate = pendulum_record(p).barrier

    def barrier(x):
        return BarrierEvaluation(*evaluate((float(x[0]), float(x[1])), None))

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
        for name in ("alpha_c", "gain_range", "gain_speed", "kappa", "d_st", "v_bar_l",
                     "a_bar_l", "a_under_l"):
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
    evaluate = truck_record(p).barrier
    a_l = float(a_l)  # the record runs on floats: a numpy sum that overflows warns

    def barrier(x):
        return BarrierEvaluation(*evaluate((float(x[0]), float(x[1]), float(x[2])), a_l))

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


# Its table: range_policy, speed_policy and truck_headway written out.  The
# gap v_L - v is shared by lf_h and the field, c4 * v by h and lf_h; two_c3
# and two_c5 bind the first products of 2.0 * c3 * v and 2.0 * c5 * v_L, which
# multiply left to right, so every term keeps its bits.
_TRUCK_SOURCE = _PlantSource(
    names=("D", "v", "v_L"),
    shared="gap = v_L - v\n",
    nominal="""\
if D < d_st:
    v_range = 0.0
elif D <= d_go:
    v_range = kappa * (D - d_st)
else:
    v_range = v_bar_l
v_speed = v_L if v_L <= v_bar_l else v_bar_l
u_nom = gain_range * (v_range - v) + gain_speed * (v_speed - v)
""",
    barrier="""\
c4_v = c4 * v
h = D - (c0 + c1 * v + c2 * v_L + c3 * v * v + c4_v * v_L + c5 * v_L * v_L)
lf_h = gap - a * (c2 + c4_v + two_c5 * v_L)
lg_h = -(c1 + two_c3 * v + c4 * v_L)
""",
    field=("gap", "w", "a"),
    clamp=("v", "v_L"),
)


@functools.lru_cache(maxsize=64)
def truck_record(p: TruckParams, controller: str = "nominal",
                 epsilon: Optional[EpsilonFunction] = None) -> PlantRecord:
    """The truck's closed loop, as :func:`pendulum_record`."""
    bindings = dict(c0=p.c0, c1=p.c1, c2=p.c2, c3=p.c3, c4=p.c4, c5=p.c5,
                    two_c3=2.0 * p.c3, two_c5=2.0 * p.c5,
                    gain_range=p.gain_range, gain_speed=p.gain_speed, kappa=p.kappa,
                    d_st=p.d_st, d_go=p.d_go, v_bar_l=p.v_bar_l)
    return _record(_TRUCK_SOURCE, bindings, p.alpha_c, controller, epsilon)


def truck_nominal(p: TruckParams, d: float, v: float, v_l: float) -> float:
    """Connected cruise controller: range-policy and relative-speed error terms."""
    return truck_record(p).nominal((d, v, v_l))


def truck_safe_filter(p: TruckParams, d: float, v: float, v_l: float, a_l: float) -> float:
    """The closed-form filter of the nominal acceleration at (D, v, v_L, a_L).

    In the driving domain lg_h < 0, so the filter caps the nominal command:
    min{k_n, k_s} with k_s the acceleration that makes the constraint active.
    """
    return truck_record(p, "cbf").row((float(d), float(v), float(v_l)), float(a_l))[1]


def truck_robust_filter(p: TruckParams, d: float, v: float, v_l: float, a_l: float,
                        eps0: float, lam: float) -> float:
    """The safe command robustified for bounded input disturbance,
    min{k_n, k_s + lg_h/eps(h)} in the driving domain, with eps(h) =
    eps0 e^{lam h}: earlier and harder braking."""
    return truck_record(p, "issf", EpsilonFunction(eps0, lam)).row(
        (float(d), float(v), float(v_l)), float(a_l))[1]
