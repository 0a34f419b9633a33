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

``write_csv_table`` writes a log as ``%.9g`` text a block of rows at a time.
numpy formats a block's cells at once, and CPython's ``b"%.9g" % x`` the few
whose digits it cannot certify: those near a rounding tie, and the nonzero
ones outside about 2e-99 to 1e98 in magnitude, nan and inf included.  The
bytes equal a per-cell loop's.  The certify margin CSV takes the same path,
its D, v_L and v texts going in front of each row as a prefix.
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
from .issf import EpsilonFunction, check_delta, solve_h_star
from .plants import (
    PendulumParams,
    TruckParams,
    check_controller,
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
    "check_timing",
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

# Rows per block of write_csv_table: enough to amortise its numpy calls, few
# enough that one block's slots and text stay small next to the table itself.
_CSV_BLOCK_ROWS = 1024

# Step of the reference run behind truck_lag_disturbance: fixed, so the
# synthesized signal does not change with the consuming scenario's dt.
_LAG_REFERENCE_DT = 0.01


class SteadyStateWindowError(ValueError):
    """No qualifying constant-leader-speed window in the trajectory."""


class SignalTooShortError(ValueError):
    """A scenario's disturbance or leader does not cover its logged times: it
    starts after t = 0, or it ends before the last logged time."""

    def __init__(self, signal: str, duration: float, t_last: float, start: float = 0.0):
        super().__init__(
            f"{signal} starts at t={start:g}, after the first logged time t=0" if start > 0.0
            else f"{signal} ends at t={duration:g}, before the last logged time t={t_last:g}")
        self.signal = signal


# ---------------------------------------------------------------------------
# Leader profiles: the leader acceleration a_L(t) as a time signal
# ---------------------------------------------------------------------------


def _check_leader_v0(v0: float, v_bar_l: float) -> None:
    """A constant or recorded leader may start anywhere in [0, v_bar_l]."""
    if not 0.0 <= v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in [0, {v_bar_l}], got {v0}")


def constant_speed_profile(v0: float, v_bar_l: float = 20.0) -> DisturbanceSignal:
    _check_leader_v0(v0, v_bar_l)
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
    _check_leader_v0(v0, v_bar_l)

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
        check_controller(self.controller, self.epsilon)
        # checked before run_scenario allocates its n_steps + 1 log rows
        check_timing(self.dt, self.horizon)
        if self.plant == "pendulum" and self.pendulum is None:
            raise ValueError("pendulum scenario needs pendulum params")
        if self.plant == "truck" and (self.truck is None or self.leader is None):
            raise ValueError("truck scenario needs truck params and a leader profile")
        check_delta(self.delta)
        t_last = self.n_steps * self.dt
        for name, signal in (("disturbance", self.disturbance), ("leader", self.leader)):
            if signal is not None and (signal.start > 0.0 or signal.duration < t_last):
                raise SignalTooShortError(name, signal.duration, t_last, signal.start)

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
    of the whole table is made, formatted by ``_csv_text`` and written to a
    binary file.  Every cell's bytes are ``b"%.9g" % x``, CPython's correctly
    rounded formatter (the one ``"%.9g" % x`` and ``f"{x:.9g}"`` use), so the
    file matches a per-cell loop, ``nan``, ``inf`` and ``-0`` included.
    """
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([column[start:start + _CSV_BLOCK_ROWS]
                                     for column in columns])
            handle.write(_csv_text(block.astype(np.float64, copy=False)))


# ---------------------------------------------------------------------------
# CSV numbers: b"%.9g" % x for a block of float64 cells at once
# ---------------------------------------------------------------------------
#
# numpy formats zero and every cell with |x| between about 2e-99 and 1e98.
# Its decimal exponent e comes from its binary exponent and one comparison
# with a correctly rounded 10**(e + 1), and its nine significant digits are
# N = rint(|x| * fl(10**(8 - e))).  The product carries two roundings, so it
# lies within 2.3e-7 of the exact |x| * 10**(8 - e) below 1e9: N is the
# correctly rounded digit string unless the product lies within _CSV_MARGIN
# of a rounding tie.  Such a cell, one whose product leaves [1e8, 1e9] by
# more than the margin (an e that the table got wrong), and every nonzero
# cell outside that range (subnormal, tiny, huge, inf, nan) gets
# b"%.9g" % x instead.  A product that rounds to 1e9 carries into e + 1, so
# a value within the margin of a power of ten gets the same text whichever
# of the two exponents next to it the comparison gave.
#
# The vector text is laid out in a 16-byte slot, two little-endian uint64
# words: byte 0 the sign, bytes 1-14 the body, byte 15 the separator, NUL
# elsewhere.  The body is the mantissa (the kept digits of N, with the point
# after one of them) shifted up past the prefix "0.", "0.0", "0.00" or
# "0.000", with an exponent "e+XX" at bytes 11-14.  bytes.translate drops
# the NULs.

_CSV_MARGIN = 1e-6
# Exponents the vector path writes, after a carry: two-digit ones, so the
# longest text, "-1.23456789e-99", fits the slot.
_CSV_E_LOW, _CSV_E_HIGH = -99, 99
# Layouts per sign: 9 digit counts for each fixed-point exponent -4..8, 9 for
# the exponent form, then zero; the negative ones follow at +128.
_CSV_ZERO, _CSV_NEGATIVE = 126, 128
_U8, _U16, _U24, _U48, _U52, _U56, _U64 = (np.uint64(k) for k in (8, 16, 24, 48, 52, 56, 64))


def _slot_word(text: bytes, at: int = 0) -> int:
    """``text`` as the bytes of a slot from byte ``at``, as a 128-bit int."""
    return int.from_bytes(text, "little") << (8 * at)


def _csv_layouts() -> tuple:
    """Per layout, as 128-bit ints split into (low, high) uint64 words: the
    mask of the mantissa's head (its digits up to the point), the mask of its
    tail (the kept digits after the point, moved up a byte to make room for
    it), the shift past the sign and prefix in bits, and the constant bytes
    (sign, prefix, point, or the zero's "0")."""
    columns = [[0] * (2 * _CSV_NEGATIVE) for _ in range(7)]

    def put(layout, kept, point=None, prefix=b"", zero=b""):
        head = kept if point is None else point + 1
        head_mask = _slot_word(b"\xff" * head)
        tail_mask = _slot_word(b"\xff" * (kept - head), head)
        front = _slot_word(prefix + (b"" if point is None else b"\0" * head + b".") + zero, 1)
        for column, value in zip(columns, (head_mask, head_mask >> 64, tail_mask, tail_mask >> 64,
                                           8 + 8 * len(prefix), front, front >> 64)):
            column[layout] = column[layout + _CSV_NEGATIVE] = value & 0xFFFFFFFFFFFFFFFF
        columns[5][layout + _CSV_NEGATIVE] |= ord("-")

    for e in range(-4, 9):
        for digits in range(1, 10):
            if e >= 0:
                put((e + 4) * 9 + digits - 1, max(digits, e + 1),
                    e if digits > e + 1 else None)
            else:
                put((e + 4) * 9 + digits - 1, digits, prefix=b"0." + b"0" * (-e - 1))
    for digits in range(1, 10):
        put(117 + digits - 1, digits, 0 if digits > 1 else None)
    put(_CSV_ZERO, 0, zero=b"0")
    return tuple(np.array(column, np.uint64) for column in columns)


def _csv_tables() -> tuple:
    """The formatter's lookup tables, per binary exponent, per decimal
    exponent, per three digits and per layout.  Built in Python: numpy code
    run at import only would add its pages to every process's memory."""
    exponents = range(_CSV_E_LOW, _CSV_E_HIGH + 1)
    # 10**k, correctly rounded, for k from _CSV_E_LOW on
    powers = [float(f"1e{k}") for k in range(_CSV_E_LOW, 9 - _CSV_E_LOW)]
    # per biased binary exponent b = 1023 + q: the lower of the two decimal
    # exponents that 2**q .. 2**(q + 1) spans, floor(q log10 2), and 10 to
    # the upper one, for the q whose exponents stay in range after a carry
    log2 = math.log10(2.0)
    q_low, q_high = math.ceil(_CSV_E_LOW / log2), math.ceil((_CSV_E_HIGH - 1) / log2) - 1
    e_low = [math.floor(q * log2) for q in range(q_low, q_high + 1)]
    below, above = 1023 + q_low, 1024 - q_high
    vector = [False] * below + [True] * len(e_low) + [False] * above
    outside = 8 - _CSV_E_LOW  # e = 8, 10**0 = 1: a harmless scale
    e_index = [outside] * below + [e - _CSV_E_LOW for e in e_low] + [outside] * above
    ten_above = ([math.inf] * below + [powers[e + 1 - _CSV_E_LOW] for e in e_low]
                 + [math.inf] * above)
    # per decimal exponent: the scale to nine digits, the exponent text at
    # bytes 11-14 (the high word's bytes 3-6), the base of its layouts
    scale = [powers[8 - e - _CSV_E_LOW] for e in exponents]
    suffix = [0 if -4 <= e <= 8 else _slot_word(b"e%+03d" % e, 11) >> 64 for e in exponents]
    base = [(e + 4) * 9 + 8 if -4 <= e <= 8 else 125 for e in exponents]
    # per three digits v: their characters at bytes 0-2, and their trailing
    # zeros (3 for v = 0)
    digits3 = np.frombuffer(b"".join([b"%03d\0\0\0\0\0" % v for v in range(1000)]), "<u8")
    zeros3 = [3] + [(v % 10 == 0) + (v % 100 == 0) for v in range(1, 1000)]
    return (np.array(vector), np.array(e_index, np.uint16), np.array(ten_above),
            np.array(scale), np.array(suffix, np.uint64), np.array(base, np.uint16),
            digits3.astype(np.uint64), np.array(zeros3, np.uint8), _csv_layouts())


(_CSV_VECTOR, _CSV_E_INDEX, _CSV_TEN_ABOVE, _CSV_SCALE, _CSV_SUFFIX, _CSV_BASE,
 _CSV_DIGITS3, _CSV_ZEROS3, _CSV_LAYOUT) = _csv_tables()


def _csv_round(x: np.ndarray) -> tuple:
    """Each cell's decimal exponent (an index into the per-exponent tables),
    its nine digits N as int32, and whether it goes to b"%.9g" % x (zeros
    included, as they are outside the vector range)."""
    a = np.abs(x)
    b = (a.view(np.uint64) >> _U52).astype(np.uint16)
    vector = _CSV_VECTOR.take(b)
    a[~vector] = 2e8  # any value whose digits are harmless
    e = _CSV_E_INDEX.take(b)
    e += a >= _CSV_TEN_ABOVE.take(b)
    a *= _CSV_SCALE.take(e)
    n = np.rint(a)
    fall = np.abs(a - n) > 0.5 - _CSV_MARGIN
    fall |= a < 1e8 - _CSV_MARGIN
    fall |= a > 1e9 + _CSV_MARGIN
    fall |= ~vector
    carry = n == 1e9
    e += carry
    n[carry | fall] = 1e8
    return e, n.astype(np.int32), fall


def _csv_mantissa(n: np.ndarray) -> tuple:
    """The nine digit characters of each N at bytes 0-8 of a slot, as (low,
    high) words, and N's trailing zeros; ``n`` is overwritten."""
    high = n // 1000000
    n -= high * 1000000
    mid = n // 1000
    n -= mid * 1000
    zeros = np.where(n != 0, _CSV_ZEROS3.take(n),
                     np.where(mid != 0, _CSV_ZEROS3.take(mid) + 3, _CSV_ZEROS3.take(high) + 6))
    lo = _CSV_DIGITS3.take(mid) << _U24
    lo |= _CSV_DIGITS3.take(high)
    hi = _CSV_DIGITS3.take(n)
    lo |= hi << _U48
    hi >>= _U16
    return lo, hi, zeros


def _csv_slots(x: np.ndarray, zero: np.ndarray, e: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The 16-byte slots of the cells, separators not yet written."""
    lo, hi, zeros = _csv_mantissa(n)
    layout = _CSV_BASE.take(e) - zeros
    layout[zero] = _CSV_ZERO
    layout |= np.signbit(x).view(np.uint8) << 7
    head_lo, head_hi, tail_lo, tail_hi, shift, front_lo, front_hi = _CSV_LAYOUT
    # the head stays, the tail moves up a byte past the point
    tail = lo & tail_lo.take(layout)
    lo &= head_lo.take(layout)
    lo |= tail << _U8
    tail >>= _U56
    tail |= (hi & tail_hi.take(layout)) << _U8
    hi &= head_hi.take(layout)
    hi |= tail
    del tail
    # the mantissa moves up past the sign and prefix, under the constant bytes
    shift = shift.take(layout)
    hi <<= shift
    hi |= lo >> (_U64 - shift)
    hi |= front_hi.take(layout)
    hi |= _CSV_SUFFIX.take(e)
    lo <<= shift
    lo |= front_lo.take(layout)
    slots = np.empty((x.size, 2), "<u8")  # little-endian whatever the machine
    slots[:, 0], slots[:, 1] = lo, hi
    return slots


def _csv_text(block: np.ndarray, prefix: np.ndarray | None = None) -> bytes:
    """The rows of a float64 block as CSV text: each cell ``b"%.9g" % x``.

    ``prefix``, an (rows, w) uint8 array of NUL-padded text, goes in front of
    each row's cells, so a row reads prefix + cells + "\\n"."""
    rows, cols = block.shape
    x = block.ravel()
    zero = x == 0
    e, n, fall = _csv_round(x)
    slots = _csv_slots(x, zero, e, n)
    fallback = np.flatnonzero(fall & ~zero)
    slots[fallback] = 0
    cells = slots.view(np.uint8).reshape(rows, cols, 16)
    cells[:, :-1, 15] = ord(",")
    cells[:, -1, 15] = ord("\n")
    width = 0 if prefix is None else prefix.shape[1]
    if width:
        canvas = np.empty((rows, width + 16 * cols), np.uint8)
        canvas[:, :width] = prefix
        canvas[:, width:] = cells.reshape(rows, 16 * cols)
        cells = canvas
    data = cells.tobytes()
    del slots, cells
    # a fallback cell's slot holds only its separator: its text goes in front
    pieces, start, stride = [], 0, width + 16 * cols
    for i, value in zip(fallback.tolist(), x[fallback].tolist()):
        at = i // cols * stride + width + i % cols * 16
        pieces += (data[start:at].translate(None, b"\0"), b"%.9g" % value)
        start = at
    pieces.append(data[start:].translate(None, b"\0"))
    return b"".join(pieces)


def step_count(horizon: float, dt: float) -> int:
    """RK4 steps in a run of ``horizon`` seconds at step ``dt``.

    The 1e-9 keeps a horizon that is a whole number of steps from losing its
    last step to rounding in horizon / dt.
    """
    return int(math.floor(horizon / dt + 1e-9))


def check_timing(dt: float, horizon: float, dt_name: str = "dt", horizon_name: str = "horizon",
                 error: type = ValueError) -> None:
    """The timing rule of a run: dt > 0 and horizon >= dt, both finite, and at
    most ``MAX_STEPS`` steps.  A violation is an ``error`` that calls the two
    values by ``dt_name`` and ``horizon_name``."""
    if not (math.isfinite(dt) and dt > 0):
        raise error(f"{dt_name} must be a positive finite number, got {dt!r}")
    if not (math.isfinite(horizon) and horizon >= dt):
        raise error(f"{horizon_name} must be finite and >= dt = {dt!r}, got {horizon!r}")
    # horizon / dt can overflow to inf, which step_count cannot floor
    if horizon / dt > MAX_STEPS + 1 or step_count(horizon, dt) > MAX_STEPS:
        raise error(f"{horizon_name} must be at most MAX_STEPS = {MAX_STEPS} steps "
                    f"of dt = {dt!r}, got {horizon!r}")


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
