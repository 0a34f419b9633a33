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
controller in blocks of ``_BLOCK_ROWS`` rows.  Per block both time
signals are sampled through their array evaluator, ``sample``, once per
distinct stage time, and one ``run`` call logs the rows (inputs and barrier
value; a row's input channel u + d is RK4 stage 1) and takes each step's four
stages and the truck's clamp.  ``rk4_step`` is the same RK4 step, generic
over a field and a controller of (x, t) on tuples.

Each float goes through the same IEEE operations in the same order as the
numpy filters and dynamics, so the logs match a numpy reference integrator
bit for bit; leaving out the matrix product's terms 0 * w can change only
the sign of a zero.  The samples are numpy arrays, and the log is one
float64 table preallocated for the whole run, a row per logged time in the
CSV's column order: t, the states, u_nom, u_filt, d and h.  ``run`` reads
the block's times and samples and writes its rows in place through
memoryviews of them and of the table's columns, whose items are Python
floats, so no float is copied through a list; the log's d column is the
block's samples at t_k, copied array to array.

This module turns arrays into CSV bytes; callers hand it arrays.  A writer
hands each float64 block to a ``_Canvas``, a bytearray of rows, each a
NUL-padded prefix then cells of a 16-byte slot and a separator, and the
canvas formats the block itself.  ``_csv_cells`` turns the block's cells at
once into ``%.9g`` text, a NUL-padded slot per cell, and CPython's
``b"%.9g" % x`` fills the slots of the few whose digits numpy cannot certify:
those near a rounding tie, and the nonzero ones outside about 2e-99 to 1e98
in magnitude, nan and inf included.  The canvas takes the slots behind their
prefixes, and the canvas less its NULs is the block's text; the bytes equal a
per-cell loop's.  ``write_csv_table`` writes a table, a run's log as it is, a
block of rows at a time, ``write_failed_log`` a failed run's partial log and
its closing (t, nan, ...) row, ``write_sweep_csv`` the h* sweep table with a
status per row, and ``write_margin_csv`` the certify margin table, a grid cell
a canvas row behind its D, v_L and v texts as the row's prefix, formatted and
laid out in tiles of up to 6,144 cells.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import SimulationError, linear_class_kappa, state_vector
from .disturbance import (
    DisturbanceSignal,
    lag_residual,
    open_file,
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
    "write_failed_log",
    "write_margin_csv",
    "write_sweep_csv",
]

# Most RK4 steps one run may take: the cap bounds a run's log.
MAX_STEPS = 10_000_000

# Log rows handled at once: run_scenario samples the time signals and makes
# one generated ``run`` call per block, and write_csv_table formats a block of
# rows per numpy pass, so the samples, slots and text take memory bounded by
# the block rather than by the table, and each block amortises its numpy calls.
_BLOCK_ROWS = 1024

# Step of the reference run behind truck_lag_disturbance: fixed, so the
# synthesized signal does not change with the consuming scenario's dt.
_LAG_REFERENCE_DT = 0.01


class SteadyStateWindowError(ValueError):
    """No qualifying constant-leader-speed window in the trajectory."""


class SignalTooShortError(ValueError):
    """A scenario's disturbance or leader does not cover its logged times: it
    starts after t = 0, or it ends before the last logged time.  The two end
    times are printed in full where their ``:g`` texts are the same, say 0.3
    and 3 * 0.1 = 0.30000000000000004."""

    def __init__(self, signal: str, duration: float, t_last: float, start: float = 0.0):
        ends, last = f"{duration:g}", f"{t_last:g}"
        if ends == last:
            ends, last = repr(float(duration)), repr(float(t_last))
        super().__init__(
            f"{signal} starts at t={start:g}, after the first logged time t=0" if start > 0.0
            else f"{signal} ends at t={ends}, before the last logged time t={last}")
        self.signal = signal


# ---------------------------------------------------------------------------
# Leader profiles: the leader acceleration a_L(t) as a time signal
# ---------------------------------------------------------------------------


def _check_leader_v0(v0: float, v_bar_l: float) -> None:
    """A constant or recorded leader may start anywhere in [0, v_bar_l]."""
    if not 0.0 <= v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in [0, {v_bar_l}], got {v0}")


def constant_speed_profile(v0: float, v_bar_l: float = TruckParams.v_bar_l) -> DisturbanceSignal:
    _check_leader_v0(v0, v_bar_l)
    return zero_disturbance()


def hard_brake_profile(
    v0: float,
    t_brake: float,
    a_peak: float,
    duration: float,
    v_bar_l: float = TruckParams.v_bar_l,
    a_under_l: float = TruckParams.a_under_l,
) -> DisturbanceSignal:
    """Constant speed v0 until t_brake, trapezoidal deceleration to standstill.

    ``duration`` is the total braking time; the ramp time follows from the
    requirement that the speed reaches exactly zero:
    ramp = duration - v0/|a_peak|, hold = 2 v0/|a_peak| - duration.
    """
    if not 0.0 < v0 <= v_bar_l:
        raise ValueError(f"v0 must lie in (0, {v_bar_l}], got {v0}")
    if not 0.0 <= t_brake < math.inf:  # which nan fails
        raise ValueError(f"t_brake must be nonnegative and finite, got {t_brake}")
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
    v_bar_l: float = TruckParams.v_bar_l,
    a_bounds: tuple[float, float] = (-TruckParams.a_under_l, TruckParams.a_bar_l),
) -> DisturbanceSignal:
    """Zero-order-hold leader acceleration from a CSV with header ``t,a_L``.

    Non-finite samples, acceleration samples outside ``a_bounds`` and an
    induced speed above ``v_bar_l`` anywhere in the file are rejected at
    load; an induced speed below 0 only warns (the simulator clamps the
    leader's speed at 0).  The induced speed is the simulated leader's: it
    starts from ``v0`` at t = 0, so samples before 0 do not move it.
    """
    t, a = read_csv_samples(path, "a_L")
    signal = sampled_disturbance(t, a)
    if not np.all((a >= a_bounds[0]) & (a <= a_bounds[1])):
        raise ValueError(f"{path}: acceleration samples must lie within {a_bounds}")
    _check_leader_v0(v0, v_bar_l)

    # induced speed is piecewise linear under the hold, from v0 at t = 0
    v_knots = v0 + np.concatenate(([0.0], np.cumsum(a[:-1] * np.diff(np.maximum(t, 0.0)))))
    if np.any(v_knots > v_bar_l + 1e-9):
        raise ValueError(f"{path}: induced leader speed must stay at most v_bar_l = {v_bar_l}")
    if np.any(v_knots < -1e-9):
        warnings.warn("induced leader speed falls below 0; the simulator clamps it at 0")
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
    to be finite; a ValueError or ArithmeticError in a stage, a ``**`` or
    ``exp`` that overflows or a controller's barrier check, say, is a
    non-finite derivative at the stage's time and state.
    The plant records' generated ``run`` writes it out on their own floats,
    with the same stage times, checks and errors.

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

    half = 0.5 * dt
    t_mid, t_end = t + half, t + dt - 1e-9 * dt
    ts, xs = t, x  # the stage being evaluated
    try:
        k1 = derivative(x, t, (controller(x, t) if u0 is None else u0) + disturbance(t))
        ts, xs = t_mid, tuple([xi + half * ki for xi, ki in zip(x, k1)])
        u = controller(xs, t_mid)
        # stages 2 and 3 share one sample, taken after stage 2's controller
        # call, so an error from the controller at t + dt/2 surfaces first
        d_mid = disturbance(t_mid)
        k2 = derivative(xs, t_mid, u + d_mid)
        xs = tuple([xi + half * ki for xi, ki in zip(x, k2)])
        k3 = derivative(xs, t_mid, controller(xs, t_mid) + d_mid)
        ts, xs = t_end, tuple([xi + dt * ki for xi, ki in zip(x, k3)])
        k4 = derivative(xs, t_end, controller(xs, t_end) + disturbance(t_end))
    except (ValueError, ArithmeticError) as err:
        raise SimulationError.non_finite("derivative", ts, xs) from err
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

    ``log`` is the run's one table, a row per logged time in the CSV's column
    order: t, the states, u_nom, u_filt, d and h.  ``time``, ``states``,
    ``u_nom``, ``u_filt``, ``d`` and ``h`` are read-only views of its columns,
    and ``h_min`` is the least h.  The h column is the barrier value the
    filter computed at each logged state; it equals h(x), so it can always be
    recomputed from the state log alone.
    """

    name: str
    plant: str
    controller: str
    state_labels: tuple
    log: np.ndarray
    h_star: Optional[float]
    clamp_counts: dict

    time = property(lambda self: self.log[:, 0])
    states = property(lambda self: self.log[:, 1:-4])
    u_nom = property(lambda self: self.log[:, -4])
    u_filt = property(lambda self: self.log[:, -3])
    d = property(lambda self: self.log[:, -2])
    h = property(lambda self: self.log[:, -1])
    h_min = property(lambda self: float(np.min(self.h)))

    def __post_init__(self):
        # a read-only view, so its column views are read-only too
        self.log = self.log.view()
        self.log.flags.writeable = False

    def to_csv(self, path) -> None:
        """Plot-ready log: t,<state columns>,u_nom,u_filt,d,h at 9 significant digits."""
        header = "t," + ",".join(self.state_labels) + ",u_nom,u_filt,d,h"
        write_csv_table(path, header, self.log)


def write_failed_log(path, err: SimulationError) -> None:
    """The log of the run that raised ``err``: the rows of ``err.partial``,
    then the row (err.t, nan, ...) at the time of its last good row."""
    err.partial.to_csv(path)
    row = [err.t] + [math.nan] * (err.partial.log.shape[1] - 1)
    with open_file(path, "ab") as handle:
        handle.write(_Canvas(1, len(row)).text(np.array([row])))


def write_csv_table(path, header: str, table) -> None:
    """Write ``header`` and the rows of a 2-d float table, an array or a
    nested list, as CSV, 9 significant digits.

    Each block of ``_BLOCK_ROWS`` rows is formatted straight from the table,
    so no copy of the whole table is made, laid out in one ``_Canvas`` kept
    for the file, and written to a binary file.  Every cell's bytes are
    ``b"%.9g" % x``, CPython's correctly rounded formatter (the one
    ``"%.9g" % x`` and ``f"{x:.9g}"`` use), so the file matches a per-cell
    loop, ``nan``, ``inf`` and ``-0`` included.
    """
    table = np.asarray(table, np.float64)
    canvas = _Canvas(min(_BLOCK_ROWS, len(table)), table.shape[1])
    with open_file(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            handle.write(canvas.text(table[start:start + _BLOCK_ROWS]))


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: in double quotes, each quote doubled (RFC
    4180), when it holds a comma, a quote or a line break."""
    return '"%s"' % text.replace('"', '""') if re.search(r'[,"\r\n]', text) else text


def write_sweep_csv(path, blocks) -> None:
    """The h* sweep table "eps0,lambda,h_star,status", in write_csv_table's
    bytes and a status per row.  ``blocks`` yields (cells, statuses): a
    (rows, 3) float block of (eps0, lambda, h*) rows, none longer than the
    first block's, and a dict of the status texts of its rows, by row, for
    the rows whose status is not "ok"; a status goes out as one CSV field."""
    canvas = None
    with open_file(path, "wb") as handle:
        handle.write(b"eps0,lambda,h_star,status\n")
        for cells, statuses in blocks:
            canvas = canvas or _Canvas(len(cells), 3)
            text = canvas.text(cells).replace(b"\n", b",ok\n")
            if statuses:
                lines = text.splitlines(keepends=True)
                for row, status in statuses.items():
                    lines[row] = lines[row][:-3] + _csv_field(status).encode() + b"\n"
                text = b"".join(lines)
            handle.write(text)


# Grid cells per tile of write_margin_csv: whole grid rows of at most this
# many cells, or this many columns of one row, formatted and laid out at once.
# The tile's canvas, about 47 bytes a cell on a wide grid, stays alive
# through the scan's next block: this is the largest multiple of 512 that
# keeps a 2 x 125,000 certify's traced peak under 7.6 MB also when the same
# call builds the command-line parser, about 80 KB more.
_MARGIN_PIECE_CELLS = 6144


def write_margin_csv(path, d_axis, vl_axis, v_axis, blocks) -> None:
    """The rows (D[i], v_L[j], v[j], margin[i, j]), row-major, in write_csv_table's bytes,
    from a scan of verification.truck_margin_table: ``blocks`` yields (i, margin rows
    i, i + 1, ...) in order, and each block's rows are written as it comes.  A failure
    partway, a block's overflow among them, leaves no file.

    Each "v_L,v," tail is formatted once, each "D," lead once per block, both with
    b"%.9g".  Each tile of a block, whole grid rows of at most ``_MARGIN_PIECE_CELLS``
    cells or that many columns of one row, is formatted and laid out in one
    ``_Canvas`` of one-cell rows whose prefix is the lead and the tail.  The canvas is
    made anew when a block's leads change width, and the tails of a tile's columns are
    copied in when they change: once per canvas for a grid of rows up to a tile wide."""
    step, ny = _MARGIN_PIECE_CELLS, len(vl_axis)
    # each tile's tails as wide as its longest text
    tails = [np.array([b"%.9g,%.9g," % pair for pair in zip(vl_axis[j:j + step].tolist(),
                                                            v_axis[j:j + step].tolist())])
             for j in range(0, ny, step)]
    width = max(tail.itemsize for tail in tails)
    rows, cols, lead = max(1, step // ny), min(ny, step), None
    with open_file(path, "wb") as handle:
        try:
            handle.write(b"D,v_L,v,margin\n")
            for i, block in blocks:
                leads = np.array([b"%.9g," % d for d in d_axis[i:i + len(block)].tolist()])
                if leads.itemsize != lead:
                    lead, shown = leads.itemsize, None
                    canvas = _Canvas(rows * cols, 1, lead + width)
                    prefix = canvas.prefix.reshape(rows, cols, -1)
                    lead_text = prefix[:, :, :lead].view(f"V{lead}")
                    tail_text = prefix[:, :, lead:]
                leads = leads.view(f"V{lead}")[:, None, None]
                for r in range(0, len(block), rows):
                    for j in range(0, ny, cols):
                        tile = block[r:r + rows, j:j + cols]
                        if j != shown:
                            tail, shown = tails[j // step], j
                            n, w = len(tail), tail.itemsize
                            tail_text[:, :n, :w] = tail.view(np.uint8).reshape(n, w)
                            tail_text[:, :n, w:] = 0
                        lead_text[:len(tile), :tile.shape[1]] = leads[r:r + rows]
                        handle.write(canvas.text(tile.reshape(-1, 1)))
        except BaseException:
            handle.close()
            os.remove(path)
            raise


class _Canvas:
    """The layout of a block's CSV text, in one bytearray kept across blocks.
    Each of its ``rows`` rows is a NUL-padded prefix of ``width`` bytes,
    which the caller writes through ``prefix``, then ``cols`` cells: a
    16-byte slot and its separator, "," or, after the last cell, "\\n",
    written once here.  ``text`` formats a float64 block with ``_csv_cells``,
    copies its slots in behind the prefixes and returns the block's rows less
    their NULs."""

    def __init__(self, rows: int, cols: int, width: int = 0):
        self.buffer = bytearray(rows * (width + 17 * cols))
        lines = np.frombuffer(self.buffer, np.uint8).reshape(rows, width + 17 * cols)
        cells = lines[:, width:].reshape(rows, cols, 17)
        cells[:, :, 16] = ord(",")
        cells[:, -1, 16] = ord("\n")
        self.prefix, self.stride = lines[:, :width], lines.shape[1]
        self.slots = cells[:, :, :16].view("V16")[:, :, 0]  # whole slots, each copied at once

    def text(self, block: np.ndarray) -> bytearray:
        """The rows of ``block``, a (rows, cols) float64 array, at 9
        significant digits behind their prefixes; at most the canvas's rows,
        all of its columns.  The block's own slots are freed before the NULs
        are taken out."""
        rows = len(block)
        self.slots[:rows] = _csv_cells(block)
        size = rows * self.stride
        text = self.buffer if size == len(self.buffer) else self.buffer[:size]
        return text.translate(None, b"\0")


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
# words: byte 0 the sign, bytes 1-14 the body, NUL elsewhere.  The body is
# the mantissa (the kept digits of N, with the point after one of them)
# shifted up past the prefix "0.", "0.0", "0.00" or "0.000", with an
# exponent "e+XX" at bytes 11-14.  A _Canvas writes the separator in the
# byte after each slot, and bytearray.translate drops the NULs.

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
    """The 16-byte slots of the cells."""
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


def _csv_cells(x: np.ndarray) -> np.ndarray:
    """The ``b"%.9g" % x`` text of each cell of a 2-d float64 block, NUL-padded
    in a 16-byte slot, as a "V16" array shaped like the block: numpy's text,
    or CPython's for each cell that numpy cannot certify."""
    flat = x.ravel()
    zero = flat == 0
    e, n, fall = _csv_round(flat)
    slots = _csv_slots(flat, zero, e, n)
    fallback = np.flatnonzero(fall & ~zero)
    if fallback.size:
        slots.view("S16")[fallback, 0] = [b"%.9g" % value for value in flat[fallback].tolist()]
    return slots.view("V16").reshape(x.shape)


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
    # the log, one row per logged time: t, the states, u_nom, u_filt, d and h
    log = np.empty((n_steps + 1, len(labels) + 5))
    time = np.multiply(np.arange(n_steps + 1), dt, out=log[:, 0])
    clamp_counts = dict.fromkeys(clamped, 0)
    no_leader = (itertools.repeat(None),) * 3

    def logged(k, h_star=None):
        # the result of the log up to row k
        return ScenarioResult(name=scn.name, plant=scn.plant, controller=scn.controller,
                              state_labels=labels, log=log[: k + 1], h_star=h_star,
                              clamp_counts=clamp_counts)

    for start in range(0, n_steps + 1, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_steps + 1)
        a, d = _stage_samples(scn, time[start:stop], stop == n_steps + 1)
        # run reads the samples and writes the log's state, u_nom, u_filt and
        # h columns in place, through memoryviews of strided columns: a
        # buffer's items are Python floats, with no list copy
        a_rows, a_mids, a_ends = no_leader if a is None else map(memoryview, a.T)
        d_rows, d_mids, d_ends = map(memoryview, d.T)
        columns = [memoryview(log[start:stop, j]) for j in (*range(1, len(labels) + 3), -1)]
        rows, x, err = run(x, memoryview(time[start:stop]), dt, a_rows, d_rows, a_mids, d_mids,
                           a_ends, d_ends, stop - start, n_steps - start, columns, clamp_counts)
        end = start + rows
        log[start:end, -2] = d[:rows, 0]
        if start == 0 and rows and log[0, -1] < 0.0:
            warnings.warn(f"scenario {scn.name!r}: initial state is outside the safe set")
        if err is not None:
            # a ValueError is the barrier terms overflowing at a state the run
            # reached; at row 0, that is the caller's initial state
            if end == 0:
                raise err
            # the run failed after logging row end - 1: attach the log up to
            # that row, which write_failed_log writes
            t = float(time[end - 1])
            failed = SimulationError(f"scenario {scn.name!r} failed at t={t:g}: {err}",
                                     t=t, state=log[end - 1, 1:len(labels) + 1])
            failed.partial = logged(end - 1)
            raise failed from err

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
    command, from a reference run at ``_LAG_REFERENCE_DT``.  ``horizon`` is
    the consuming run's last logged time: the reference runs to the first
    point of its grid at or after it, so the residual covers that run.  The
    run is causal, so its samples at earlier times do not depend on where it
    ends; a CSV leader must reach that grid point.
    """
    steps = step_count(horizon, _LAG_REFERENCE_DT)
    steps += steps * _LAG_REFERENCE_DT < horizon
    reference = run_scenario(
        Scenario(
            name="lag-reference",
            plant="truck",
            controller="cbf",
            x0=tuple(x0),
            horizon=steps * _LAG_REFERENCE_DT,
            dt=_LAG_REFERENCE_DT,
            disturbance=zero_disturbance(),
            truck=p,
            leader=leader,
        )
    )
    return lag_residual(reference.time, reference.u_filt, tau)
