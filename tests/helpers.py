"""Independent oracles, a reference integrator and samplers shared across the test suite.

The oracles may not call the closed-form formulas they check: the projection
oracle is derived from the geometry of a point-to-half-space projection, the
grid oracle from brute-force enumeration, the switching oracle from the
single-input min/max form, the admissibility oracle from the constraint
itself and the h* oracle bisects the fixed-point equation, so all of them
stay independent of the code paths they check.  The reference integrator is
different in kind: it replays the closed loop on numpy arrays, built from the
public numpy barriers, nominal controllers and dynamics of ``plants`` rather
than from the simulator's own maps, with every quantity evaluated on its own
and filtered by ``reference_filter``, a numpy copy of the filter formula
written apart from ``cbf.filter_function``.  So the simulator's float engine,
its shared evaluations and its one filter formula can be checked against it
bit for bit, for both plants.  Its time signals are
sampled once per run, through their array evaluator, at its stage times.  The
reference CSV writers format each cell on its own, the way the block writer's
output must read byte for byte.  The reference truck margin scan is the
one-shot broadcast expression that the in-place block scan must match bit for
bit, and the reference lag recurrence runs on numpy scalars.
"""

import math

import numpy as np

from safefilter import (
    DimensionError,
    PendulumParams,
    SimulationError,
    TruckParams,
    pendulum_barrier,
    pendulum_dynamics,
    pendulum_nominal,
    set_inflation,
    truck_barrier,
    truck_dynamics,
    truck_headway,
    truck_nominal,
)
from safefilter.cbf import LG_ZERO_TOL

GRID_LO = -100.0
GRID_HI = 100.0
GRID_STEP = 1e-3

# Filtered inputs land on the constraint boundary up to rounding, so
# admissibility checks carry a small slack, scaled with the magnitude of the
# quantities compared.
ADMISSIBLE_SLACK = 1e-9

# The truck's published robust design, as in the truck presets' issf
# sections: the gain's (eps0, lam) pair and the disturbance bound delta.
TRUCK_PAIR = (0.5, 0.4)
TRUCK_DELTA = 4.5


def project_halfspace(u_nom, normal, rhs):
    """Euclidean projection of u_nom onto {u : normal . u >= rhs}.

    If the point already satisfies the constraint it is its own projection;
    otherwise it moves along the normal until the constraint is active.
    """
    u_nom = np.atleast_1d(np.asarray(u_nom, dtype=float))
    normal = np.atleast_1d(np.asarray(normal, dtype=float))
    s = float(normal @ normal)
    if s == 0.0:
        return u_nom  # degenerate constraint: either trivially true or infeasible
    slack = float(normal @ u_nom) - rhs
    if slack >= 0.0:
        return u_nom
    return u_nom - (slack / s) * normal


def grid_search_scalar(u_nom, lg, rhs, enumerate_all=False):
    """argmin_{u in grid, lg*u >= rhs} |u - u_nom| over the uniform grid
    [GRID_LO, GRID_HI] with step GRID_STEP.

    The fast path locates the feasibility boundary index and clamps the
    nearest-to-nominal index into the feasible range, which is exactly the
    enumeration argmin (up to ties at half-step midpoints); ``enumerate_all``
    runs the literal brute force for cross-checking the fast path.
    """
    n = int(round((GRID_HI - GRID_LO) / GRID_STEP))

    def point(i):
        return GRID_LO + i * GRID_STEP

    if enumerate_all:
        grid = GRID_LO + np.arange(n + 1) * GRID_STEP
        feasible = lg * grid >= rhs
        if not np.any(feasible):
            raise ValueError("no feasible grid point")
        cost = np.where(feasible, np.abs(grid - u_nom), np.inf)
        return float(grid[int(np.argmin(cost))])

    if lg == 0.0:
        if 0.0 < rhs:
            raise ValueError("no feasible grid point")
        i_lo, i_hi = 0, n
    elif lg > 0.0:
        bound = rhs / lg  # u >= bound
        if bound > GRID_HI:
            raise ValueError("no feasible grid point")
        i_lo = 0 if bound < GRID_LO else int(np.ceil((bound - GRID_LO) / GRID_STEP))
        # settle float rounding against the same predicate enumeration uses
        while i_lo <= n and lg * point(i_lo) < rhs:
            i_lo += 1
        while i_lo > 0 and lg * point(i_lo - 1) >= rhs:
            i_lo -= 1
        i_hi = n
        if i_lo > n:
            raise ValueError("no feasible grid point")
    else:
        bound = rhs / lg  # u <= bound
        if bound < GRID_LO:
            raise ValueError("no feasible grid point")
        i_hi = n if bound > GRID_HI else int(np.floor((bound - GRID_LO) / GRID_STEP))
        while i_hi >= 0 and lg * point(i_hi) < rhs:
            i_hi -= 1
        while i_hi < n and lg * point(i_hi + 1) >= rhs:
            i_hi += 1
        i_lo = 0
        if i_hi < 0:
            raise ValueError("no feasible grid point")
    nearest = int(round((u_nom - GRID_LO) / GRID_STEP))
    return point(min(max(nearest, i_lo), i_hi))


def _robust_limit(epsilon, h, lg):
    """lg / eps(h) with the limits the filters take where eps(h) leaves the
    float range: 0 where it overflows, +-inf (unless lg = 0) where it
    underflows to 0."""
    try:
        eps = epsilon(h)
    except OverflowError:
        return 0.0
    if eps > 0.0:
        return lg / eps
    return math.copysign(math.inf, lg) if lg != 0.0 else 0.0


def in_admissible_set(filt, x, u, tol=ADMISSIBLE_SLACK):
    """Whether input u satisfies the filter's barrier constraint at state x:
    hdot(x, u) >= -alpha(h), tightened by ||lg_h||^2 / eps(h) for a filter
    with a robustness gain."""
    be = filt.barrier(x)
    rate = be.hdot(u)
    floor = -filt.alpha(be.h)
    if filt.epsilon is not None:
        s = float(be.lg_h @ be.lg_h)
        floor = floor + _robust_limit(filt.epsilon, be.h, s)
    return rate >= floor - tol * max(1.0, abs(rate), abs(floor))


def switching_filter(filt, x):
    """The single-input min/max form of a filter at state x.

    For lg_h > 0 the safe input is a lower bound (max), for lg_h < 0 an upper
    bound (min); on lg_h = 0 the nominal input passes through.  A robustness
    gain moves the bound by lg_h / eps(h).  This is the form the truck filter
    used to be written in; it agrees with the projection to rounding.
    """
    be = filt.barrier(x)
    if be.lg_h.shape[0] != 1:
        raise DimensionError(f"switching form needs a single-input plant, "
                             f"got m={be.lg_h.shape[0]}")
    u_nom = float(np.atleast_1d(np.asarray(filt.nominal(x), dtype=float))[0])
    lg = float(be.lg_h[0])
    if abs(lg) <= LG_ZERO_TOL:
        return u_nom
    u_safe = -(be.lf_h + filt.alpha(be.h)) / lg
    if filt.epsilon is not None:
        u_safe = u_safe + _robust_limit(filt.epsilon, be.h, lg)
    return max(u_nom, u_safe) if lg > 0.0 else min(u_nom, u_safe)


def bisect_h_star(alpha, epsilon, delta, lower=-1e6, tol=1e-8):
    """The degraded safety level by bisection: the root of
    h + set_inflation(h, delta) = 0 on [lower, 0], run to the floating-point
    limit, with its residual verified against ``tol``.  It needs no closed
    form, so it is the oracle ``issf.solve_h_star`` is checked against; the
    root lies in [-set_inflation(0, delta), 0], which makes that a bracket."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return 0.0

    def residual(h):
        return h + set_inflation(alpha, epsilon, h, delta)

    lo, hi = float(lower), 0.0
    if residual(lo) >= 0.0:
        raise ValueError(f"no sign change on [{lo:g}, 0]: residual({lo:g}) >= 0")
    # residual(0) = set_inflation(0, delta) >= 0, so the root is bracketed.
    for _ in range(2200):  # enough halvings to span the float range
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if residual(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    root = hi if abs(residual(hi)) <= abs(residual(lo)) else lo
    if abs(residual(root)) > tol:
        raise ValueError(f"bisection stalled: |residual({root:g})| = "
                         f"{abs(residual(root)):g} > {tol:g}")
    return root


def in_inflated_set(alpha, epsilon, h_val, delta):
    """Membership in the inflated safe set: h + set_inflation(h, delta) >= 0."""
    return h_val + set_inflation(alpha, epsilon, h_val, delta) >= 0.0


def correction_gain(filt, x):
    """The unclipped gain a filter's correction along lg_h has at state x:
    positive exactly where the nominal input violates the constraint, zero on
    the lg_h = 0 set.  The slack of the tightened constraint at the nominal
    input over ||lg_h||^2, with 1/eps(h) taking its limits as in
    ``_robust_limit``."""
    be = filt.barrier(x)
    s = float(be.lg_h @ be.lg_h)
    if math.sqrt(s) <= LG_ZERO_TOL:
        return 0.0
    u_nom = np.atleast_1d(np.asarray(filt.nominal(x), dtype=float))
    floor = -filt.alpha(be.h)
    if filt.epsilon is not None:
        floor = floor + s * _robust_limit(filt.epsilon, be.h, 1.0)
    return (floor - be.hdot(u_nom)) / s


def pulse_oracle(m_amp):
    """The two-lobe pulse as a scalar function of time: sums of
    right-continuous unit steps, in the order ``heaviside_pulse`` applies them."""

    def step(tau):
        return 1.0 if tau >= 0.0 else 0.0

    def pulse(t):
        return m_amp * (1.0 - step(t - 5.0) - step(t - 10.0) + step(t - 15.0))

    return pulse


def hard_brake_oracle(v0, t_brake, a_peak, duration):
    """The hard-brake leader acceleration as a scalar if-chain over its
    pieces, and the breakpoints between them: braking starts, full
    deceleration is reached, the ramp-down begins, braking ends."""
    ramp = duration - v0 / abs(a_peak)
    hold = duration - 2.0 * ramp
    t1 = t_brake + ramp
    t2 = t1 + hold
    t_end = t_brake + duration

    def accel(t):
        if t < t_brake or t >= t_end:
            return 0.0
        if t < t1:
            return a_peak * (t - t_brake) / ramp if ramp > 0 else a_peak
        if t < t2:
            return a_peak
        return a_peak * (t_end - t) / ramp if ramp > 0 else 0.0

    return accel, (t_brake, t1, t2, t_end)


def sample_pendulum_states(rng, count):
    """States across and beyond the safe ellipse; filter outputs stay in the grid."""
    theta = rng.uniform(-0.4, 0.4, count)
    theta_dot = rng.uniform(-0.8, 0.8, count)
    return np.column_stack([theta, theta_dot])


def sample_truck_states(rng, count):
    """Driving-envelope states plus the leader acceleration measured with them."""
    d = rng.uniform(0.0, 60.0, count)
    v = rng.uniform(0.0, 20.0, count)
    v_l = rng.uniform(0.0, 20.0, count)
    a_l = rng.uniform(-10.0, 5.0, count)
    return np.column_stack([d, v, v_l, a_l])


def default_pendulum():
    return PendulumParams()


def default_truck():
    return TruckParams()


# ---------------------------------------------------------------------------
# Reference integrator
# ---------------------------------------------------------------------------


def record_terms(record, x, a):
    """A plant record's barrier terms and nominal input at the state tuple x,
    (h, lf_h, lg_h, u_nom), as a row evaluates them."""
    return (*record.barrier(x, a), record.nominal(x))


def reference_rk4_step(dynamics, controller, disturbance, x, t, dt):
    """Classical RK4 with the controller and the disturbance evaluated afresh
    at each of the four stages, including both evaluations at t + dt/2."""

    def deriv(xs, ts):
        du = controller(xs, ts) + disturbance(ts)
        dx = dynamics.drift(xs, ts) + dynamics.actuation(xs, ts) @ du
        if not np.isfinite(dx).all():
            raise SimulationError(f"non-finite derivative at t={ts:g}", t=ts, state=xs)
        return dx

    t_mid = t + 0.5 * dt
    t_end = t + dt - 1e-9 * dt
    k1 = deriv(x, t)
    k2 = deriv(x + (0.5 * dt) * k1, t_mid)
    k3 = deriv(x + (0.5 * dt) * k2, t_mid)
    k4 = deriv(x + dt * k3, t_end)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_filter(alpha_c, epsilon, be, u_nom):
    """The closed-form filter on numpy arrays: the barrier evaluation ``be``
    and the nominal input ``u_nom`` projected onto the half-space
    lf_h + lg_h u + alpha_c h >= ||lg_h||^2 / eps(h), the tightening absent
    without a robustness gain ``epsilon``.  For one input it is, bit for bit,
    the input ``cbf.filter_function`` gives, with 1/eps(h) taking the same
    limits where eps(h) overflows (0) or underflows to 0 (inf)."""
    s = float(be.lg_h @ be.lg_h)
    if s <= LG_ZERO_TOL * LG_ZERO_TOL:
        return u_nom
    gain = -(be.lf_h + float(be.lg_h @ u_nom) + alpha_c * be.h) / s
    if epsilon is not None:
        try:
            eps = epsilon(be.h)
        except OverflowError:
            eps = math.inf
        gain = gain + (1.0 / eps if eps > 0.0 else math.inf)
    return u_nom + gain * be.lg_h if gain > 0.0 else u_nom


def _reference_maps(scn, accel):
    """The closed loop of a scenario built from the public numpy API of
    ``plants`` and ``reference_filter``: dynamics, nominal input, applied
    input and barrier value, each returning what the simulator logs.
    ``accel`` is the truck leader's acceleration as a function of time."""
    if scn.plant == "pendulum":
        p = scn.pendulum
        nominal, pendulum = pendulum_nominal(p), pendulum_barrier(p)
        dynamics, u_nominal, barrier, h_of = (
            pendulum_dynamics(p), lambda x, t: nominal(x), lambda x, t: pendulum(x),
            lambda x, t: pendulum(x).h)
    else:
        p = scn.truck
        dynamics, u_nominal, barrier, h_of = (
            truck_dynamics(p, accel),
            lambda x, t: np.array([truck_nominal(p, x[0], x[1], x[2])]),
            lambda x, t: truck_barrier(p, accel(t))(x),
            lambda x, t: x[0] - truck_headway(p, x[1], x[2]))
    if scn.controller == "nominal":
        u_control = u_nominal
    else:
        epsilon = scn.epsilon if scn.controller == "issf" else None

        def u_control(x, t):
            return reference_filter(p.alpha_c, epsilon, barrier(x, t), u_nominal(x, t))
    return dynamics, u_nominal, u_control, h_of


def _reference_clamp(x):
    """Truck speeds pinned at zero: the vehicles do not reverse."""
    x = x.copy()
    for i in (1, 2):
        if x[i] < 0.0:
            x[i] = 0.0
    return x


def _at_stage_times(signal, time, dt):
    """A time signal as a function of the times ``reference_rk4_step`` and the
    logged rows evaluate it at, sampled with one ``sample`` call per run."""
    steps = time[:-1]
    times = np.concatenate([time, steps + 0.5 * dt, steps + dt - 1e-9 * dt])
    return dict(zip(times.tolist(), signal.sample(times).tolist())).__getitem__


def reference_run(scn):
    """The scenario loop with separate u_nominal, u_control, disturbance and
    barrier calls per logged row, stepped by ``reference_rk4_step``.

    Returns the log columns that ``run_scenario`` produces, by the same names.
    """
    n_steps = int(math.floor(scn.horizon / scn.dt + 1e-9))
    time = np.arange(n_steps + 1) * scn.dt
    disturbance = _at_stage_times(scn.disturbance, time, scn.dt)
    accel = None if scn.leader is None else _at_stage_times(scn.leader, time, scn.dt)
    dyn, u_nominal, u_control, h_of = _reference_maps(scn, accel)
    x = np.array(scn.x0, dtype=float)
    rows = {"states": [], "u_nom": [], "u_filt": [], "d": [], "h": []}
    for k, t in enumerate(time):
        rows["states"].append(x.copy())
        rows["u_nom"].append(float(u_nominal(x, t)[0]))
        rows["u_filt"].append(float(u_control(x, t)[0]))
        rows["d"].append(disturbance(t))
        rows["h"].append(h_of(x, t))
        if k < n_steps:
            x = reference_rk4_step(dyn, u_control, disturbance, x, t, scn.dt)
            if scn.plant == "truck":
                x = _reference_clamp(x)
    return {key: np.array(values) for key, values in rows.items()}


# ---------------------------------------------------------------------------
# Reference CSV writers
# ---------------------------------------------------------------------------


def reference_write_csv(path, header, rows):
    """The per-cell writer: every cell of every row formatted as f"{x:.9g}"."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(f"{c:.9g}" for c in row) + "\n")


def reference_result_csv(result, path):
    """A ScenarioResult's log written row by row from its numpy columns."""
    header = "t," + ",".join(result.state_labels) + ",u_nom,u_filt,d,h"
    rows = ([result.time[k], *result.states[k], result.u_nom[k], result.u_filt[k],
             result.d[k], result.h[k]] for k in range(result.time.size))
    reference_write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# Reference truck margin scan and lag recurrence
# ---------------------------------------------------------------------------


def reference_margin_table(p, d_range, vl_range, grid, alpha_c=None, a_l_bounds=None):
    """verification.truck_margin_table's axes and margin as one broadcast
    expression over the whole grid, with no validation; a margin that is not
    finite everywhere is a ValueError."""
    alpha_c = p.alpha_c if alpha_c is None else alpha_c
    a_lo, a_hi = (-p.a_under_l, p.a_bar_l) if a_l_bounds is None else a_l_bounds
    d_col = np.linspace(*d_range, grid[0])[:, None]
    vl_axis = np.linspace(*vl_range, grid[1])
    with np.errstate(over="ignore", invalid="ignore"):
        v0 = -(p.c1 + p.c4 * vl_axis) / (2.0 * p.c3)
        base = vl_axis - v0 + alpha_c * (d_col - truck_headway(p, v0, vl_axis))
        slope = -(p.c2 + p.c4 * v0 + 2.0 * p.c5 * vl_axis)
        margin = np.minimum(base + slope * a_lo, base + slope * a_hi)
    if not np.all(np.isfinite(margin)):
        raise ValueError("the margin overflows")
    return d_col[:, 0], vl_axis, v0, margin


def reference_margin_cells(p, d_range, vl_range, grid):
    """The margin grid as nested lists, each cell on floats from the scan's formula."""
    a_lo, a_hi = -p.a_under_l, p.a_bar_l
    cells = []
    for d in np.linspace(*d_range, grid[0]).tolist():
        row = []
        for vl in np.linspace(*vl_range, grid[1]).tolist():
            v = -(p.c1 + p.c4 * vl) / (2.0 * p.c3)
            base = vl - v + p.alpha_c * (d - truck_headway(p, v, vl))
            slope = -(p.c2 + p.c4 * v + 2.0 * p.c5 * vl)
            row.append(min(base + slope * a_lo, base + slope * a_hi))
        cells.append(row)
    return cells


def reference_lag_samples(t, u, time_constant):
    """The first-order lag state of disturbance.lag_residual, stepped on numpy scalars."""
    lagged = np.empty_like(u)
    lagged[0] = u[0]
    for k in range(t.size - 1):
        decay = math.exp(-(t[k + 1] - t[k]) / time_constant)
        lagged[k + 1] = u[k] + (lagged[k] - u[k]) * decay
    return lagged - u
