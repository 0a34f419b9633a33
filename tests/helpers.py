"""Independent oracles, a reference integrator and samplers shared across the test suite.

The oracles may not call the closed-form filter formulas: the projection
oracle is derived from the geometry of a point-to-half-space projection, the
grid oracle from brute-force enumeration, the switching oracle from the
single-input min/max form and the admissibility oracle from the constraint
itself, so all of them stay independent of the code paths they check.  The
reference integrator is different in kind: it
replays the closed loop on numpy arrays, built from the public ``plants``,
``cbf`` and ``issf`` API rather than from the simulator's own maps, with every
quantity evaluated on its own, so the simulator's float engine and its shared
evaluations can be checked against it bit for bit.  The
reference CSV writers format each cell on its own, the way the block writer's
output must read byte for byte.
"""

import math

import numpy as np

from safefilter import (
    DimensionError,
    PendulumParams,
    SimulationError,
    TruckParams,
    pendulum_barrier,
    pendulum_cbf_filter,
    pendulum_dynamics,
    pendulum_issf_filter,
    pendulum_nominal,
    truck_dynamics,
    truck_headway,
    truck_nominal,
    truck_robust_filter,
    truck_safe_filter,
)
from safefilter.cbf import LG_ZERO_TOL, filter_gain
from safefilter.issf import set_inflation

GRID_LO = -100.0
GRID_HI = 100.0
GRID_STEP = 1e-3

# Filtered inputs land on the constraint boundary up to rounding, so
# admissibility checks carry a small slack, scaled with the magnitude of the
# quantities compared.
ADMISSIBLE_SLACK = 1e-9


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


def in_inflated_set(alpha, epsilon, h_val, delta):
    """Membership in the inflated safe set: h + set_inflation(h, delta) >= 0."""
    return h_val + set_inflation(alpha, epsilon, h_val, delta) >= 0.0


def correction_gain(filt, x):
    """The unclipped gain a filter's correction along lg_h has at state x:
    positive exactly where the nominal input violates the constraint, zero on
    the lg_h = 0 set.  A probe of ``cbf.filter_gain``, not an oracle."""
    be = filt.barrier(x)
    u_nom = np.atleast_1d(np.asarray(filt.nominal(x), dtype=float))
    residual = be.lf_h + float(be.lg_h @ u_nom) + filt.alpha(be.h)
    return filter_gain(float(be.lg_h @ be.lg_h), residual, be.h, filt.epsilon)


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


def _reference_maps(scn):
    """The closed loop of a scenario built from the public numpy API of
    ``plants``, ``cbf`` and ``issf``: dynamics, nominal input, applied input
    and barrier value, each returning what the simulator logs."""
    if scn.plant == "pendulum":
        p = scn.pendulum
        nominal = pendulum_nominal(p)
        barrier = pendulum_barrier(p)
        if scn.controller == "nominal":
            control = nominal
        elif scn.controller == "cbf":
            control = pendulum_cbf_filter(p).filter
        else:
            control = pendulum_issf_filter(p, scn.epsilon).filter
        return (pendulum_dynamics(p), lambda x, t: nominal(x),
                lambda x, t: control(x), lambda x, t: barrier(x).h)

    p, accel = scn.truck, scn.leader.accel

    def u_nominal(x, t):
        return np.array([truck_nominal(p, x[0], x[1], x[2])])

    if scn.controller == "nominal":
        u_control = u_nominal
    elif scn.controller == "cbf":
        def u_control(x, t):
            return np.array([truck_safe_filter(p, x[0], x[1], x[2], accel(t))])
    else:
        def u_control(x, t):
            return np.array([truck_robust_filter(p, x[0], x[1], x[2], accel(t),
                                                 scn.epsilon.eps0, scn.epsilon.lam)])
    return (truck_dynamics(p, accel), u_nominal, u_control,
            lambda x, t: x[0] - truck_headway(p, x[1], x[2]))


def _reference_clamp(x):
    """Truck speeds pinned at zero: the vehicles do not reverse."""
    x = x.copy()
    for i in (1, 2):
        if x[i] < 0.0:
            x[i] = 0.0
    return x


def reference_run(scn):
    """The scenario loop with separate u_nominal, u_control, disturbance and
    barrier calls per logged row, stepped by ``reference_rk4_step``.

    Returns the log columns that ``run_scenario`` produces, by the same names.
    """
    dyn, u_nominal, u_control, h_of = _reference_maps(scn)
    x = np.array(scn.x0, dtype=float)
    n_steps = int(math.floor(scn.horizon / scn.dt + 1e-9))
    time = np.arange(n_steps + 1) * scn.dt
    rows = {"states": [], "u_nom": [], "u_filt": [], "d": [], "h": []}
    for k, t in enumerate(time):
        rows["states"].append(x.copy())
        rows["u_nom"].append(float(u_nominal(x, t)[0]))
        rows["u_filt"].append(float(u_control(x, t)[0]))
        rows["d"].append(scn.disturbance(t))
        rows["h"].append(h_of(x, t))
        if k < n_steps:
            x = reference_rk4_step(dyn, u_control, scn.disturbance, x, t, scn.dt)
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
