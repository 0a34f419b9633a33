"""The filter's edge branches through the generated RK4 steps.

The filter formula has three branches that only edge states reach:

* the lg_h = 0 set (|lg_h| <= LG_ZERO_TOL), where it returns the nominal
  input;
* far inside the safe set, where eps(h) overflows and 1/eps(h) is 0;
* far outside it, where eps(h) underflows to 0, the gain is infinite and the
  step fails on a non-finite derivative.

For each plant, filter and RK4 stage, the test puts that stage's state on
the branch and every earlier stage's state off it: stage 1 is the logged row
at the chosen state, and stages 2 to 4 are reached from a state off the
branch by one scalar input of the step, the disturbance sample at t (stage
2) or at t + dt/2 (stages 3 and 4), found by a scan and, for the lg_h = 0
set, bisection.  The generated ``run`` must then give what
``sim.rk4_step`` gives with ``cbf.filter_function`` on the record's
barrier terms and nominal input, and what the numpy reference integrator gives, bit for bit, or
fail with the same error.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from safefilter import (
    EpsilonFunction,
    PendulumParams,
    Scenario,
    SimulationError,
    TruckParams,
    rk4_step,
    run_scenario,
    truck_headway,
    zero_disturbance,
)
from safefilter.cbf import LG_ZERO_TOL, filter_function
from safefilter.plants import pendulum_record, truck_record

from helpers import _reference_maps, record_terms, reference_rk4_step

DT = 0.01
HALF = 0.5 * DT
# the time each RK4 stage evaluates at
STAGE_TIMES = (0.0, HALF, HALF, DT - 1e-9 * DT)


@dataclasses.dataclass(frozen=True)
class Case:
    """One plant and branch: the gain of the robust filter, the leader's
    acceleration, a state on the branch (stage 1) and one off it (stages 2
    to 4)."""

    plant: str
    params: object
    epsilon: EpsilonFunction
    accel: float
    on: tuple
    off: tuple


# On the lg_h = 0 set the filter returns u_nom; the formula without that
# branch differs only where the constraint residual at u_nom is negative
# there, that is where the barrier's certificate fails: for the pendulum
# with alpha_c > b/a (on the line theta_dot = -theta, |theta| > 0.5), for
# the truck under hard leader braking.  The truck's states, on the line
# v_L = (c1 + 2 c3 v) / -c4 at v = 80 and just above it, where lg_h > 0 and
# the filter raises the input, keep both stepped speeds positive, so the
# speed clamp of ``run`` leaves the new state as rk4_step gives it.
LG_ZERO = {
    "pendulum": Case("pendulum", PendulumParams(alpha_c=3.0), EpsilonFunction(0.15, 0.0),
                     None, (0.6, -0.6), (0.6, -0.3)),
    "truck": Case("truck", TruckParams(), EpsilonFunction(0.5, 0.4), -50.0,
                  (-16.0, 80.0, 5.9 / 0.03), (-16.0, 80.0, 198.0)),
}
# exp(lam h) overflows for lam h > 709.78: near the pendulum's origin with
# lam = 1000, and 1775 m beyond the truck's headway with the published gain
OVERFLOW = {
    "pendulum": Case("pendulum", PendulumParams(), EpsilonFunction(0.5, 1000.0), None,
                     (0.0, 0.1), (0.0, 0.3)),
    "truck": Case("truck", TruckParams(), EpsilonFunction(0.5, 0.4), 0.0,
                  (2000.0, 20.0, 20.0), (1790.0, 20.0, 20.0)),
}
# eps0 exp(lam h) underflows to 0 for lam h below about -745
UNDERFLOW = {
    "pendulum": Case("pendulum", PendulumParams(), EpsilonFunction(0.5, 12.0), None,
                     (2.0, 0.0), (0.0, 0.2)),
    "truck": Case("truck", TruckParams(), EpsilonFunction(0.5, 0.4), 0.0,
                  (-2000.0, 20.0, 20.0), (30.0, 16.0, 16.0)),
}


def _record(case, controller):
    factory = pendulum_record if case.plant == "pendulum" else truck_record
    return factory(case.params, controller, case.epsilon)


def _samples(d):
    """The disturbance samples d at t = 0, t + dt/2 and the step's end, by time."""
    return dict(zip((0.0, HALF, DT - 1e-9 * DT), d)).__getitem__


def _kernel(case, controller, x, d):
    """The generated ``run`` over one row at x and t = 0 and the step from
    it, as the simulator calls it, with the disturbance samples d; the error
    it returns is raised."""
    record = _record(case, controller)
    a = case.accel
    log = tuple([None] for _ in range(len(x) + 3))
    rows, x_next, err = record.run(x, [0.0], DT, [a], [d[0]], [a], [d[1]], [a], [d[2]], 1, 1,
                                   log, dict.fromkeys(record.clamped, 0))
    if err is not None:
        raise err
    return x_next


def _generic(case, controller, x, d, visited=None):
    """The same step through ``sim.rk4_step``, with ``cbf.filter_function``
    applied to the record's terms; ``visited`` collects the stage states."""
    record = _record(case, controller)
    p = case.params
    apply = filter_function(p.alpha_c, case.epsilon if controller == "issf" else None)
    if case.plant == "pendulum":
        g_over_l, g_entry = p.gravity / p.length, 1.0 / (p.mass * p.length * p.length)

        def field(xs, t, w):
            return (xs[1], g_over_l * math.sin(xs[0]) + g_entry * w)
    else:
        def field(xs, t, w):
            return (xs[2] - xs[1], w, case.accel)

    def control(xs, t):
        if visited is not None:
            visited.append(xs)
        return apply(*record_terms(record, xs, case.accel))

    return rk4_step(field, control, _samples(d), x, 0.0, DT)


def _numpy_reference(case, controller, x, d):
    """The same step through the numpy reference integrator and filter."""
    plant = ({"pendulum": case.params} if case.plant == "pendulum" else
             {"truck": case.params, "leader": zero_disturbance()})
    scn = Scenario(name="branch", plant=case.plant, controller=controller, x0=x, horizon=DT,
                   dt=DT, disturbance=zero_disturbance(), epsilon=case.epsilon, **plant)
    dynamics, _, u_control, _ = _reference_maps(scn, lambda t: case.accel)
    return reference_rk4_step(dynamics, u_control, _samples(d), np.array(x), 0.0, DT)


def _stage_terms(case, controller, x, d):
    """The barrier terms at the stage states the step reaches, up to the
    first where they are not finite."""
    visited = []
    try:
        _generic(case, controller, x, d, visited)
    except (SimulationError, ValueError):
        pass
    record, terms = _record(case, "nominal"), []
    for xs in visited:
        try:
            terms.append(record_terms(record, xs, case.accel))
        except ValueError:
            break
    return terms


def _inputs(stage, s):
    """Disturbance samples that move the state of stage 2, 3 or 4 with s."""
    return (s, 0.0, 0.0) if stage == 2 else (0.0, s, 0.0)


def _scan(case, controller, stage, accept):
    """The first scalar input, over magnitudes 10^-2 to 10^12 of either sign
    (four a decade), that leads from the state off the branch to stage
    ``stage`` with the terms of its stages, up to that one, that ``accept``
    takes."""
    for magnitude in np.geomspace(1e-2, 1e12, 57).tolist():
        for s in (magnitude, -magnitude):
            terms = _stage_terms(case, controller, case.off, _inputs(stage, s))
            if len(terms) >= stage and accept(terms[:stage]):
                return s
    raise AssertionError(f"no input reaches the branch at stage {stage}")


def _on_lg_zero_set(case, controller, stage):
    """State and disturbance samples putting the stage's state on lg_h = 0,
    by bisection on the sign of lg_h at that state, between inputs where the
    earlier stages' signs agree."""
    if stage == 1:
        return case.on, (0.0, 0.0, 0.0)

    def signs(s):
        terms = _stage_terms(case, controller, case.off, _inputs(stage, s))
        return [t[2] > 0.0 for t in terms[:stage]]

    side = signs(0.0)
    flipped = side[:-1] + [not side[-1]]
    lo, hi = 0.0, _scan(case, controller, stage,
                        lambda terms: [t[2] > 0.0 for t in terms] == flipped)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if signs(mid) == side:
            lo = mid
        else:
            hi = mid

    def lg_h(s):
        return abs(_stage_terms(case, controller, case.off, _inputs(stage, s))[stage - 1][2])

    return case.off, _inputs(stage, min((lo, hi), key=lg_h))


def _on_region(case, controller, stage, inside):
    """State and disturbance samples putting the stage's state, and no
    earlier stage's, in the region of the barrier values ``inside`` takes."""
    if stage == 1:
        return case.on, (0.0, 0.0, 0.0)
    s = _scan(case, controller, stage,
              lambda terms: [inside(t[0]) for t in terms] == [False] * (stage - 1) + [True])
    return case.off, _inputs(stage, s)


def _assert_same_step(case, controller, x, d):
    """The generated step against rk4_step and the numpy reference: the same
    new state, or the same error, which is returned."""
    try:
        expected = _generic(case, controller, x, d)
    except SimulationError as err:
        with pytest.raises(SimulationError) as excinfo, np.errstate(all="ignore"):
            _kernel(case, controller, x, d)
        assert str(excinfo.value) == str(err)
        assert (excinfo.value.t, excinfo.value.state) == (err.t, err.state)
        with pytest.raises(SimulationError) as excinfo, np.errstate(all="ignore"):
            _numpy_reference(case, controller, x, d)
        assert excinfo.value.t == err.t
        return err
    x_next = _kernel(case, controller, x, d)
    assert x_next == expected
    with np.errstate(all="ignore"):
        assert np.array_equal(_numpy_reference(case, controller, x, d), np.array(expected))
    return x_next


STAGES = [1, 2, 3, 4]


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("controller", ["cbf", "issf"])
@pytest.mark.parametrize("plant", ["pendulum", "truck"])
def test_lg_h_zero_set_at_each_stage(plant, controller, stage):
    case = LG_ZERO[plant]
    x, d = _on_lg_zero_set(case, controller, stage)
    terms = _stage_terms(case, controller, x, d)
    assert all(abs(t[2]) > LG_ZERO_TOL for t in terms[:stage - 1])
    h, lf_h, lg_h, u_nom = terms[stage - 1]
    assert abs(lg_h) <= LG_ZERO_TOL
    # the constraint residual at u_nom is negative: the formula without the
    # branch would move the input by -residual / lg_h
    assert lf_h + lg_h * u_nom + case.params.alpha_c * h < 0.0
    _assert_same_step(case, controller, x, d)


def _eps_overflows(case, h):
    try:
        math.exp(case.epsilon.lam * h)
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("plant", ["pendulum", "truck"])
def test_eps_overflow_at_each_stage(plant, stage):
    case = OVERFLOW[plant]
    x, d = _on_region(case, "issf", stage, lambda h: _eps_overflows(case, h))
    terms = _stage_terms(case, "issf", x, d)
    assert [_eps_overflows(case, t[0]) for t in terms[:stage]] == [False] * (stage - 1) + [True]
    x_next = _assert_same_step(case, "issf", x, d)
    assert all(map(math.isfinite, x_next))


def _eps_underflows(case, h):
    eps = case.epsilon
    return not _eps_overflows(case, h) and eps.eps0 * math.exp(eps.lam * h) == 0.0


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("plant", ["pendulum", "truck"])
def test_eps_underflow_fails_the_step_at_each_stage(plant, stage):
    case = UNDERFLOW[plant]
    x, d = _on_region(case, "issf", stage, lambda h: _eps_underflows(case, h))
    terms = _stage_terms(case, "issf", x, d)
    assert len(terms) == stage
    assert [_eps_underflows(case, t[0]) for t in terms] == [False] * (stage - 1) + [True]
    err = _assert_same_step(case, "issf", x, d)
    assert isinstance(err, SimulationError)
    assert str(err).startswith(f"non-finite derivative at t={STAGE_TIMES[stage - 1]:g}")


def test_robust_gain_is_infinite_where_eps_is_subnormal():
    # the published truck pair at h = -1800, inside the window (-1861, -1771)
    # where eps(h) = 0.5 e^(0.4 h) is subnormal but not 0: 1.0 / eps
    # overflows, so the gain and the filtered input are already infinite
    case = UNDERFLOW["truck"]
    x = (-1800.0 + truck_headway(case.params, 16.0, 16.0), 16.0, 16.0)
    h, lf_h, lg_h, u_nom = record_terms(_record(case, "nominal"), x, 0.0)
    eps = case.epsilon(h)
    assert h == pytest.approx(-1800.0) and 0.0 < eps < sys.float_info.min
    assert 1.0 / eps == math.inf
    assert filter_function(case.params.alpha_c, case.epsilon)(h, lf_h, lg_h, u_nom) == -math.inf

    scn = Scenario(name="subnormal", plant="truck", controller="issf", x0=x, horizon=DT, dt=DT,
                   disturbance=zero_disturbance(), truck=case.params, leader=zero_disturbance(),
                   epsilon=case.epsilon)
    with pytest.warns(UserWarning, match="outside the safe set"), \
            pytest.raises(SimulationError, match=r"failed at t=0: non-finite derivative at t=0,") \
            as excinfo:
        run_scenario(scn)
    assert excinfo.value.partial.u_filt.tolist() == [-math.inf]
