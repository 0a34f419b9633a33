import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from safefilter import (
    DisturbanceSignal,
    EpsilonFunction,
    PendulumParams,
    Scenario,
    SimulationError,
    TruckParams,
    constant_speed_profile,
    hard_brake_profile,
    heaviside_pulse,
    linear_class_kappa,
    pendulum_barrier,
    pendulum_dynamics,
    pendulum_nominal,
    rk4_step,
    run_scenario,
    sampled_disturbance,
    solve_h_star,
    steady_state_shift,
    truck_dynamics,
    truck_lag_disturbance,
    zero_disturbance,
)
from safefilter.core import SignalDomainError
from safefilter.sim import (
    MAX_STEPS,
    SignalTooShortError,
    SteadyStateWindowError,
    leader_profile_from_csv,
)
from safefilter.plants import _CLAMP_LOG_TOL, truck_record

P = PendulumParams()
T = TruckParams()
ZERO = zero_disturbance()


def _zero_controller(x, t):
    return 0.0


def _field(dyn):
    """The scalar-input field f(x,t) + g(x,t) w of a numpy dynamics model."""
    def field(x, t, w):
        return tuple((dyn.drift(x, t) + dyn.actuation(x, t) @ np.array([w])).tolist())

    return field


def _rate_field(rate):
    """A field whose derivative is the constant tuple ``rate``."""
    return lambda x, t, w: rate


def _nominal_controller(p):
    nominal = pendulum_nominal(p)
    return lambda x, t: float(nominal(x)[0])


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------

def test_rk4_fixed_point_of_zero_dynamics():
    x = (1.0, -2.0)
    out = rk4_step(_rate_field((0.0, 0.0)), _zero_controller, ZERO, x, 0.0, 0.1)
    assert np.array_equal(out, x)


def test_rk4_exact_for_constant_rate():
    out = rk4_step(_rate_field((1.0,)), _zero_controller, ZERO, (0.5,), 0.0, 0.1)
    assert out[0] == pytest.approx(0.6, abs=1e-15)


def test_rk4_matches_matrix_exponential_on_linear_loop():
    # the feedback-linearized pendulum closed loop is exactly linear, so one
    # step must agree with the matrix exponential to fifth order
    field = _field(pendulum_dynamics(P))
    controller = _nominal_controller(P)
    a_mat = np.array([[0.0, 1.0], [-P.kp, -P.kd]])
    x0 = np.array([-0.1, 0.5])
    dt = 0.01
    stepped = rk4_step(field, controller, ZERO, tuple(x0), 0.0, dt)
    exact = expm(a_mat * dt) @ x0
    assert np.max(np.abs(np.array(stepped) - exact)) <= 1e-10


def test_rk4_raises_structured_error_on_blowup():
    with pytest.raises(SimulationError) as excinfo:
        rk4_step(_rate_field((math.inf,)), _zero_controller, ZERO, (0.0,), 3.0, 0.1)
    assert excinfo.value.t == 3.0


@pytest.mark.parametrize("entry", [0, 1, 2])
def test_rk4_checks_every_derivative_entry(entry):
    rate = [0.0, 0.0, 0.0]
    rate[entry] = math.nan
    with pytest.raises(SimulationError):
        rk4_step(_rate_field(tuple(rate)), _zero_controller, ZERO, (0.0, 0.0, 0.0), 0.0, 0.1)


def test_rk4_raises_when_the_stage_combination_overflows():
    # every stage derivative is finite, but x + dt/6 (k1 + 2 k2 + 2 k3 + k4)
    # is not: the new state is checked as well
    with pytest.raises(SimulationError) as excinfo:
        rk4_step(_rate_field((1e308,)), _zero_controller, ZERO, (0.0,), 3.0, 6.0)
    assert excinfo.value.t == 9.0
    assert excinfo.value.state[0] == math.inf


def test_rk4_with_u0_raises_on_non_finite_stage_one():
    # stage 1 takes the given input without calling the controller, and its
    # non-finite derivative is reported before the disturbance is queried
    # past the end of its domain at t + dt/2
    field = _field(pendulum_dynamics(P))

    def controller(x, t):
        raise AssertionError("stage 1 must use u0")

    short = sampled_disturbance([0.0, 3.0], [0.0, 0.0])
    with pytest.raises(SimulationError) as excinfo:
        rk4_step(field, controller, short, (0.0, 0.0), 3.0, 0.1, u0=math.nan)
    assert excinfo.value.t == 3.0


def test_rk4_u0_matches_evaluating_the_controller():
    field = _field(pendulum_dynamics(P))
    controller = _nominal_controller(P)
    pulse = heaviside_pulse(0.75)
    x = (-0.1, 0.5)
    for t in (0.0, 4.995, 5.0):
        plain = rk4_step(field, controller, pulse, x, t, 0.01)
        shared = rk4_step(field, controller, pulse, x, t, 0.01, u0=controller(x, t))
        assert np.array_equal(plain, shared)


def test_rk4_rejects_bad_step():
    field = _field(pendulum_dynamics(P))
    with pytest.raises(ValueError):
        rk4_step(field, _zero_controller, ZERO, (0.0, 0.0), 0.0, 0.0)


def test_truck_coasting_keeps_speeds_and_d_affine():
    # u = 0 and a_L = 0: speeds frozen, headway closes linearly
    field = _field(truck_dynamics(T, lambda t: 0.0))
    x = (40.0, 12.0, 10.0)
    dt = 0.01
    for k in range(500):
        x = rk4_step(field, _zero_controller, ZERO, x, k * dt, dt)
    assert x[1] == pytest.approx(12.0, abs=1e-12)
    assert x[2] == pytest.approx(10.0, abs=1e-12)
    assert x[0] == pytest.approx(40.0 - 2.0 * 5.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Leader profiles
# ---------------------------------------------------------------------------

def _leader_speed(lead, v0, t, breakpoints=()):
    """v0 plus the integral of the leader's acceleration up to t, with the
    profile's breakpoints before t passed to quad."""
    points = [p for p in breakpoints if 0.0 < p < t]
    integral, _ = quad(lead, 0.0, t, points=points or None)
    return v0 + integral


def test_hard_brake_profile_shape():
    lead = hard_brake_profile(16.0, 15.0, -8.0, 3.0)
    assert lead(0.0) == 0.0
    assert lead(14.999) == 0.0
    assert lead(15.5) == pytest.approx(-4.0)   # mid-ramp
    assert lead(16.5) == -8.0                  # hold
    assert lead(18.0) == 0.0
    breaks = (15.0, 16.0, 17.0, 18.0)
    assert _leader_speed(lead, 16.0, 15.0, breaks) == 16.0
    assert _leader_speed(lead, 16.0, 18.0, breaks) == pytest.approx(0.0, abs=1e-12)
    assert _leader_speed(lead, 16.0, 30.0, breaks) == pytest.approx(0.0, abs=1e-12)
    ts = np.linspace(0.0, 30.0, 301)
    assert all(lead(t) <= 0.0 for t in ts)
    speeds = [_leader_speed(lead, 16.0, t, breaks) for t in np.linspace(15.0, 18.0, 100)]
    assert all(a >= b - 1e-12 for a, b in zip(speeds, speeds[1:]))


def test_hard_brake_rectangle_profile():
    lead = hard_brake_profile(16.0, 15.0, -8.0, 2.0)
    assert lead(15.0) == -8.0
    assert lead(16.999) == -8.0
    assert lead(17.0) == 0.0
    assert _leader_speed(lead, 16.0, 17.0, (15.0, 17.0)) == pytest.approx(0.0, abs=1e-12)


def test_hard_brake_validation():
    with pytest.raises(ValueError):
        hard_brake_profile(16.0, 15.0, -12.0, 2.0)  # beyond the decel limit
    with pytest.raises(ValueError):
        hard_brake_profile(16.0, 15.0, 8.0, 2.0)    # not braking
    with pytest.raises(ValueError):
        hard_brake_profile(16.0, 15.0, -8.0, 1.0)   # cannot reach zero speed
    with pytest.raises(ValueError):
        hard_brake_profile(16.0, 15.0, -8.0, 5.0)   # would undershoot zero
    with pytest.raises(ValueError):
        hard_brake_profile(25.0, 15.0, -8.0, 4.0)   # v0 beyond the cap


def test_brake_after_horizon_behaves_like_constant_speed():
    lead = hard_brake_profile(16.0, 100.0, -8.0, 2.0)
    for t in np.linspace(0.0, 60.0, 50):
        assert lead(t) == 0.0
        assert _leader_speed(lead, 16.0, t) == 16.0


def test_leader_csv_roundtrip(tmp_path):
    path = tmp_path / "lead.csv"
    path.write_text("t,a_L\n0,0\n10,-5\n12,0\n20,0\n")
    lead = leader_profile_from_csv(path, v0=16.0)
    assert lead(5.0) == 0.0
    assert lead(11.0) == -5.0
    assert _leader_speed(lead, 16.0, 12.0, (10.0, 12.0)) == pytest.approx(6.0)
    with pytest.raises(Exception):
        lead(25.0)


def test_leader_csv_hold_resolves_breakpoints_to_the_starting_piece(tmp_path):
    times = np.arange(41) * 0.25
    accels = np.resize([-2.0, 1.5, 0.0, -0.5], times.size)
    path = tmp_path / "lead.csv"
    rows = "".join(f"{t!r},{a!r}\n" for t, a in zip(times.tolist(), accels.tolist()))
    path.write_text("t,a_L\n" + rows)
    lead = leader_profile_from_csv(path, v0=10.0)
    for k, t in enumerate(times):
        assert lead(t) == accels[k]
        if k > 0:
            assert lead(np.nextafter(t, -np.inf)) == accels[k - 1]
    with pytest.raises(SignalDomainError):
        lead(np.nextafter(times[-1], np.inf))
    with pytest.raises(SignalDomainError):
        lead(-1e-12)


def test_leader_csv_rejects_out_of_bound_accel(tmp_path):
    path = tmp_path / "lead.csv"
    path.write_text("t,a_L\n0,0\n10,-12\n20,0\n")
    with pytest.raises(ValueError):
        leader_profile_from_csv(path, v0=16.0)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _pendulum_scenario(controller, disturbance, eps=None, delta=0.0, dt=0.01, horizon=40.0):
    return Scenario(
        name=f"pend-{controller}", plant="pendulum", controller=controller,
        x0=(-0.1, 0.5), horizon=horizon, dt=dt, disturbance=disturbance,
        pendulum=P, epsilon=eps, delta=delta,
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", plant="boat", controller="cbf", x0=(0,), horizon=1.0,
                 dt=0.01, disturbance=ZERO)
    with pytest.raises(ValueError):
        _pendulum_scenario("issf", ZERO)  # epsilon missing
    with pytest.raises(ValueError):
        Scenario(name="x", plant="truck", controller="cbf", x0=(1, 1, 1),
                 horizon=1.0, dt=0.01, disturbance=ZERO, truck=T)  # leader missing
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        _pendulum_scenario("issf", ZERO, eps=EpsilonFunction(0.15), delta=-7.0)


def test_scenario_rejects_more_than_max_steps_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_STEPS"):
            _pendulum_scenario("cbf", ZERO, dt=1e-6, horizon=1e12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert _pendulum_scenario("cbf", ZERO, dt=1e-6, horizon=MAX_STEPS * 1e-6).n_steps \
        == MAX_STEPS


def test_scenario_rejects_a_step_count_that_overflows():
    # horizon / dt is inf, which no step count can floor
    with pytest.raises(ValueError, match="MAX_STEPS"):
        _pendulum_scenario("cbf", ZERO, dt=1e-3, horizon=1e308)


def test_scenario_rejects_signals_that_end_before_the_last_logged_time():
    # the last logged time is n_steps * dt = 1.0; a signal must reach it
    ends_at = sampled_disturbance([0.0, 1.0], [0.1, 0.1])
    assert run_scenario(_pendulum_scenario("cbf", ends_at, horizon=1.0)).time[-1] == 1.0
    too_short = sampled_disturbance([0.0, 0.995], [0.1, 0.1])
    with pytest.raises(SignalTooShortError, match="disturbance ends at t=0.995") as excinfo:
        _pendulum_scenario("cbf", too_short, horizon=1.0)
    assert excinfo.value.signal == "disturbance"
    leader = DisturbanceSignal(0.0, 0.995, lambda times: np.zeros(times.shape))
    with pytest.raises(SignalTooShortError) as excinfo:
        Scenario(name="x", plant="truck", controller="cbf", x0=(27.4, 16.0, 16.0),
                 horizon=1.0, dt=0.01, disturbance=ZERO, truck=T, leader=leader)
    assert excinfo.value.signal == "leader"


def test_scenario_rejects_signals_that_start_after_zero():
    # a recorded signal starts at its first sample time, the other kinds at 0
    assert ZERO.start == 0.0 and sampled_disturbance([-1.0, 2.0], [0.1, 0.1]).start == -1.0
    for starts_at in ([0.0, 1.0], [-1.0, 1.0]):
        signal = sampled_disturbance(starts_at, [0.1, 0.1])
        assert run_scenario(_pendulum_scenario("cbf", signal, horizon=1.0)).time[0] == 0.0
    late = sampled_disturbance([1e-9, 1.0], [0.1, 0.1])
    with pytest.raises(SignalTooShortError, match=r"^disturbance starts at t=1e-09, after "
                                                  r"the first logged time t=0$") as excinfo:
        _pendulum_scenario("cbf", late, horizon=1.0)
    assert excinfo.value.signal == "disturbance"
    leader = DisturbanceSignal(0.0, math.inf, lambda times: np.zeros(times.shape), 2.0)
    with pytest.raises(SignalTooShortError, match="^leader starts at t=2,") as excinfo:
        Scenario(name="x", plant="truck", controller="cbf", x0=(27.4, 16.0, 16.0),
                 horizon=1.0, dt=0.01, disturbance=ZERO, truck=T, leader=leader)
    assert excinfo.value.signal == "leader"


def test_scenario_timing_messages_are_the_cli_rule():
    with pytest.raises(ValueError, match=r"^dt must be a positive finite number, got 0\.0$"):
        _pendulum_scenario("cbf", ZERO, dt=0.0)
    with pytest.raises(ValueError, match=r"^horizon must be finite and >= dt = 0\.01, "
                                         r"got 0\.001$"):
        _pendulum_scenario("cbf", ZERO, horizon=0.001)
    with pytest.raises(ValueError, match=r"^horizon must be at most MAX_STEPS = 10000000 "
                                         r"steps of dt = 1e-06, got 1000000000000\.0$"):
        _pendulum_scenario("cbf", ZERO, dt=1e-6, horizon=1e12)
    # the controller rule, issf's epsilon included, is checked before the timing
    with pytest.raises(ValueError, match=r"^issf controller needs an epsilon function$"):
        _pendulum_scenario("issf", ZERO, dt=1e-6, horizon=1e12)


def test_run_logs_have_expected_length_and_recomputable_h():
    result = run_scenario(_pendulum_scenario("cbf", ZERO, horizon=2.0))
    assert result.time.size == 201
    barrier = pendulum_barrier(P)
    recomputed = np.array([barrier(x).h for x in result.states])
    assert np.array_equal(recomputed, result.h)


@pytest.mark.parametrize("dt,horizon", [
    (0.01, math.inf),
    (0.01, math.nan),
    (math.nan, 1.0),
    (math.inf, 1.0),
])
def test_scenario_rejects_non_finite_step_or_horizon(dt, horizon):
    with pytest.raises(ValueError, match="finite"):
        _pendulum_scenario("cbf", ZERO, dt=dt, horizon=horizon)


def test_overflowing_step_fails_with_partial_log():
    # a 1e308 disturbance keeps each stage derivative finite; the step's
    # weighted sum overflows, so the run stops at t = 0 with one logged row
    huge = sampled_disturbance([0.0, 50.0], [1e308, 1e308])
    with pytest.raises(SimulationError) as excinfo, np.errstate(over="ignore"):
        run_scenario(_pendulum_scenario("nominal", huge, horizon=5.0))
    err = excinfo.value
    assert err.t == 0.0
    assert err.partial.time.size == 1
    assert np.array_equal(err.partial.states[0], [-0.1, 0.5])


def test_runs_are_bit_identical():
    first = run_scenario(_pendulum_scenario("cbf", heaviside_pulse(0.75), horizon=5.0))
    second = run_scenario(_pendulum_scenario("cbf", heaviside_pulse(0.75), horizon=5.0))
    assert np.array_equal(first.states, second.states)
    assert np.array_equal(first.u_filt, second.u_filt)
    assert np.array_equal(first.h, second.h)


def test_failed_run_attaches_partial_log():
    # the disturbance turns infinite at t = 0.5: the row at 0.5 is still
    # logged, the step from it fails on its stage-1 derivative
    blowup = DisturbanceSignal(0.0, math.inf,
                               lambda times: np.where(times >= 0.5, math.inf, 0.0))
    with pytest.raises(SimulationError) as excinfo, np.errstate(invalid="ignore"):
        run_scenario(_pendulum_scenario("cbf", blowup, horizon=2.0))
    err = excinfo.value
    assert err.t == 0.5
    partial = err.partial
    assert partial.time.size == 51
    assert partial.time[-1] == 0.5
    assert partial.d[-1] == math.inf
    assert np.array_equal(partial.states[-1], err.state)
    assert np.isfinite(partial.h).all()


def test_initial_state_outside_safe_set_warns():
    scn = Scenario(
        name="outside", plant="pendulum", controller="cbf", x0=(0.3, 0.5),
        horizon=1.0, dt=0.01, disturbance=ZERO, pendulum=P,
    )
    with pytest.warns(UserWarning):
        run_scenario(scn)


@pytest.mark.parametrize("theta_dot, sign", [
    (math.nextafter(0.5, 0.0), 1),    # h just above 0
    (0.5, 0),                         # h exactly 0: on the boundary, inside
    (math.nextafter(0.5, 1.0), -1),   # h just below 0
])
def test_initial_state_warning_starts_just_below_h_zero(theta_dot, sign):
    x0 = (0.0, theta_dot)
    h = pendulum_barrier(P)(np.array(x0)).h
    assert np.sign(h) == sign and abs(h) < 1e-15
    scn = Scenario(name="boundary", plant="pendulum", controller="cbf", x0=x0,
                   horizon=0.01, dt=0.01, disturbance=ZERO, pendulum=P)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(scn)
    assert [str(w.message) for w in caught] == (
        ["scenario 'boundary': initial state is outside the safe set"] if sign < 0 else [])


def test_nominal_pendulum_leaves_safe_set_and_filter_does_not():
    nominal = run_scenario(_pendulum_scenario("nominal", ZERO))
    filtered = run_scenario(_pendulum_scenario("cbf", ZERO))
    assert nominal.h_min < 0.0
    assert filtered.h_min >= -1e-3


def test_issf_run_reports_h_star():
    eps = EpsilonFunction(0.15, 0.0)
    result = run_scenario(
        _pendulum_scenario("issf", heaviside_pulse(0.75), eps=eps, delta=0.75, horizon=5.0)
    )
    expected = solve_h_star(linear_class_kappa(P.alpha_c), eps, 0.75)
    assert result.h_star == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_bounded_disturbance_respects_degraded_level(seed):
    # piecewise-constant disturbances bounded by delta cannot push the robust
    # loop below the degraded safety level
    rng = np.random.default_rng(seed)
    delta = 0.75
    knots = np.arange(0.0, 20.5, 0.5)
    values = rng.uniform(-delta, delta, knots.size)
    disturbance = sampled_disturbance(knots, values)
    eps = EpsilonFunction(0.15, 0.0)
    result = run_scenario(
        _pendulum_scenario("issf", disturbance, eps=eps, delta=delta, horizon=20.0)
    )
    assert result.h_min >= result.h_star - 1e-3


def test_truck_clamps_reverse_motion_and_counts_it():
    # a strong negative input-channel pulse drives the slow truck's speed
    # through zero; the simulator pins it there and counts the events
    scn = Scenario(
        name="clamp", plant="truck", controller="nominal", x0=(30.0, 0.5, 0.0),
        horizon=20.0, dt=0.01, disturbance=heaviside_pulse(3.0), truck=T,
        leader=constant_speed_profile(0.0),
    )
    result = run_scenario(scn)
    assert result.clamp_counts["v"] > 0
    assert np.min(result.states[:, 1]) >= 0.0


@pytest.mark.parametrize("speed", ["v", "v_L"])
@pytest.mark.parametrize("rate", [0.9e-7, 1.1e-7])
def test_clamp_counts_undershoots_beyond_the_log_tolerance(speed, rate):
    # one step from standstill at D = 4, inside the safe set and short of the
    # stopping distance, so the nominal input starts at 0: a constant rate
    # (the input-channel disturbance for v, the leader's acceleration for
    # v_L) pulls the speed to about -rate dt, just below or just above
    # -_CLAMP_LOG_TOL
    dt, x0 = 0.01, (4.0, 0.0, 0.0)
    pull = sampled_disturbance([0.0, 1.0], [-rate, -rate])
    if speed == "v":
        signals = dict(disturbance=pull, leader=constant_speed_profile(0.0))
        a, d = 0.0, -rate
    else:
        signals = dict(disturbance=ZERO, leader=pull)
        a, d = -rate, 0.0
    index = ("D", "v", "v_L").index(speed)
    record = truck_record(T)
    # the step before the clamp, through the generic integrator
    undershoot = rk4_step(lambda x, t, w: (x[2] - x[1], w, a), lambda x, t: record.nominal(x),
                          lambda t: d, x0, 0.0, dt)[index]
    counted = undershoot < -_CLAMP_LOG_TOL
    assert -1.2 * _CLAMP_LOG_TOL < undershoot < -0.8 * _CLAMP_LOG_TOL
    assert counted == (rate > 1e-7)

    # the generated run over the row at x0 and its step, which clamps
    counts = dict.fromkeys(record.clamped, 0)
    log = tuple([None] for _ in range(6))
    rows, x1, err = record.run(x0, [0.0], dt, [a], [d], [a], [d], [a], [d], 1, 1, log, counts)
    assert (rows, err, x1[index], counts[speed]) == (1, None, 0.0, int(counted))

    result = run_scenario(Scenario(name="undershoot", plant="truck", controller="nominal",
                                   x0=x0, horizon=dt, dt=dt, truck=T, **signals))
    assert result.clamp_counts == {"v": int(counted and speed == "v"),
                                   "v_L": int(counted and speed == "v_L")}
    assert result.states[-1, index] == 0.0


def test_steady_state_shift_of_nominal_cruise_is_zero():
    scn = Scenario(
        name="cruise", plant="truck", controller="nominal", x0=(27.4, 16.0, 16.0),
        horizon=60.0, dt=0.01, disturbance=ZERO, truck=T,
        leader=constant_speed_profile(16.0),
    )
    result = run_scenario(scn)
    assert abs(steady_state_shift(result, T, 16.0)) <= 0.05


def test_steady_state_shift_needs_a_window():
    scn = Scenario(
        name="cruise", plant="truck", controller="nominal", x0=(27.4, 16.0, 16.0),
        horizon=30.0, dt=0.01, disturbance=ZERO, truck=T,
        leader=constant_speed_profile(16.0),
    )
    result = run_scenario(scn)
    with pytest.raises(SteadyStateWindowError):
        steady_state_shift(result, T, 10.0)


def test_lag_disturbance_is_independent_of_consumer_step():
    lead = hard_brake_profile(16.0, 15.0, -8.0, 2.0)
    first = truck_lag_disturbance(T, lead, (27.4, 16.0, 16.0), 30.0, tau=0.6)
    second = truck_lag_disturbance(T, lead, (27.4, 16.0, 16.0), 30.0, tau=0.6)
    assert first.bound == second.bound
    sample = np.linspace(0.0, 30.0, 500)
    assert np.array_equal([first(t) for t in sample], [second(t) for t in sample])


def test_synthetic_residual_magnitude_motivates_bound():
    # the shipped braking command through the 0.6 s lag leaves a worst-case
    # residual around 4 m/s^2, which is why the declared bound is 4.5
    from safefilter import Scenario as _S
    from safefilter import estimate_sup_norm

    lead = hard_brake_profile(16.0, 15.0, -8.0, 2.0)
    x0 = (27.4, 16.0, 16.0)
    dist = truck_lag_disturbance(T, lead, x0, 60.0, tau=0.6)
    assert 3.5 <= dist.bound <= 4.5
    # the empirical estimator recovers the bound from command/response records
    reference = run_scenario(Scenario(
        name="ref", plant="truck", controller="cbf", x0=x0, horizon=60.0,
        dt=0.01, disturbance=ZERO, truck=T, leader=lead,
    ))
    measured = reference.u_filt + np.array([dist(t) for t in reference.time])
    estimate = estimate_sup_norm(reference.time, reference.u_filt,
                                 reference.time, measured)
    assert estimate == pytest.approx(dist.bound, abs=1e-9)


@pytest.mark.parametrize("eps0,lam", [(0.15, 0.0), (0.5, 12.0)])
def test_shipped_disturbed_runs_respect_degraded_level(eps0, lam):
    eps = EpsilonFunction(eps0, lam)
    result = run_scenario(
        _pendulum_scenario("issf", heaviside_pulse(0.75), eps=eps, delta=0.75,
                           horizon=20.0)
    )
    assert result.h_min >= result.h_star - 1e-3
