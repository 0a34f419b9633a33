import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    SignalDomainError,
    estimate_sup_norm,
    heaviside_pulse,
    lag_residual,
    sampled_disturbance,
    zero_disturbance,
)
from safefilter.disturbance import disturbance_from_csv
from safefilter.sim import constant_speed_profile, hard_brake_profile, leader_profile_from_csv

from helpers import hard_brake_oracle, pulse_oracle, reference_lag_samples


def test_pulse_piecewise_values():
    d = heaviside_pulse(0.75)
    assert d(0.0) == 0.75
    assert d(7.0) == 0.0
    assert d(12.0) == -0.75
    assert d(20.0) == 0.0
    # edges belong to the piece that starts there (right-continuous step)
    assert d(5.0) == 0.0
    assert d(10.0) == -0.75
    assert d(15.0) == 0.0
    assert d.bound == 0.75


def test_pulse_zero_amplitude():
    d = heaviside_pulse(0.0)
    assert all(d(t) == 0.0 for t in np.linspace(0.0, 20.0, 100))


def test_pulse_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        heaviside_pulse(-0.1)


def test_pulse_rejects_a_nan_amplitude():
    # a nan amplitude would give a signal whose sup-norm bound is nan
    with pytest.raises(ValueError, match=r"^amplitude must be nonnegative, got nan$"):
        heaviside_pulse(math.nan)


def test_pulse_sup_norm_estimate_recovers_amplitude():
    t = np.linspace(0.0, 20.0, 4001)
    measured = np.array([heaviside_pulse(0.75)(ti) for ti in t])
    commanded = np.zeros_like(t)
    assert estimate_sup_norm(t, commanded, t, measured) == 0.75


def test_pulse_lobes_cancel():
    # midpoint quadrature with piece-aligned cells is exact for the hold
    d = heaviside_pulse(0.75)
    n = 2000
    width = 20.0 / n
    total = sum(d((k + 0.5) * width) * width for k in range(n))
    assert abs(total) <= 1e-10


@given(
    amplitude=st.floats(0.0, 5.0),
    values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=40),
)
@settings(max_examples=50)
def test_declared_bound_holds_on_dense_sample(amplitude, values):
    signals = [
        heaviside_pulse(amplitude),
        sampled_disturbance(np.arange(len(values), dtype=float), values),
        lag_residual(np.arange(len(values), dtype=float), values, 0.5),
    ]
    for signal in signals:
        end = min(signal.duration, 20.0)
        sample = np.linspace(0.0, end, 10_000)
        worst = float(np.max(np.abs(signal.sample(sample))))
        assert worst <= signal.bound + 1e-12


def test_sampled_hold_is_right_continuous():
    d = sampled_disturbance([0.0, 1.0, 2.0], [5.0, -1.0, 3.0])
    assert d(0.5) == 5.0
    assert d(1.0) == -1.0
    assert d(1.999999) == -1.0
    assert d(2.0) == 3.0
    assert d.bound == 5.0
    with pytest.raises(SignalDomainError):
        d(2.5)
    with pytest.raises(SignalDomainError):
        d(-0.1)


def test_sampled_hold_resolves_breakpoints_to_the_starting_piece():
    # breakpoints on a step grid, as the simulator queries them
    rng = np.random.default_rng(0)
    t = np.arange(201) * 0.01
    values = rng.uniform(-1.0, 1.0, t.size)
    d = sampled_disturbance(t, values)
    for k in range(t.size):
        assert d(t[k]) == values[k]
        if k > 0:
            assert d(np.nextafter(t[k], -np.inf)) == values[k - 1]
            assert d(t[k - 1] + 0.005) == values[k - 1]
    with pytest.raises(SignalDomainError):
        d(np.nextafter(t[-1], np.inf))
    with pytest.raises(SignalDomainError):
        d(np.nextafter(0.0, -np.inf))


def test_sampled_validation():
    with pytest.raises(ValueError):
        sampled_disturbance([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        sampled_disturbance([0.0], [1.0])


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("t,d\n0.0,1.5\n1.0,-0.5\n2.0,0.0\n")
    d = disturbance_from_csv(path)
    assert d(0.5) == 1.5
    assert d(1.5) == -0.5
    assert d.bound == 1.5


def test_csv_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError):
        disturbance_from_csv(path)


def test_lag_residual_of_constant_command_is_zero():
    t = np.arange(0.0, 5.0, 0.01)
    d = lag_residual(t, np.full_like(t, 2.5), 0.6)
    assert d.bound == 0.0
    assert d(3.0) == 0.0


def test_lag_residual_step_peak_and_decay():
    # a command step of height 2 shows up as a residual of the full step
    # height at the step instant, then decays with the lag time constant
    t = np.arange(0.0, 6.0, 0.01)
    u = np.where(t < 1.0, 0.0, 2.0)
    tau = 0.5
    d = lag_residual(t, u, tau)
    assert d.bound == pytest.approx(2.0, abs=1e-9)
    assert abs(d(1.0)) == pytest.approx(2.0, abs=1e-9)
    assert abs(d(1.0 + tau)) == pytest.approx(2.0 * math.exp(-1.0), rel=0.03)
    assert abs(d(5.99)) <= 2.0 * math.exp(-4.9 / tau) + 1e-9


@pytest.mark.parametrize("stride", [1, 2])
def test_lag_residual_samples_match_a_numpy_scalar_loop(stride):
    # the float recurrence gives the numpy-scalar loop's samples bit for bit,
    # on non-uniform times and on strided views of the arrays
    rng = np.random.default_rng(17)
    t = np.cumsum(rng.uniform(1e-4, 0.05, 4001)) - 0.7
    u = np.sin(3.0 * t) + rng.standard_normal(t.size) * 10.0 ** rng.integers(-6, 3, t.size)
    t, u = t[::stride], u[::stride]
    signal = lag_residual(t, u, 0.6)
    want = reference_lag_samples(t, u, 0.6)
    assert [x.hex() for x in signal.sample(t).tolist()] == [x.hex() for x in want.tolist()]
    assert signal.bound == float(np.max(np.abs(want)))


def test_lag_residual_validation():
    t = np.arange(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        lag_residual(t, np.zeros_like(t), 0.0)


def test_sup_norm_estimate_of_identical_records_is_zero():
    t = np.linspace(0.0, 10.0, 101)
    u = np.sin(t)
    assert estimate_sup_norm(t, u, t, u) == 0.0


def test_sup_norm_estimate_resamples_on_union_grid():
    t_cmd = np.array([0.0, 2.0, 4.0])
    u_cmd = np.array([0.0, 0.0, 0.0])
    t_meas = np.array([0.0, 1.0, 3.0, 4.0])
    a_meas = np.array([0.0, 2.0, -1.0, 0.0])
    assert estimate_sup_norm(t_cmd, u_cmd, t_meas, a_meas) == 2.0


def test_sup_norm_estimate_requires_overlap():
    with pytest.raises(ValueError):
        estimate_sup_norm([0.0, 1.0], [0.0, 0.0], [2.0, 3.0], [0.0, 0.0])


def test_zero_disturbance():
    d = zero_disturbance()
    assert d(123.4) == 0.0
    assert d.bound == 0.0


# ---------------------------------------------------------------------------
# Sampling on arrays of times
# ---------------------------------------------------------------------------


def _with_neighbours(points):
    """Each point and the floats just below and above it."""
    return np.array([v for p in points
                     for v in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))])


def _hard_brake(v0, t_brake, a_peak, duration):
    """A hard-brake leader, its scalar oracle, and its breakpoints with their
    neighbours plus a grid over and around the braking."""
    oracle, breaks = hard_brake_oracle(v0, t_brake, a_peak, duration)
    times = np.concatenate([_with_neighbours(breaks),
                            np.linspace(0.0, t_brake + duration + 2.0, 61)])
    return hard_brake_profile(v0, t_brake, a_peak, duration), times, oracle


def _signals(tmp_path):
    """Each kind of time signal: (signal, times, scalar oracle or None)."""
    knots = [0.0, 0.5, 1.25, 3.0, 4.0]
    values = [0.3, -1.2, 0.0, 2.5, -0.7]
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("t,d\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(knots, values)))
    leader_path = tmp_path / "lead.csv"
    leader_path.write_text("t,a_L\n" + "".join(f"{t!r},{v!r}\n"
                                                for t, v in zip(knots, values)))
    # a lag residual with nonzero slopes between its knots
    lag_t = np.linspace(0.0, 4.0, 41)
    lag = lag_residual(lag_t, np.sin(3.0 * lag_t) + (lag_t > 1.0), 0.6)
    edges = _with_neighbours(knots)
    return {
        "zero": (zero_disturbance(), np.concatenate([edges, [7.3, 1e9]]), None),
        "pulse": (heaviside_pulse(0.75),
                  np.concatenate([_with_neighbours([0.0, 5.0, 10.0, 15.0]), [2.0, 20.0]]),
                  pulse_oracle(0.75)),
        "sampled": (sampled_disturbance(knots, values), edges[1:-1], None),
        "csv": (disturbance_from_csv(csv_path), edges[1:-1], None),
        "lag_residual": (lag, np.concatenate([_with_neighbours(lag_t)[1:-1],
                                              np.linspace(0.0, 4.0, 97)]), None),
        # the leader acceleration a_L(t): breakpoints off the float grid of
        # round numbers, and the rectangle profile whose ramps are empty
        "hard_brake": _hard_brake(13.7, 0.37, -7.3, 2.6),
        "hard_brake_rectangle": _hard_brake(16.0, 15.0, -8.0, 2.0),
        "constant": (constant_speed_profile(16.0), np.concatenate([edges, [7.3, 1e9]]),
                     None),
        "csv_leader": (leader_profile_from_csv(leader_path, v0=10.0), edges[1:-1], None),
    }


@pytest.mark.parametrize("kind", ["zero", "pulse", "sampled", "csv", "lag_residual",
                                  "hard_brake", "hard_brake_rectangle", "constant",
                                  "csv_leader"])
def test_sample_equals_scalar_calls_bit_for_bit(kind, tmp_path):
    signal, times, oracle = _signals(tmp_path)[kind]
    scalar = np.array([signal(t) for t in times.tolist()])
    sampled = signal.sample(times)
    assert sampled.dtype == np.float64 and sampled.shape == times.shape
    assert sampled.tobytes() == scalar.tobytes()
    if oracle is not None:
        expected = np.array([oracle(t) for t in times.tolist()])
        assert sampled.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["sampled", "csv", "lag_residual", "csv_leader"])
def test_sample_out_of_domain_raises_the_scalar_error_for_the_first_time(kind, tmp_path):
    signal, _, _ = _signals(tmp_path)[kind]
    below = np.nextafter(0.0, -np.inf)
    above = np.nextafter(4.0, np.inf)
    for times, first in (([1.0, above, below], above), ([below, 2.0, above], below)):
        with pytest.raises(SignalDomainError) as scalar:
            signal(first)
        with pytest.raises(SignalDomainError) as sampled:
            signal.sample(np.array(times))
        assert str(sampled.value) == str(scalar.value)
        assert str(sampled.value).startswith(f"t={first:g} outside")
