"""Error paths that the rest of the suite reaches loosely or not at all.

Each CLI case pins the whole message, the exit code and, where a library
error becomes a ConfigError, the exception chain: the ConfigError is raised
``from`` the library error, whose own message it repeats after the section's
JSON path.  The library cases pin the checks that only a direct caller meets.
"""

import json
import math
import warnings

import pytest

from safefilter import (
    EpsilonFunction,
    PendulumParams,
    Scenario,
    TruckParams,
    constant_speed_profile,
    linear_class_kappa,
    run_scenario,
    solve_h_star,
    steady_state_shift,
    zero_disturbance,
)
from safefilter.cli import (
    ConfigError,
    _load_config,
    _parser,
    build_params,
    build_scenarios,
    cmd_certify,
    main,
    parse_config,
)
from safefilter.plants import pendulum_record
from safefilter.sim import SignalTooShortError, leader_profile_from_csv
from safefilter.verification import certify_pendulum, truck_margin_table


def _exit_and_stderr(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    return code, capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: exit 2 with the whole message
# ---------------------------------------------------------------------------

_SWEEP = {"eps0_grid": [0.5], "lambda_grid": [0.4]}
_ISSF = {"eps0": 0.5, "lam": 0.4, "delta": 4.5}


@pytest.mark.parametrize("command,doc,message", [
    ("certify", {"plant": "truck", "params": {"preset": "nope"}},
     "$.params.preset: unknown preset 'nope'"),
    ("sweep", {"plant": "truck", "issf": _ISSF},
     "sweep needs a 'sweep' section (eps0_grid, lambda_grid)"),
    ("sweep", {"plant": "truck", "sweep": _SWEEP},
     "sweep needs an 'issf' section for delta"),
    ("hstar", {"plant": "truck"}, "hstar needs an 'issf' section (eps0, lam, delta)"),
    ("simulate", {"plant": "truck"}, "$.leader: truck scenarios need a leader profile"),
    # the leader starts at initial_state[2], above the truck's v_bar_l = 20
    ("simulate", {"plant": "truck", "leader": {"kind": "constant"},
                  "initial_state": [27.4, 16.0, 25.0]},
     "$.leader: v0 must lie in [0, 20.0], got 25.0"),
    ("simulate", {"plant": "truck", "leader": {"kind": "csv", "path": "lead.csv"},
                  "initial_state": [27.4, 16.0, 25.0]},
     "$.leader: v0 must lie in [0, 20.0], got 25.0"),
    ("simulate", {"plant": "truck", "leader": {"kind": "constant"},
                  "initial_state": [27.4, 16.0, -1.0]},
     "$.leader: v0 must lie in [0, 20.0], got -1.0"),
    # the timing rule, with the document's paths
    ("simulate", {"plant": "pendulum", "dt": 0},
     "$.dt must be a positive finite number, got 0.0"),
    ("simulate", {"plant": "pendulum", "horizon": 0.001},
     "$.horizon must be finite and >= dt = 0.01, got 0.001"),
    ("simulate", {"plant": "pendulum", "horizon": 1e12, "dt": 1e-6},
     "$.horizon must be at most MAX_STEPS = 10000000 steps of dt = 1e-06, "
     "got 1000000000000.0"),
    ("simulate", {"plant": "pendulum", "horizon": 1e308, "dt": 0.001},
     "$.horizon must be at most MAX_STEPS = 10000000 steps of dt = 0.001, got 1e+308"),
    # a plant's default horizon is checked against the document's dt
    ("simulate", {"plant": "truck", "dt": 100.0},
     "$.horizon must be finite and >= dt = 100.0, got 60.0"),
])
def test_cli_rejects_with_the_whole_message(command, doc, message, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lead.csv").write_text("t,a_L\n0,0\n100,0\n")
    code, err = _exit_and_stderr(command, doc, tmp_path, capsys)
    assert (code, err) == (2, f"safefilter: config error: {message}\n")


@pytest.mark.parametrize("flags,message", [
    (["--dt", "-1"], "--dt must be a positive finite number, got -1.0"),
    (["--dt", "nan"], "--dt must be a positive finite number, got nan"),
    (["--horizon", "inf"], "--horizon must be finite and >= dt = 0.01, got inf"),
    (["--horizon", "0.001"], "--horizon must be finite and >= dt = 0.01, got 0.001"),
    (["--horizon", "1e12", "--dt", "1e-6"],
     "--horizon must be at most MAX_STEPS = 10000000 steps of dt = 1e-06, "
     "got 1000000000000.0"),
    # an override of dt alone checks the document's horizon by its path
    (["--dt", "50"], "$.horizon must be finite and >= dt = 50.0, got 40.0"),
    (["--horizon", "0.5", "--dt", "1"],
     "--horizon must be finite and >= dt = 1.0, got 0.5"),
])
def test_timing_overrides_are_rejected_with_their_flag(flags, message, tmp_path, capsys):
    code = main(["simulate", "--preset", "pendulum-undisturbed", "--out", str(tmp_path),
                 *flags])
    assert (code, capsys.readouterr().err) == (2, f"safefilter: config error: {message}\n")


def test_timing_errors_are_raised_as_config_errors_with_no_cause():
    with pytest.raises(ConfigError, match=r"^\$\.dt must be a positive finite number") \
            as excinfo:
        parse_config({"plant": "pendulum", "dt": -1})
    assert excinfo.value.__cause__ is None and excinfo.value.__context__ is None
    args = _parser().parse_args(["simulate", "--preset", "pendulum-undisturbed",
                                 "--horizon", "inf"])
    with pytest.raises(ConfigError, match=r"^--horizon must be finite") as excinfo:
        _load_config(args)
    assert excinfo.value.__cause__ is None and excinfo.value.__context__ is None


# The certify box: each range's width, with the document's form of the range,
# and the grid's cell cap
@pytest.mark.parametrize("plant,name", [
    ("pendulum", "theta_range"), ("truck", "d_range"), ("truck", "vl_range"),
])
def test_a_range_whose_width_overflows_exits_2_with_the_whole_message(plant, name, tmp_path,
                                                                      capsys):
    code, err = _exit_and_stderr("certify", {"plant": plant, "certify": {name: [-1e308, 1e308]}},
                                 tmp_path, capsys)
    assert (code, err) == (2, f"safefilter: config error: $.certify.{name} must have a finite "
                              f"width hi - lo, got [-1e+308, 1e+308]\n")


def test_a_grid_beyond_the_cell_cap_exits_2_with_the_whole_message(tmp_path, capsys):
    code, err = _exit_and_stderr("certify", {"plant": "truck",
                                             "certify": {"grid": [100000, 100000]}},
                                 tmp_path, capsys)
    assert (code, err) == (2, "safefilter: config error: $.certify.grid must have at most "
                              "MAX_GRID_CELLS = 4000000 cells, got 10000000000\n")


def test_a_cell_count_too_long_to_print_is_shown_by_its_digits():
    # a JSON document cannot carry this integer (the decoder limits
    # int-to-str conversion), so only a caller of parse_config can
    with pytest.raises(ConfigError) as excinfo:
        parse_config({"plant": "truck", "certify": {"grid": [10**4999, 2]}})
    assert str(excinfo.value) == ("$.certify.grid must have at most MAX_GRID_CELLS = 4000000 "
                                  "cells, got an integer of 5000 digits")
    assert excinfo.value.__cause__ is None and excinfo.value.__context__ is None


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"safefilter: config error: cannot read config: [Errno 2] No such file or "
        f"directory: {str(missing)!r}\n")
    with pytest.raises(ConfigError) as excinfo:
        _load_config(_parser().parse_args(["simulate", "--config", str(missing)]))
    assert isinstance(excinfo.value.__cause__, FileNotFoundError)
    assert excinfo.value.__suppress_context__


def test_invalid_json_is_a_config_error_from_the_decoder(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(ConfigError) as excinfo:
        _load_config(_parser().parse_args(["simulate", "--config", str(path)]))
    assert str(excinfo.value) == ("config is not valid JSON: Expecting property name "
                                  "enclosed in double quotes: line 1 column 2 (char 1)")
    assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)


def test_a_list_holding_a_too_long_integer_is_shown_by_its_type():
    with pytest.raises(ConfigError) as excinfo:
        parse_config({"plant": "pendulum", "dt": [10**5000]})
    assert str(excinfo.value) == \
        "$.dt must be a finite number, got a list holding an integer too long to show"


# ---------------------------------------------------------------------------
# CLI: each config section's library error, at the section's path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("doc,message,cause", [
    ({"plant": "truck", "params": {"overrides": {"alpha_c": -1}}},
     "$.params.overrides: invalid truck parameters: alpha_c must be positive, got -1.0",
     ValueError),
    ({"plant": "pendulum", "params": {"overrides": {"a": 1e-300}}},
     "$.params.overrides: invalid pendulum parameters: a*a must be positive and finite, "
     "got 0.0", ValueError),
    ({"plant": "pendulum", "issf": {"eps0": 0, "lam": 0, "delta": 1}},
     "$.issf: eps0 must be positive, got 0.0", ValueError),
    ({"plant": "pendulum", "issf": {"eps0": 1, "lam": 0, "delta": -1}},
     "$.issf: delta must be nonnegative, got -1.0", ValueError),
    ({"plant": "truck", "leader": {"kind": "hard_brake", "t_brake": 1, "a_peak": 1,
                                   "duration": 2}},
     "$.leader: a_peak must be negative (braking), got 1.0", ValueError),
    ({"plant": "truck", "leader": {"kind": "csv", "path": "nofile.csv"}},
     "$.leader: [Errno 2] No such file or directory: 'nofile.csv'", FileNotFoundError),
    ({"plant": "pendulum", "initial_state": [0.0, 1e155]},
     "$.initial_state: barrier evaluation entries must be finite", ValueError),
    ({"plant": "pendulum", "disturbance": {"kind": "heaviside_pulse", "amplitude": -1}},
     "$.disturbance: amplitude must be nonnegative, got -1.0", ValueError),
    ({"plant": "pendulum", "disturbance": {"kind": "csv", "path": "nofile.csv"}},
     "$.disturbance: [Errno 2] No such file or directory: 'nofile.csv'", FileNotFoundError),
    ({"plant": "truck", "leader": {"kind": "constant"},
      "disturbance": {"kind": "lag_residual", "tau": 0}},
     "$.disturbance: time_constant must be positive, got 0.0", ValueError),
])
def test_each_section_maps_its_library_error_to_its_path(doc, message, cause, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as excinfo:
        build_scenarios(parse_config(doc))
    assert str(excinfo.value) == message
    assert type(excinfo.value.__cause__) is cause and excinfo.value.__suppress_context__


@pytest.mark.parametrize("disturbance", ["zero", "lag_residual"])
@pytest.mark.parametrize("samples,message", [
    ("2,0\n100,0\n", "leader starts at t=2, after the first logged time t=0"),
    ("0,0\n2,0\n", "leader ends at t=2, before the last logged time t=5"),
], ids=["starts-late", "ends-early"])
def test_a_leader_that_does_not_cover_the_run_is_reported_under_the_leader(
        disturbance, samples, message, tmp_path, capsys, monkeypatch):
    # a lag_residual disturbance meets the leader first, in its reference run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lead.csv").write_text("t,a_L\n" + samples)
    doc = {"plant": "truck", "leader": {"kind": "csv", "path": "lead.csv"},
           "disturbance": {"kind": disturbance}, "horizon": 5}
    with pytest.raises(ConfigError) as excinfo:
        build_scenarios(parse_config(doc))
    assert str(excinfo.value) == f"$.leader: {message}"
    assert type(excinfo.value.__cause__) is SignalTooShortError
    code, err = _exit_and_stderr("simulate", doc, tmp_path, capsys)
    assert (code, err) == (2, f"safefilter: config error: $.leader: {message}\n")


def test_an_unknown_override_is_a_type_error_at_the_overrides_path():
    cfg = parse_config({"plant": "truck", "params": {"overrides": {"c9": 1.0}}})
    with pytest.raises(ConfigError, match=r"^\$\.params\.overrides: invalid truck "
                                          r"parameters: .*'c9'") as excinfo:
        build_params(cfg)
    assert type(excinfo.value.__cause__) is TypeError


@pytest.mark.parametrize("doc,message", [
    ({"plant": "pendulum", "certify": {"theta_range": [1.0, 0.0]}},
     "$.certify: theta_range must be a finite interval, got (1.0, 0.0)"),
    ({"plant": "truck", "certify": {"grid": [1, 1]}},
     "$.certify: grid must have at least 2 points per axis, got (1, 1)"),
    ({"plant": "truck", "certify": {"a_l_bounds": [1.0, -1.0]}},
     "$.certify: a_l_bounds must be ordered, got (1.0, -1.0)"),
])
def test_certify_maps_its_library_error_to_its_path(doc, message, tmp_path, capsys):
    with pytest.raises(ConfigError) as excinfo:
        cmd_certify(parse_config(doc), tmp_path)
    assert str(excinfo.value) == message
    assert type(excinfo.value.__cause__) is ValueError and excinfo.value.__suppress_context__
    assert list(tmp_path.iterdir()) == []  # rejected before any file is written
    code, err = _exit_and_stderr("certify", doc, tmp_path, capsys)
    assert (code, err) == (2, f"safefilter: config error: {message}\n")


# ---------------------------------------------------------------------------
# Library checks that only a direct caller meets
# ---------------------------------------------------------------------------

P = PendulumParams()


def test_a_record_rejects_an_unknown_controller_and_an_issf_without_epsilon():
    with pytest.raises(ValueError, match=r"^unknown controller 'bogus'$"):
        pendulum_record(P, "bogus")
    with pytest.raises(ValueError, match=r"^issf controller needs an epsilon function$"):
        pendulum_record(P, "issf")


def _scenario(**changes):
    fields = dict(name="x", plant="pendulum", controller="cbf", x0=(0.0, 0.0), horizon=1.0,
                  dt=0.01, disturbance=zero_disturbance(), pendulum=P)
    return Scenario(**{**fields, **changes})


def test_a_scenario_rejects_an_unknown_controller_and_missing_params():
    with pytest.raises(ValueError, match=r"^unknown controller 'bogus'$"):
        _scenario(controller="bogus")
    with pytest.raises(ValueError, match=r"^pendulum scenario needs pendulum params$"):
        _scenario(pendulum=None)


def test_a_scenario_checks_the_controller_and_its_epsilon_before_the_timing():
    # invalid in two ways: the controller rule, which includes issf's epsilon,
    # is checked where the controller is, before dt
    with pytest.raises(ValueError, match=r"^issf controller needs an epsilon function$"):
        _scenario(controller="issf", dt=0.0)


def test_the_margin_table_shows_a_cell_count_too_long_to_print_by_its_digits():
    with pytest.raises(ValueError, match=r"^grid must have at most MAX_GRID_CELLS = 4000000 "
                                         r"cells, got an integer of 5001 digits$"):
        truck_margin_table(TruckParams(), grid=(10**5000, 2))


@pytest.mark.parametrize("name", ["theta_range", "d_range", "vl_range"])
def test_a_range_end_beyond_the_float_range_has_no_finite_width(name):
    # float(10**400) overflows; the width rule rejects the range instead
    bounds = (0, 10**400)
    with pytest.raises(ValueError) as excinfo:
        if name == "theta_range":
            certify_pendulum(0.25, 0.5, 0.2, theta_range=bounds)
        else:
            truck_margin_table(TruckParams(), **{name: bounds})
    assert str(excinfo.value) == f"{name} must have a finite width hi - lo, got {bounds}"


def test_the_margin_table_rejects_a_negative_alpha_c():
    with pytest.raises(ValueError, match=r"^alpha_c must be nonnegative, got -1\.0$"):
        truck_margin_table(TruckParams(), alpha_c=-1.0)


def test_the_steady_state_shift_is_for_truck_runs_only():
    result = run_scenario(_scenario())
    with pytest.raises(ValueError, match=r"^steady-state shift is defined for truck runs$"):
        steady_state_shift(result, TruckParams(), 16.0)


@pytest.mark.parametrize("lam", [0.0, 0.4])
def test_h_star_of_an_infinite_eps0_is_minus_infinity(lam):
    assert solve_h_star(linear_class_kappa(0.1), EpsilonFunction(math.inf, lam), 4.5) \
        == -math.inf


@pytest.mark.parametrize("v0", [25.0, -1.0, math.nan])
def test_both_leader_profiles_check_v0_alike(v0, tmp_path):
    path = tmp_path / "lead.csv"
    path.write_text("t,a_L\n0,0\n100,0\n")
    message = rf"^v0 must lie in \[0, 20\.0\], got {v0}$"
    with pytest.raises(ValueError, match=message):
        constant_speed_profile(v0, v_bar_l=20.0)
    with pytest.raises(ValueError, match=message):
        leader_profile_from_csv(path, v0, v_bar_l=20.0)


def test_a_leader_csv_whose_induced_speed_leaves_the_range_warns(tmp_path):
    # from v0 = 16, 5 m/s^2 held for 2 s reaches 26 > v_bar_l = 20
    path = tmp_path / "lead.csv"
    path.write_text("t,a_L\n0,5\n2,0\n100,0\n")
    with pytest.warns(UserWarning, match=r"^induced leader speed leaves \[0, v_bar_l\]; "
                                         r"the simulator will clamp$"):
        leader_profile_from_csv(path, 16.0)
    # the same file from a standstill stays within range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        leader_profile_from_csv(path, 0.0)
