"""Error paths that the rest of the suite reaches loosely or not at all.

Each CLI case pins the whole message, the exit code and, where a library
error becomes a ConfigError, the exception chain: the ConfigError is raised
``from`` the library error, whose own message it repeats after the section's
JSON path.  The library cases pin the checks that only a direct caller meets.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import safefilter
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
    # a kind named twice would run, and write its log and summary row, twice
    ("simulate", {"plant": "pendulum", "controller": ["cbf", "cbf"], "horizon": 0.05},
     "$.controller[1]: repeats 'cbf'"),
    ("simulate", {"plant": "truck", "controller": ["nominal", "issf", "nominal"],
                  "issf": _ISSF}, "$.controller[2]: repeats 'nominal'"),
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
    # a brake that would start before the run, and a recorded leader that
    # passes v_bar_l = 20 from v_L = 16 at t = 2
    ("simulate", {"plant": "truck", "leader": {"kind": "hard_brake", "t_brake": -1.0,
                                               "a_peak": -8.0, "duration": 2.0}},
     "$.leader: t_brake must be nonnegative and finite, got -1.0"),
    ("simulate", {"plant": "truck", "leader": {"kind": "csv", "path": "rising.csv"}},
     "$.leader: rising.csv: induced leader speed must stay at most v_bar_l = 20.0"),
])
def test_cli_rejects_with_the_whole_message(command, doc, message, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lead.csv").write_text("t,a_L\n0,0\n100,0\n")
    (tmp_path / "rising.csv").write_text("t,a_L\n0,2\n100,2\n")
    code, err = _exit_and_stderr(command, doc, tmp_path, capsys)
    assert (code, err) == (2, f"safefilter: config error: {message}\n")


def test_an_initial_state_whose_barrier_overflows_within_the_leader_bound_exits_2(
        tmp_path, capsys, monkeypatch):
    # c2 = 1e308 leaves h finite at v_L = 0, but lf_h overflows at the
    # leader's first sample, -8 m/s^2; under a constant leader (bound 0) it
    # runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "brake.csv").write_text("t,a_L\n0,-8\n100,0\n")
    doc = {"plant": "truck", "params": {"overrides": {"c2": 1e308}}, "controller": "cbf",
           "initial_state": [30, 0, 0], "horizon": 1}
    with pytest.warns(UserWarning, match="induced leader speed falls below 0"):
        code, err = _exit_and_stderr(
            "simulate", {**doc, "leader": {"kind": "csv", "path": "brake.csv"}}, tmp_path, capsys)
    assert (code, err) == (2, "safefilter: config error: $.initial_state: "
                              "barrier evaluation entries must be finite\n")
    code, err = _exit_and_stderr("simulate", {**doc, "leader": {"kind": "constant"}},
                                 tmp_path, capsys)
    assert (code, err) == (0, "")


def test_a_failing_lag_reference_run_exits_3_and_writes_no_file(tmp_path, capsys):
    # the lag_residual disturbance integrates a reference run before any
    # scenario; a range gain of 1e308 makes its first derivative infinite
    doc = {"plant": "truck", "params": {"overrides": {"gain_range": 1e308}},
           "controller": "cbf", "disturbance": {"kind": "lag_residual"},
           "leader": {"kind": "constant"}, "horizon": 1}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "safefilter: runtime failure: scenario 'lag-reference' failed at t=0: non-finite "
        "derivative at t=0, state=(27.4, 16.0, 16.0)\n")
    assert list(out.iterdir()) == []


_STEM = ("must be a file-name stem: a letter or digit, then letters, digits, '.', '_' "
         "or '-', got ")


@pytest.mark.parametrize("name,message", [
    (3, "$.name must be a string, got 3"),
    ("", "$.name must be a non-empty string"),
    # a path, in or out of the output directory, and bytes no file name
    # holds; the absolute path lies under tmp_path, so a regression writes
    # there, where the test sees it
    ("{tmp}/escape", f"$.name {_STEM}'{{tmp}}/escape'"),
    ("../escape", f"$.name {_STEM}'../escape'"),
    ("a/b", f"$.name {_STEM}'a/b'"),
    ("\u0000", f"$.name {_STEM}'\\x00'"),
    # a comma would split the summary row; a leading dot or dash hides the
    # file or reads as a flag
    ("a,b", f"$.name {_STEM}'a,b'"),
    (".hidden", f"$.name {_STEM}'.hidden'"),
    ("-x", f"$.name {_STEM}'-x'"),
    ("a b", f"$.name {_STEM}'a b'"),
])
@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_a_name_that_is_not_a_file_name_stem_exits_2_and_writes_nothing(
        command, name, message, tmp_path, capsys):
    if isinstance(name, str):
        name, message = (text.replace("{tmp}", str(tmp_path)) for text in (name, message))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"plant": "pendulum", "name": name}))
    out = tmp_path / "sub" / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"safefilter: config error: {message}\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["doc.json"]


def test_a_name_of_the_stem_rule_names_the_outputs(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"plant": "pendulum", "name": "Run_2.b-c"}))
    assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "Run_2.b-c_certify.json").is_file()


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("flag", [True, False])
def test_an_output_directory_that_cannot_be_made_exits_2(below, flag, tmp_path, capsys):
    # --out (or the document's out_dir) names a file, or a path below one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    doc = {"plant": "pendulum"} if flag else {"plant": "pendulum", "out_dir": str(out)}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["certify", "--config", str(path)] + (["--out", str(out)] if flag else [])
    assert main(argv) == 2
    error = "[Errno 20] Not a directory" if below else "[Errno 17] File exists"
    assert capsys.readouterr().err == (f"safefilter: config error: "
                                       f"{'--out' if flag else '$.out_dir'}: {error}: "
                                       f"{str(out)!r}\n")
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["doc.json", "file"]


_SIMULATE = ["simulate", "--preset", "pendulum-undisturbed", "--horizon", "1"]


@pytest.mark.parametrize("argv,name", [
    (["certify", "--preset", "pendulum-default"], "pendulum-default_certify.json"),
    (["certify", "--preset", "paper-table-2"], "paper-table-2_margins.csv"),
    (["certify", "--preset", "paper-table-2"], "paper-table-2_certify.json"),
    (["hstar", "--preset", "truck-hstar-sweep"], "truck-hstar-sweep_hstar.csv"),
    (["sweep", "--preset", "truck-hstar-sweep"], "truck-hstar-sweep.csv"),
    (_SIMULATE, "pendulum-undisturbed-cbf.csv"),
    (_SIMULATE, "pendulum-undisturbed_summary.csv"),
])
def test_an_output_file_that_a_directory_takes_exits_2_naming_it(argv, name, tmp_path, capsys):
    taken = tmp_path / name
    taken.mkdir()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"safefilter: config error: cannot write {taken}: "
                                       f"[Errno 21] Is a directory: {str(taken)!r}\n")


def test_a_failed_runs_log_that_a_directory_takes_exits_2_naming_it(tmp_path, capsys):
    # the run fails (exit 3 with its partial log) but its log cannot be written
    dist_path = tmp_path / "huge.csv"
    dist_path.write_text("t,d\n0,1e308\n50,1e308\n")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "huge", "plant": "pendulum", "controller": "nominal",
                                "disturbance": {"kind": "csv", "path": str(dist_path)}}))
    taken = tmp_path / "huge-nominal.csv"
    taken.mkdir()
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"safefilter: config error: cannot write {taken}: "
                                       f"[Errno 21] Is a directory: {str(taken)!r}\n")


def test_a_margin_scan_that_overflows_in_a_later_block_leaves_no_margin_csv(tmp_path, capsys):
    # alpha_c (D - rho) overflows from D = 0.9e308, past the first block of
    # 163 rows: the rows written before it are removed with the file
    doc = {"name": "wide", "plant": "truck",
           "params": {"preset": "paper-table-2", "overrides": {"alpha_c": 2.0}},
           "certify": {"d_range": [0.0, 1.7e308], "grid": [600, 200]}}
    code, err = _exit_and_stderr("certify", doc, tmp_path, capsys)
    assert (code, err) == (2, "safefilter: config error: $.certify: the margin overflows on the "
                              "grid of d_range (0.0, 1.7e+308), vl_range (0.0, 20.0) and "
                              "a_l_bounds (-10.0, 5.0)\n")
    assert [entry.name for entry in tmp_path.iterdir()] == ["doc.json"]


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
     "$.disturbance: amplitude must be nonnegative and finite, got -1.0", ValueError),
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


def test_a_signal_that_ends_at_the_horizon_but_not_at_the_last_logged_time(
        tmp_path, capsys, monkeypatch):
    # the last logged time of horizon 0.3 at dt 0.1 is 3 * 0.1 =
    # 0.30000000000000004, which :g prints as 0.3 like the file's end: both
    # are printed in full where their :g texts are the same
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("t,d\n0,0.1\n0.3,0.1\n")
    doc = {"plant": "pendulum", "disturbance": {"kind": "csv", "path": "d.csv"},
           "horizon": 0.3, "dt": 0.1}
    code, err = _exit_and_stderr("simulate", doc, tmp_path, capsys)
    assert (code, err) == (2, "safefilter: config error: $.disturbance: disturbance ends at "
                              "t=0.3, before the last logged time t=0.30000000000000004\n")
    assert str(SignalTooShortError("leader", 2.0, 5.0)) == (
        "leader ends at t=2, before the last logged time t=5")


def _run_under_the_c_locale(script: str, cwd: Path) -> subprocess.CompletedProcess:
    """``script`` run by this Python in ``cwd`` under the C locale, whose
    file-system encoding is ASCII on Linux, with this safefilter importable."""
    package_root = str(Path(safefilter.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


@pytest.mark.skipif(sys.platform != "linux", reason="the C locale's file-system encoding "
                                                    "is ASCII on Linux")
@pytest.mark.parametrize("section", ["disturbance", "leader", "config"])
def test_a_path_the_file_system_encoding_cannot_represent_exits_2_and_says_so(
        section, tmp_path):
    # under an ASCII locale, opening a non-ASCII name raised the codec's own
    # "'ascii' codec can't encode character '\\xf6' ..."
    name = "st\u00f6rung"
    column = "a_L" if section == "leader" else "d"
    (tmp_path / f"{name}.csv").write_text(f"t,{column}\n0,0\n30,0\n", encoding="utf-8")
    doc = {"plant": "truck", "horizon": 1.0,
           "leader": {"kind": "csv", "path": f"{name}.csv"} if section == "leader"
           else {"kind": "constant"}}
    if section == "disturbance":
        doc["disturbance"] = {"kind": "csv", "path": f"{name}.csv"}
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    config = "doc.json" if section != "config" else f"{name}.json"
    # the config's name is in the script as an escape: argv bytes that the
    # encoding cannot decode become surrogates, which open() takes
    run = _run_under_the_c_locale(
        "import sys; from safefilter.cli import main; "
        f"sys.exit(main(['simulate', '--config', {config!a}, '--out', 'out']))", tmp_path)
    where = "cannot read config" if section == "config" else f"$.{section}"
    shown_name = f"st\\xf6rung.{'json' if section == 'config' else 'csv'}"
    assert (run.returncode, run.stderr.decode("ascii")) == (
        2, f"safefilter: config error: {where}: cannot open '{shown_name}': "
           "the file-system encoding 'ascii' cannot represent its name\n")


@pytest.mark.skipif(sys.platform != "linux", reason="the C locale's file-system encoding "
                                                    "is ASCII on Linux")
def test_an_output_path_the_file_system_encoding_cannot_represent_says_so(tmp_path):
    # under an ASCII locale, making a non-ASCII out_dir raised the codec's own
    # "'ascii' codec can't encode character '\\xf6' ...", and so did opening
    # a non-ASCII output file in each CSV writer
    (tmp_path / "doc.json").write_text(json.dumps({"plant": "truck", "out_dir": "\u00f6ut"}))
    run = _run_under_the_c_locale("import sys; from safefilter.cli import main; "
                                  "sys.exit(main(['simulate', '--config', 'doc.json']))",
                                  tmp_path)
    assert (run.returncode, run.stderr.decode("ascii")) == (
        2, "safefilter: config error: $.out_dir: cannot create '\\xf6ut': "
           "the file-system encoding 'ascii' cannot represent its name\n")
    run = _run_under_the_c_locale(
        "import numpy as np\n"
        "from safefilter import sim\n"
        "for write in (lambda path: sim.write_csv_table(path, 'x', [[1.0]]),\n"
        "              lambda path: sim.write_sweep_csv(path, [(np.ones((1, 3)), {})]),\n"
        "              lambda path: sim.write_margin_csv(path, *np.zeros((3, 1)), [])):\n"
        "    try:\n"
        "        write('\\xf6ut.csv')\n"
        "    except OSError as err:\n"
        "        print(ascii(str(err)))\n", tmp_path)
    assert run.stdout.decode("ascii").splitlines() == 3 * [
        "\"cannot open '\\xf6ut.csv': the file-system encoding 'ascii' cannot represent "
        "its name\""]
    assert list(tmp_path.iterdir()) == [tmp_path / "doc.json"]


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
    # from v0 = 16, 5 m/s^2 held for 2 s reaches 26 > v_bar_l = 20, which
    # neither the simulator nor the speed policy allows
    path = tmp_path / "lead.csv"
    path.write_text("t,a_L\n0,5\n2,0\n100,0\n")
    with pytest.raises(ValueError, match=r"lead\.csv: induced leader speed must stay at most "
                                         r"v_bar_l = 20\.0$"):
        leader_profile_from_csv(path, 16.0)
    # the same file from a standstill stays within range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        leader_profile_from_csv(path, 0.0)
    # from v0 = 4, -5 m/s^2 held for 2 s falls to -6 < 0, which the
    # simulator clamps at 0
    path.write_text("t,a_L\n0,-5\n2,0\n100,0\n")
    with pytest.warns(UserWarning, match=r"^induced leader speed falls below 0; "
                                         r"the simulator clamps it at 0$"):
        leader_profile_from_csv(path, 4.0)


def test_a_leader_csv_speed_past_the_cap_from_t_0_is_rejected(tmp_path):
    # the run starts the leader at v0 = 15 at t = 0: 0.1 m/s^2 held for
    # 100 s reaches 25 > 20, whatever the sample before 0 would have taken
    path = tmp_path / "lead.csv"
    path.write_text("t,a_L\n-10,-0.5\n0,0.1\n100,0\n")
    with pytest.raises(ValueError, match=r"induced leader speed must stay at most v_bar_l"):
        leader_profile_from_csv(path, 15.0, v_bar_l=20.0)


def test_a_leader_csv_sample_before_t_0_moves_no_speed(tmp_path):
    # the leader holds v0 = 15 from t = 0; 1 m/s^2 before 0 would have
    # reached 25, and -2 m/s^2 before 0 would have fallen below 0
    path = tmp_path / "lead.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first in (1.0, -2.0):
            path.write_text(f"t,a_L\n-10,{first}\n0,0\n100,0\n")
            leader_profile_from_csv(path, 15.0, v_bar_l=20.0)
