import csv
import dataclasses
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter.cli import (
    PARAM_PRESETS,
    SCENARIO_PRESETS,
    Config,
    ConfigError,
    _parser,
    build_scenarios,
    config_to_dict,
    main,
    parse_config,
    resolve_preset,
)
from safefilter import (
    EpsilonFunction,
    PendulumParams,
    TruckParams,
    cli,
    linear_class_kappa,
    solve_h_star,
    verification,
)
from safefilter.verification import MAX_GRID_CELLS

SIMULATABLE_PRESETS = [name for name, doc in SCENARIO_PRESETS.items() if "sweep" not in doc]


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


# documents that set what no preset does: every optional field and the other
# disturbance and leader kinds
_ROUNDTRIP_DOCS = {
    "every-optional-field": {
        "name": "full", "plant": "truck",
        "params": {"preset": "paper-table-2", "overrides": {"c1": 0.5, "alpha_c": 2}},
        "controller": "issf", "issf": {"eps0": 0.5, "lam": 0.4, "delta": 4.5},
        "disturbance": {"kind": "lag_residual"},
        "leader": {"kind": "constant"},
        "initial_state": [27.4, 16, 16.0], "horizon": 30, "dt": 0.02, "out_dir": "",
        "certify": {"theta_range": [-1, 1], "cross_term": False,
                    "d_range": [1.0, 50.0], "vl_range": [0, 10], "grid": [3, 4],
                    "a_l_bounds": [-8.0, 2.0]},
        "sweep": {"eps0_grid": [0.5, 1], "lambda_grid": [0]},
    },
    "csv-disturbance-and-leader": {
        "plant": "truck", "controller": ["nominal", "cbf"],
        "disturbance": {"kind": "csv", "path": "d.csv"},
        "leader": {"kind": "csv", "path": "lead.csv"},
    },
    "lag-residual-tau": {
        "plant": "truck", "disturbance": {"kind": "lag_residual", "tau": 1.5},
        "leader": {"kind": "hard_brake", "t_brake": 1.0, "a_peak": -8.0, "duration": 2.0},
    },
    "pendulum-overrides": {
        "plant": "pendulum", "params": {"overrides": {"kp": 3.0}},
        "disturbance": {"kind": "heaviside_pulse", "amplitude": -0.5},
        "initial_state": [0.0, -0.25],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS) + sorted(_ROUNDTRIP_DOCS))
def test_preset_configs_roundtrip(name):
    cfg = parse_config(_ROUNDTRIP_DOCS.get(name) or resolve_preset(name))
    assert parse_config(config_to_dict(cfg)) == cfg


def test_no_two_presets_share_a_list_or_object():
    # a caller that edits one preset's document in place edits no other
    def containers(value):
        if isinstance(value, (dict, list)):
            yield value
            for item in value.values() if isinstance(value, dict) else value:
                yield from containers(item)

    found = [id(c) for doc in SCENARIO_PRESETS.values() for c in containers(doc)]
    assert len(found) == len(set(found))


# any JSON value: null, booleans, integers too large for a float, NaN and the
# infinities, strings, lists and objects
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)
_CONTROLLER = st.sampled_from(["nominal", "cbf", "issf"])
_PARAM_FIELDS = sorted({f.name for cls in (PendulumParams, TruckParams)
                        for f in dataclasses.fields(cls)})


def _schema_shaped_docs(junk):
    """Config documents built from the real keys and kinds, with a value drawn
    from ``junk`` possible in every slot."""
    number = st.floats(0.01, 50.0) | st.integers(1, 50) | junk
    pair = st.lists(st.floats(-10.0, 100.0), min_size=2, max_size=2) | junk
    grid = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3) | junk

    def section(**keys):
        return st.fixed_dictionaries({}, optional=keys) | junk

    def tagged(kinds, **keys):
        return st.builds(lambda kind, rest: {"kind": kind, **rest},
                         st.sampled_from(kinds) | junk,
                         st.fixed_dictionaries({}, optional=keys)) | junk

    return st.fixed_dictionaries(
        {"plant": st.sampled_from(["pendulum", "truck"]) | junk},
        optional={
            "name": st.text(max_size=3) | junk,
            "params": section(
                preset=st.sampled_from(sorted(PARAM_PRESETS)) | junk,
                overrides=st.dictionaries(st.sampled_from(_PARAM_FIELDS), number,
                                          max_size=2) | junk,
            ),
            "controller": _CONTROLLER | st.lists(_CONTROLLER, max_size=3) | junk,
            "issf": section(eps0=number, lam=number, delta=number),
            "disturbance": tagged(["zero", "heaviside_pulse", "lag_residual", "csv"],
                                  amplitude=number, tau=number, path=st.just("d.csv") | junk),
            "leader": tagged(["constant", "hard_brake", "csv"], t_brake=number, a_peak=number,
                             duration=number, path=st.just("l.csv") | junk),
            "initial_state": st.lists(st.floats(-1.0, 30.0), min_size=2, max_size=3) | junk,
            "horizon": number,
            "dt": number,
            "out_dir": st.text(max_size=3) | junk,
            "certify": section(
                theta_range=pair, cross_term=st.booleans() | junk, d_range=pair, vl_range=pair,
                grid=st.lists(st.integers(-1, 300), min_size=2, max_size=2) | junk,
                a_l_bounds=pair,
            ),
            "sweep": section(eps0_grid=grid, lambda_grid=grid),
        },
    )


@settings(max_examples=300, deadline=None)
@given(_schema_shaped_docs(st.nothing()) | _schema_shaped_docs(_JSON))
def test_schema_shaped_documents_parse_or_raise_config_error(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    # the serialized config is plain JSON and parses back to the same config
    assert parse_config(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match=r"\$\.frobnicate"):
        parse_config({"plant": "pendulum", "frobnicate": 1})


def test_unknown_nested_key_rejected_with_path():
    doc = {"plant": "truck", "certify": {"gird": [10, 10]}}
    with pytest.raises(ConfigError, match=r"\$\.certify\.gird"):
        parse_config(doc)


def test_bad_plant_rejected():
    with pytest.raises(ConfigError):
        parse_config({"plant": "boat"})


def test_issf_controller_requires_issf_section():
    doc = {"plant": "pendulum", "controller": "issf"}
    with pytest.raises(ConfigError, match="issf"):
        parse_config(doc)


def test_lag_residual_restricted_to_truck():
    doc = {"plant": "pendulum", "disturbance": {"kind": "lag_residual", "tau": 0.6}}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_param_preset_plant_mismatch_rejected():
    doc = {"plant": "pendulum", "params": {"preset": "paper-table-2"}}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_overrides_are_validated_against_plant_invariants():
    # d_go = v_bar_l/kappa + d_st follows a kappa override
    doc = {"plant": "truck", "params": {"overrides": {"kappa": 0.4}},
           "leader": {"kind": "constant"}}
    (scenario,) = build_scenarios(parse_config(doc))
    assert scenario.truck.kappa == 0.4 and scenario.truck.d_go == 20.0 / 0.4 + 5.0 == 55.0
    # parse is fine, the physics check happens on build
    cfg = parse_config({**doc, "params": {"overrides": {"kappa": -0.4}}})
    with pytest.raises(ConfigError, match="invalid truck parameters: kappa"):
        build_scenarios(cfg)


@pytest.mark.parametrize("timing,where", [
    ({"dt": -1}, r"\$\.dt"),
    ({"dt": 0}, r"\$\.dt"),
    ({"dt": float("nan")}, r"\$\.dt"),
    ({"horizon": 0.005, "dt": 0.01}, r"\$\.horizon"),
    ({"horizon": float("inf")}, r"\$\.horizon"),
    ({"dt": 50.0}, r"\$\.horizon"),  # beyond the pendulum's default 40 s horizon
])
def test_bad_step_or_horizon_rejected_with_path(timing, where):
    with pytest.raises(ConfigError, match=where):
        parse_config({"plant": "pendulum", **timing})


@pytest.mark.parametrize("section", ["params", "issf", "disturbance", "leader", "certify",
                                     "sweep"])
@pytest.mark.parametrize("value", [[1], "zero", 3])
def test_non_object_section_rejected_with_path(section, value):
    with pytest.raises(ConfigError, match=rf"\$\.{section} must be an object"):
        parse_config({"plant": "truck", section: value})


def test_resolve_unknown_preset():
    with pytest.raises(ConfigError):
        resolve_preset("nope")


def test_param_preset_resolves_to_minimal_config():
    cfg = parse_config(resolve_preset("paper-table-2"))
    assert cfg.plant == "truck"
    assert cfg.params.preset == "paper-table-2"


# ---------------------------------------------------------------------------
# Entry point and file outputs
# ---------------------------------------------------------------------------


def test_dump_preset(capsys):
    assert main(["--dump-preset", "truck-braking"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["plant"] == "truck"
    assert main(["--dump-preset", "nope"]) == 2


@pytest.mark.parametrize("plant,name", [
    ("pendulum", "theta_range"), ("truck", "d_range"), ("truck", "vl_range"),
])
def test_certify_range_with_overflowing_width_rejected_with_path(plant, name):
    # np.linspace would step by hi - lo = inf and report a nan margin
    with pytest.raises(ConfigError, match=rf"\$\.certify\.{name} must have a finite width"):
        parse_config({"plant": plant, "certify": {name: [-1e308, 1e308]}})


def test_certify_range_whose_margin_overflows_exits_2_without_warnings(tmp_path, capsys):
    # the width 2e200 is finite, but the headway squares v_L: the margin grid
    # overflows, which is a validation error rather than a nan verdict
    config_path = tmp_path / "wide.json"
    config_path.write_text(json.dumps({"plant": "truck",
                                       "certify": {"vl_range": [-1e200, 1e200]}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["certify", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "config error: $.certify: the margin overflows" in capsys.readouterr().err
    assert not (tmp_path / "scenario_certify.json").exists()


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    assert _parser() is _parser()
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    assert main(["hstar", "--preset", "truck-hstar-sweep", "--out", str(tmp_path)]) == 0
    assert "h_star = -4.38" in capsys.readouterr().out
    assert main(["certify", "--preset", "pendulum-default", "--no-cross-term",
                 "--out", str(tmp_path)]) == 1
    assert _parser() is _parser()


def test_command_without_config_is_config_error(capsys):
    assert main(["simulate"]) == 2


def test_certify_pendulum_exit_codes(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["certify", "--preset", "pendulum-default", "--out", out]) == 0
    report = json.loads((tmp_path / "pendulum-default_certify.json").read_text())
    assert report["passed"] is True
    assert "samples" not in report["grid_spec"]
    # the pendulum margin is minimised exactly, not on a grid
    assert "certify pendulum-default: passed, min margin 0.2 " in capsys.readouterr().out
    assert main(["certify", "--preset", "pendulum-default", "--out", out,
                 "--no-cross-term"]) == 1


def test_certify_pendulum_witness_prints_no_negative_zero(tmp_path, capsys):
    assert main(["certify", "--preset", "pendulum-default", "--out", str(tmp_path)]) == 0
    assert "at {'theta': 0.0, 'theta_dot': 0.0}" in capsys.readouterr().out
    report = json.loads((tmp_path / "pendulum-default_certify.json").read_text())
    assert report["witness"] == {"theta": 0.0, "theta_dot": 0.0}
    assert "-0.0" not in (tmp_path / "pendulum-default_certify.json").read_text()


def test_certify_truck_writes_margin_table(tmp_path):
    out = str(tmp_path)
    assert main(["certify", "--preset", "paper-table-2", "--out", out]) == 0
    with open(tmp_path / "paper-table-2_margins.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 200 * 200
    assert min(float(r["margin"]) for r in rows) > 0.0


def test_certify_scans_the_truck_margin_grid_once_and_keeps_no_grid(tmp_path, monkeypatch):
    # the report reduces one scan to its minimum, and the margin CSV is
    # written from the same blocks; neither keeps the grid
    calls = []
    scan = verification.truck_margin_table

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(verification, "truck_margin_table", counted)
    monkeypatch.setattr(cli, "truck_margin_table", counted, raising=False)  # a direct call
    assert main(["certify", "--preset", "paper-table-2", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    report = json.loads((tmp_path / "paper-table-2_certify.json").read_text())
    assert "margin_grid" not in report
    assert not hasattr(verification.certify_truck_grid(TruckParams()), "margin_grid")
    with open(tmp_path / "paper-table-2_margins.csv", newline="") as handle:
        least = min(float(row["margin"]) for row in csv.DictReader(handle))
    assert least == float(f"{report['min_margin']:.9g}")


def _certify_peak(tmp_path, grid) -> int:
    """Traced peak bytes of a whole truck certify, scans and margin CSV, on ``grid``."""
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps({"name": "grid", "plant": "truck",
                                       "params": {"preset": "paper-table-2"},
                                       "certify": {"grid": grid}}))
    tracemalloc.start()
    try:
        code = main(["certify", "--config", str(config_path), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(tmp_path / "grid_margins.csv", "rb") as handle:
        rows = sum(1 for _ in handle) - 1
    assert code == 0 and rows == grid[0] * grid[1]
    return peak


def test_certify_holds_one_block_not_the_grid(tmp_path):
    # the design workload's 500 x 500 grid is 2 MB, a block of 65 rows 254 KB:
    # the whole certify, its one scan and the margin CSV's tile of 12 grid
    # rows peaks near 1.10 MB, or 1.18 MB when the call also builds the
    # command-line parser, at the canvas's translate: the tile's canvas
    # (about 54 bytes a cell) and its text both held, its slots already freed
    assert _certify_peak(tmp_path, [500, 500]) < 1_500_000


def test_wide_certify_holds_the_csv_tails_and_one_row(tmp_path):
    # on 2 x 125,000 the margin CSV's column tails, an array entry each as
    # wide as the longest text of its tile of 6,144 columns (23 to 26 bytes,
    # 2.89 MB), the axes and the tile's canvas (47 bytes a cell, 0.29 MB) set
    # the peak of about 7.51 MB, or 7.59 MB when the call also builds the
    # command-line parser, reached as the scan fills the second row; it adds
    # one row and the column terms of one chunk, not its own rows of rho,
    # v_L - v0 and both a_L rises over all columns.  Tails in 34-byte entries
    # peak at 8.91 MB, and as one bytes object a column (about 95 bytes each)
    # at 12.72 MB: both fail.
    assert _certify_peak(tmp_path, [2, 125_000]) <= 7_600_000


def test_hstar_command(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["hstar", "--preset", "truck-hstar-sweep", "--out", out]) == 0
    assert "h_star = -4.38" in capsys.readouterr().out
    # a preset without an issf block is a validation error
    assert main(["hstar", "--preset", "pendulum-default", "--out", out]) == 2


def test_sweep_reproduces_published_tables(tmp_path):
    out = str(tmp_path)
    assert main(["sweep", "--preset", "truck-hstar-sweep", "--out", out]) == 0
    with open(tmp_path / "truck-hstar-sweep.csv", newline="") as handle:
        rows = {(float(r["eps0"]), float(r["lambda"])): float(r["h_star"])
                for r in csv.DictReader(handle)}
    assert rows[(0.8, 0.0)] == pytest.approx(-40.50, abs=0.01)
    assert rows[(0.5, 0.4)] == pytest.approx(-4.38, abs=0.01)
    assert rows[(1.0, 0.25)] == pytest.approx(-7.59, abs=0.01)


def _per_row_sweep(eps0_grid, lambda_grid, delta: float) -> str:
    """The sweep CSV of one f-string per row and one scalar solve per cell,
    the truck's paper-table-2 alpha_c."""
    alpha = linear_class_kappa(TruckParams().alpha_c)  # paper-table-2 is the defaults
    want = "eps0,lambda,h_star,status\n"
    for eps0 in eps0_grid:
        for lam in lambda_grid:
            try:
                h_star = solve_h_star(alpha, EpsilonFunction(eps0, lam), delta)
                want += f"{eps0:.9g},{lam:.9g},{h_star:.9g},ok\n"
            except ValueError as err:
                status = f"error: {err}"
                if "," in status or '"' in status:
                    status = '"%s"' % status.replace('"', '""')
                want += f"{eps0:.9g},{lam:.9g},nan,{status}\n"
    return want


# extreme cells: subnormal, tiny and huge eps0 and lambda, c and z = lambda c
# overflowing, a cell whose log form is out of math.log's domain, and the
# lambda around e / c at eps0 = 0.5 and delta = 1, where z crosses e
_C_AT_E = 0.5 * 1.0 * 1.0 / 4.0 / TruckParams().alpha_c
_LAMBDA_AT_E = [math.nextafter(math.e / _C_AT_E, 0.0), math.e / _C_AT_E,
                math.nextafter(math.e / _C_AT_E, math.inf)]
_EXTREME_EPS0 = [0.5, 1.0 / 3.0, 1e-7, 4.0, 5e-324, 1e-300, 1e300, 1.7e308]
_EXTREME_LAMBDA = [-1.0, 0.0, 0.4, 1.0 / 3.0, -0.0, 2.5e-10, 5e-324, 1e-323, 1e300,
                   *_LAMBDA_AT_E]


@pytest.mark.parametrize("delta", [4.5, 0.0, 5e-324, 1.0, 1e150])
def test_sweep_rows_match_the_per_row_format(delta, tmp_path):
    # the rows are those of one f-string per row and one scalar solve per
    # cell, error rows (a negative lambda, an eps0 of 0, a cell the log form
    # cannot take) included, whose status holds a comma and is quoted (RFC 4180)
    eps0_grid = _EXTREME_EPS0 + [0.0]
    doc = {"name": "grid", "plant": "truck", "params": {"preset": "paper-table-2"},
           "issf": {"eps0": 0.5, "lam": 0.4, "delta": delta},
           "sweep": {"eps0_grid": eps0_grid, "lambda_grid": _EXTREME_LAMBDA}}
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    written = (tmp_path / "grid.csv").read_text()
    assert written == _per_row_sweep(eps0_grid, _EXTREME_LAMBDA, delta)
    assert {len(row) for row in csv.reader(io.StringIO(written))} == {4}
    assert '0.5,-1,nan,"error: lam must be nonnegative and finite, got -1.0"\n' in written
    if delta == 4.5:
        assert "\n0.5,0.4,-4.38358096,ok\n" in written
    if delta == 1.0:  # both sides of z = e
        assert {lam * _C_AT_E < math.e for lam in _LAMBDA_AT_E} == {True, False}
    if delta == 1e150:
        assert "\n1e+300,4.94065646e-324,nan,error: math domain error\n" in written


def test_sweep_rows_of_nan_and_inf_lambda_and_a_grid_wider_than_a_block(tmp_path, capsys):
    # a config cannot hold nan or inf, a Config built in code can: their rows
    # are EpsilonFunction's errors in row order; a grid row wider than one
    # block of cells spans blocks
    lambda_grid = ([math.nan, math.inf, -math.inf] + _EXTREME_LAMBDA
                   + np.linspace(0.0, 0.6, cli._SWEEP_CELLS + 7).tolist())
    eps0_grid = [0.5, math.inf, 1e300]
    cfg = parse_config({"name": "wide", "plant": "truck", "params": {"preset": "paper-table-2"},
                        "issf": {"eps0": 0.5, "lam": 0.4, "delta": 4.5},
                        "sweep": {"eps0_grid": [0.5], "lambda_grid": [0.4]}})
    cfg = dataclasses.replace(cfg, sweep=cli.SweepSpec(tuple(eps0_grid), tuple(lambda_grid)))
    assert cli.cmd_sweep(cfg, tmp_path) == 0
    written = (tmp_path / "wide.csv").read_text()
    assert written == _per_row_sweep(eps0_grid, lambda_grid, 4.5)
    assert '\n0.5,nan,nan,"error: lam must be nonnegative and finite, got nan"\n' in written
    assert '\n0.5,inf,nan,"error: lam must be nonnegative and finite, got inf"\n' in written
    assert "\ninf,0.4,-inf,ok\n" in written
    # nan, inf, -inf and -1 in each grid row, and eps0 = inf at the two lambda
    # whose quarter underflows to 0, where the log form takes math.log(0.0)
    assert '\ninf,4.94065646e-324,nan,error: math domain error\n' in written
    rows = len(eps0_grid) * len(lambda_grid)
    assert capsys.readouterr().out == (f"sweep wide: {rows} rows -> {tmp_path / 'wide.csv'}"
                                       " (14 rows rejected)\n")


def test_sweep_holds_one_block_of_cells_not_the_grid(tmp_path):
    # on 2 x 200,000 the lambda axis as an array (1.6 MB) and one block of
    # 4,096 cells (the kernel's arrays, its per-element lists and the canvas)
    # peak near 2.67 MB.  Formatting each lambda once for the sweep, as a
    # per-cell loop did, held a (lambda, text) pair per column and peaked at
    # 25.06 MB; the grid's cells as three float64 columns alone are 9.6 MB.
    cfg = parse_config({"name": "wide", "plant": "truck",
                        "issf": {"eps0": 0.5, "lam": 0.4, "delta": 4.5},
                        "sweep": {"eps0_grid": [0.5, 1.0],
                                  "lambda_grid": np.linspace(0.0, 0.6, 200_000).tolist()}})
    tracemalloc.start()
    try:
        assert cli.cmd_sweep(cfg, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(tmp_path / "wide.csv", "rb") as handle:
        assert sum(1 for _ in handle) == 1 + 400_000
    assert peak <= 3_500_000


@pytest.mark.parametrize("issf,message", [
    ({"eps0": 0.5, "lam": 0.4, "delta": -1}, "delta must be nonnegative, got -1.0"),
    ({"eps0": 0.5, "lam": -1, "delta": 4.5}, "lam must be nonnegative and finite, got -1.0"),
    ({"eps0": 0, "lam": 0.4, "delta": 4.5}, "eps0 must be positive, got 0.0"),
])
def test_sweep_rejects_its_issf_section_as_hstar_does(issf, message, tmp_path, capsys):
    # the sweep used to exit 0 with an error row per cell for a negative delta
    doc = {"plant": "truck", "params": {"preset": "paper-table-2"}, "issf": issf,
           "sweep": {"eps0_grid": [0.5], "lambda_grid": [0.4]}}
    config_path = tmp_path / "doc.json"
    config_path.write_text(json.dumps(doc))
    for command in ("sweep", "hstar"):
        assert main([command, "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"safefilter: config error: $.issf: {message}\n"
    assert not (tmp_path / "scenario.csv").exists()


def test_simulate_writes_logs_and_summary(tmp_path):
    out = str(tmp_path)
    code = main(["simulate", "--preset", "pendulum-undisturbed", "--out", out,
                 "--horizon", "2.0"])
    assert code == 0
    log = (tmp_path / "pendulum-undisturbed-cbf.csv").read_text().splitlines()
    assert log[0] == "t,theta,theta_dot,u_nom,u_filt,d,h"
    assert len(log) == 202
    # 9 significant digits survive a parse/format round trip
    first = log[1].split(",")
    assert float(first[1]) == pytest.approx(-0.1, abs=1e-12)
    summary = (tmp_path / "pendulum-undisturbed_summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,controller,h_min,h_star,steady_state_shift,clamp_events"
    assert len(summary) == 3


def test_simulate_lets_each_log_go_before_the_next_run(tmp_path, monkeypatch):
    # each run's summary numbers are taken as its CSV is written, so when the
    # next run starts no earlier log is alive
    logs = []
    run = cli.run_scenario

    def tracked(scenario):
        assert [log() for log in logs] == [None] * len(logs)
        result = run(scenario)
        logs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run_scenario", tracked)
    assert main(["simulate", "--preset", "truck-braking-disturbed", "--out", str(tmp_path)]) == 0
    assert len(logs) == 3
    summary = (tmp_path / "truck-braking-disturbed_summary.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in summary[1:]] == ["nominal", "cbf", "issf"]


@pytest.mark.parametrize("horizon,dt", [("20.005", "0.005"), ("33.3", "0.1")])
def test_a_lag_residual_covers_the_last_logged_time_of_its_run(horizon, dt, tmp_path):
    # the last logged times, 20.005 and 333 * 0.1, which rounds above 33.3,
    # fall past the last point of a 0.01 s grid up to the horizon
    assert main(["simulate", "--preset", "truck-braking-disturbed", "--horizon", horizon,
                 "--dt", dt, "--out", str(tmp_path)]) == 0


def test_simulate_config_file_with_overrides(tmp_path):
    doc = {
        "name": "custom",
        "plant": "pendulum",
        "controller": "cbf",
        "horizon": 1.0,
        "dt": 0.01,
        "initial_state": [-0.1, 0.5],
    }
    config_path = tmp_path / "custom.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path),
                 "--dt", "0.005"]) == 0
    log = (tmp_path / "custom-cbf.csv").read_text().splitlines()
    assert len(log) == 202  # 1 s at dt = 0.005


def test_simulate_with_csv_inputs(tmp_path):
    lead_path = tmp_path / "lead.csv"
    lead_path.write_text("t,a_L\n0,0\n30,0\n")
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text("t,d\n0,0.5\n30,0.5\n")
    doc = {
        "name": "csvrun",
        "plant": "truck",
        "controller": "cbf",
        "leader": {"kind": "csv", "path": str(lead_path)},
        "disturbance": {"kind": "csv", "path": str(dist_path)},
        "initial_state": [27.4, 16.0, 16.0],
        "horizon": 5.0,
    }
    config_path = tmp_path / "csvrun.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("bom", ["config", "leader", "disturbance"])
def test_inputs_saved_with_a_utf8_bom_are_read(bom, tmp_path):
    # Windows editors and spreadsheet "CSV UTF-8" exports start a file with
    # a byte order mark
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8-sig" if path.stem == bom else "utf-8")
        return str(path)

    doc = {
        "name": "bom",
        "plant": "truck",
        "controller": "cbf",
        "leader": {"kind": "csv", "path": write("leader.csv", "t,a_L\n0,0\n30,0\n")},
        "disturbance": {"kind": "csv", "path": write("disturbance.csv", "t,d\n0,0.5\n30,0.5\n")},
        "horizon": 5.0,
    }
    assert main(["simulate", "--config", write("config.json", json.dumps(doc)),
                 "--out", str(tmp_path)]) == 0


def test_simulate_beyond_leader_domain_is_rejected_before_the_run(tmp_path, capsys):
    lead_path = tmp_path / "lead.csv"
    lead_path.write_text("t,a_L\n0,0\n2,0\n")
    doc = {
        "name": "short",
        "plant": "truck",
        "controller": "nominal",
        "leader": {"kind": "csv", "path": str(lead_path)},
        "initial_state": [27.4, 16.0, 16.0],
        "horizon": 5.0,
    }
    config_path = tmp_path / "short.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert "config error: $.leader: leader ends at t=2" in capsys.readouterr().err


def test_simulate_beyond_disturbance_domain_is_rejected_before_the_run(tmp_path, capsys):
    # the run used to fail at t = 5.005 with exit 3 and no partial log
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text("t,d\n0,0.1\n5,0.1\n")
    doc = {
        "name": "short",
        "plant": "pendulum",
        "disturbance": {"kind": "csv", "path": str(dist_path)},
        "horizon": 10.0,
    }
    config_path = tmp_path / "short.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert "config error: $.disturbance: disturbance ends at t=5" in capsys.readouterr().err
    assert not (tmp_path / "short-cbf.csv").exists()


@pytest.mark.parametrize("plant,section,samples,start", [
    ("pendulum", "disturbance", "t,d\n1.0,0.1\n100,0.1\n", "1"),
    ("truck", "leader", "t,a_L\n2,0\n100,0\n", "2"),
], ids=["disturbance", "leader"])
def test_simulate_signal_that_starts_after_zero_is_rejected_before_the_run(
        plant, section, samples, start, tmp_path, capsys):
    # the run used to fail at t = 0 with exit 3: "t=0 outside sampled domain [1, 100]"
    (tmp_path / "late.csv").write_text(samples)
    doc = {"name": "late", "plant": plant, "controller": "nominal", "horizon": 5.0,
           section: {"kind": "csv", "path": str(tmp_path / "late.csv")}}
    if plant == "truck":
        doc["initial_state"] = [27.4, 16.0, 16.0]
    config_path = tmp_path / "late.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"safefilter: config error: $.{section}: {section} starts at t={start}, after the "
        f"first logged time t=0\n")
    assert not (tmp_path / "late-nominal.csv").exists()
    assert not (tmp_path / "late_summary.csv").exists()


def test_robust_truck_filter_far_behind_the_leader(tmp_path):
    # eps(h) = eps0 exp(lam h) overflows at h = 5000 m; the tightening takes
    # its limit 0, so the filter stays inactive instead of raising
    doc = {**resolve_preset("truck-braking"), "controller": ["issf"],
           "issf": {"eps0": 0.5, "lam": 0.4, "delta": 4.5},
           "initial_state": [5000.0, 16.0, 16.0]}
    config_path = tmp_path / "far.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    log = np.loadtxt(tmp_path / "truck-braking-issf.csv", delimiter=",", skiprows=1)
    assert log.shape == (6001, 8) and np.isfinite(log).all()
    assert np.array_equal(log[:, 4], log[:, 5])  # u_filt == u_nom


def test_robust_pendulum_filter_with_vanishing_epsilon_exits_3(tmp_path, capsys):
    # a pulse far beyond the declared bound drives h so low that eps(h)
    # underflows to 0; 1/eps is then inf and the run stops with a partial log
    doc = resolve_preset("pendulum-pulse-issf-exp")
    doc["disturbance"] = {"kind": "heaviside_pulse", "amplitude": 200.0}
    config_path = tmp_path / "big.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 3
    assert "FAILED" in capsys.readouterr().err
    log = (tmp_path / "pendulum-pulse-issf-exp-issf.csv").read_text().splitlines()
    assert log[0] == "t,theta,theta_dot,u_nom,u_filt,d,h"
    assert log[-1].endswith(",nan,nan,nan,nan,nan,nan") and len(log) >= 3


_ISSF = {"eps0": 0.5, "lam": 0.0, "delta": 1.0}
_BRAKE = {"kind": "hard_brake", "t_brake": 1.0, "a_peak": -8.0, "duration": 2.0}


@pytest.mark.parametrize("leader", [
    {"kind": "constant"},
    _BRAKE,
    {"kind": "csv", "path": "lead.csv"},
])
def test_leader_starts_at_the_initial_leader_speed(leader, tmp_path, monkeypatch):
    # the leader profile and the summary's steady state start from
    # initial_state[2]; a leader has no speed of its own to contradict it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lead.csv").write_text("t,a_L\n0,0\n1,-4\n2,0\n100,0\n")
    with pytest.raises(ConfigError, match=r"\$\.leader\.v0: unknown key"):
        parse_config({"plant": "truck", "leader": {**leader, "v0": 10.0}})
    doc = {"name": "lead", "plant": "truck", "controller": "nominal", "leader": leader,
           "initial_state": [27.4, 10.0, 10.0], "horizon": 30.0}
    (tmp_path / "lead.json").write_text(json.dumps(doc))
    assert main(["simulate", "--config", "lead.json", "--out", str(tmp_path)]) == 0
    log = np.loadtxt(tmp_path / "lead-nominal.csv", delimiter=",", skiprows=1)
    v_l = log[:, 3]
    assert v_l[0] == 10.0
    # the hard brake stops from 10 m/s, the csv leader slows by 4 m/s
    final = {"constant": 10.0, "hard_brake": 0.0, "csv": 6.0}[leader["kind"]]
    assert v_l[-1] == pytest.approx(final, abs=1e-9)


@pytest.mark.parametrize("command,doc", [
    ("simulate", {"plant": "pendulum", "dt": -1}),
    ("simulate", {"plant": "pendulum", "disturbance": [1]}),
    ("simulate", {"plant": "truck", "leader": [1]}),
    ("simulate", {"plant": "truck", "params": {"overrides": {"c1": "abc"}}}),
    ("simulate", {"plant": "pendulum", "initial_state": [-0.1, "abc"]}),
    ("simulate", {"plant": "pendulum", "initial_state": [10**400, 0.0]}),
    ("simulate", {"plant": "truck", "leader": _BRAKE,  # a leader above v_bar_l
                  "initial_state": [27.4, 16.0, 30.0]}),
    ("certify", {"plant": "pendulum", "certify": {"theta_range": ["abc", 1.0]}}),
    ("certify", {"plant": "truck", "certify": {"d_range": [0.0, None]}}),
    ("certify", {"plant": "truck", "certify": {"vl_range": [[0.0], 20.0]}}),
    ("certify", {"plant": "truck", "certify": {"a_l_bounds": [-10.0, "abc"]}}),
    ("certify", {"plant": "truck", "certify": {"grid": ["abc", 10]}}),
    ("certify", {"plant": "truck", "certify": {"grid": [1, 1]}}),
    ("certify", {"plant": "pendulum", "certify": {"cross_term": "yes"}}),
    ("certify", {"plant": "pendulum", "certify": {"theta_range": [1.0, 0.0]}}),
    ("sweep", {"plant": "pendulum", "issf": _ISSF,
               "sweep": {"eps0_grid": ["abc"], "lambda_grid": [0.0]}}),
    ("sweep", {"plant": "pendulum", "issf": _ISSF,
               "sweep": {"eps0_grid": [0.5], "lambda_grid": [0.0, None]}}),
    ("hstar", {"plant": "pendulum", "issf": {**_ISSF, "lam": -1.0}}),
    ("simulate", {"plant": "pendulum", "horizon": 1e12, "dt": 1e-6}),  # > MAX_STEPS
    ("simulate", {"plant": "pendulum", "initial_state": [0.0, 1e155]}),  # h(x0) overflows
    ("certify", {"plant": "truck", "certify": {"grid": [100000, 100000]}}),  # > MAX_GRID_CELLS
    ("certify", {"plant": "pendulum", "certify": {"theta_range": [-1e200, 1e200]}}),  # overflows
    ("certify", {"plant": "truck", "params": {"preset": ["paper-table-2"]}}),
    ("certify", {"plant": "truck", "params": {"preset": {}}}),
    ("simulate", {"plant": "pendulum", "disturbance": {"kind": [1]}}),
    ("simulate", {"plant": "truck", "leader": {"kind": {}}}),
    ("simulate", {"plant": "pendulum", "horizon": 1e308, "dt": 0.001}),  # horizon/dt = inf
    # certify ranges whose width hi - lo overflows
    ("certify", {"plant": "pendulum", "certify": {"theta_range": [-1e308, 1e308]}}),
    ("certify", {"plant": "truck", "params": {"preset": "paper-table-2"},
                 "certify": {"d_range": [-1e308, 1e308]}}),
    ("certify", {"plant": "truck", "certify": {"vl_range": [-1e308, 1e308]}}),
    ("simulate", {"plant": "truck", "initial_state": [0.0, 1e200, 16.0]}),  # h(x0) overflows
    # a leader CSV with a nan acceleration sample, written by the test
    ("simulate", {"plant": "truck", "leader": {"kind": "csv", "path": "nan_leader.csv"}}),
    # disturbance and leader CSVs with a row of one field, written by the test
    ("simulate", {"plant": "pendulum", "disturbance": {"kind": "csv", "path": "short.csv"}}),
    ("simulate", {"plant": "truck", "leader": {"kind": "csv", "path": "short_leader.csv"}}),
    # finite pendulum ranges whose margin overflows in theta^2
    ("certify", {"plant": "pendulum", "certify": {"theta_range": [-1e200, 1e200]}}),
    ("certify", {"plant": "pendulum", "certify": {"theta_range": [-1e200, 1e200],
                                                  "cross_term": False}}),
    # the robust design and the free-flow distance are no truck parameters
    ("simulate", {"plant": "truck", "params": {"overrides": {"eps0": 50.0}}}),
    ("simulate", {"plant": "truck", "params": {"overrides": {"lam": 3.0}}}),
    ("simulate", {"plant": "truck", "params": {"overrides": {"delta": 0.1}}}),
    ("simulate", {"plant": "truck", "params": {"overrides": {"d_go": 30.0}}}),
    ("simulate", {"plant": "truck", "params": {"overrides": {"kappa": 1e-320}}}),
    # a leader starts at initial_state[2] and has no v0 of its own
    ("simulate", {"plant": "truck", "leader": {**_BRAKE, "v0": 16.0}}),
    # a negative delta, rejected before any run (for the truck, before the
    # lag reference run)
    ("simulate", {"plant": "pendulum", "controller": "issf",
                  "issf": {"eps0": 0.15, "lam": 0, "delta": -7}, "horizon": 1}),
    ("simulate", {"plant": "truck", "controller": "issf", "leader": _BRAKE,
                  "disturbance": {"kind": "lag_residual"},
                  "issf": {"eps0": 0.5, "lam": 0.4, "delta": -7}, "horizon": 1}),
    # pendulum parameters whose squares underflow
    ("simulate", {"plant": "pendulum", "params": {"overrides": {"a": 1e-300}}}),
    ("certify", {"plant": "pendulum", "params": {"overrides": {"a": 1e-300}}}),
    ("simulate", {"plant": "pendulum", "params": {"overrides": {"b": 1e-300}}}),
])
def test_malformed_config_exits_2_without_traceback(command, doc, tmp_path, capsys,
                                                    monkeypatch):
    # a relative path in a document resolves in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan_leader.csv").write_text("t,a_L\n0,0\n1,nan\n100,0\n")
    (tmp_path / "short.csv").write_text("t,d\n0,0.1\n5\n100,0\n")
    (tmp_path / "short_leader.csv").write_text("t,a_L\n0,0\n5\n100,0\n")
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "config error: $." in err and "Traceback" not in err


@st.composite
def _preset_variants(draw):
    """An embedded preset's document as it is, or with one top-level entry
    removed or set to any JSON value: documents that reach the commands' work."""
    doc = resolve_preset(draw(st.sampled_from(sorted(SCENARIO_PRESETS))))
    key = draw(st.sampled_from(sorted(doc)))
    change = draw(st.sampled_from(["keep", "drop", "junk"]))
    if change == "drop":
        del doc[key]
    elif change == "junk":
        doc[key] = draw(_JSON)
    return doc


# Each example's work is bounded: --horizon and --dt override the document's
# timing to at most 100 steps (the document's own values are still checked),
# and the certify grids these documents can name hold at most 300 x 300 cells.
@settings(max_examples=100, deadline=None)
@given(doc=_JSON | _schema_shaped_docs(_JSON) | _preset_variants(),
       command=st.sampled_from(["certify", "hstar", "simulate", "sweep"]),
       horizon=st.floats(0.0, 1.0), dt=st.sampled_from([0.01, 0.05, 0.5]))
def test_any_document_exits_0_to_3_under_every_command(doc, command, horizon, dt):
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        # a run may give the simulator's documented warnings (an initial state
        # outside the safe set, a leader speed it clamps); a leaked numpy
        # warning is an error
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "scenario .*: initial state is outside the safe set",
                                UserWarning)
        warnings.filterwarnings("ignore", "induced leader speed falls below 0", UserWarning)
        path = os.path.join(out, "doc.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        code = main([command, "--config", path, "--out", out,
                     "--horizon", repr(horizon), "--dt", repr(dt)])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("doc,where", [
    # a list or an object where a name belongs is checked before any lookup
    ({"plant": "truck", "params": {"preset": ["paper-table-2"]}}, r"\$\.params\.preset"),
    ({"plant": "truck", "params": {"preset": {}}}, r"\$\.params\.preset"),
    ({"plant": "pendulum", "disturbance": {"kind": [1]}}, r"\$\.disturbance\.kind"),
    ({"plant": "truck", "leader": {"kind": {}}}, r"\$\.leader\.kind"),
    ({"plant": "truck", "controller": [["cbf"]]}, r"\$\.controller\[0\]"),
    ({"plant": ["truck"]}, r"\$\.plant"),
    # lists of the wrong length
    ({"plant": "truck", "certify": {"grid": [10]}}, r"\$\.certify\.grid must be a 2-element"),
    ({"plant": "truck", "certify": {"d_range": [0.0, 1.0, 2.0]}}, r"\$\.certify\.d_range"),
    ({"plant": "pendulum", "sweep": {"eps0_grid": [], "lambda_grid": [0.0]}},
     r"\$\.sweep\.eps0_grid must be a non-empty"),
    ({"plant": "pendulum", "controller": []}, r"\$\.controller must be a non-empty"),
    ({"plant": "truck", "initial_state": [27.4, 16.0]}, r"\$\.initial_state must be a 3-element"),
])
def test_malformed_value_rejected_with_path(doc, where):
    with pytest.raises(ConfigError, match=where):
        parse_config(doc)


@pytest.mark.parametrize("doc,where", [
    ({"plant": "truck", "dt": 10**5000}, r"\$\.dt "),
    ({"plant": "pendulum", "certify": {"theta_range": [10**5000, 1]}},
     r"\$\.certify\.theta_range\[0\] "),
    ({"plant": "truck", "certify": {"grid": [10**5000, 2]}}, r"\$\.certify\.grid "),
    ({"plant": "truck", "name": 10**5000}, r"\$\.name "),
    ({"plant": "pendulum", "certify": {"cross_term": 10**5000}}, r"\$\.certify\.cross_term "),
    ({"plant": "truck", "controller": 10**5000}, r"\$\.controller "),
])
def test_integers_too_long_to_print_are_rejected_with_path(doc, where):
    # repr refuses integers of more than 4300 digits; the message gives the length
    with pytest.raises(ConfigError, match=where + r".*an integer of 5001 digits"):
        parse_config(doc)


@pytest.mark.parametrize("plant,certify,where", [
    ("truck", {"grid": [100000, 100000]}, "grid"),
])
def test_certify_beyond_max_grid_cells_exits_2_without_allocating(
        plant, certify, where, tmp_path, capsys):
    config_path = tmp_path / "big.json"
    config_path.write_text(json.dumps({"plant": plant, "certify": certify}))
    tracemalloc.start()
    try:
        code = main(["certify", "--config", str(config_path), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"config error: $.certify.{where}" in capsys.readouterr().err
    assert peak < 1 << 20
    # the design workload's 500 x 500 truck grid fits well inside the cap
    assert 16 * 500 * 500 <= MAX_GRID_CELLS
    parse_config({"plant": plant, "certify": {"grid": [2000, 2000]}})


def test_sweep_beyond_max_grid_cells_exits_2_without_allocating(tmp_path, capsys):
    # a 2,001 x 2,000 grid, 4,002,000 cells: rejected in parse_config, before
    # the first block of the kernel and the writer's canvas (a 64 x 64 sweep,
    # one block, peaks near 1.03 MB), and no CSV is opened; the document's
    # 4,001 floats and the parser peak near 0.42 MB
    config_path = tmp_path / "big.json"
    config_path.write_text(json.dumps({
        "name": "big", "plant": "truck", "issf": {"eps0": 0.5, "lam": 0.4, "delta": 4.5},
        "sweep": {"eps0_grid": [0.5] * 2001, "lambda_grid": [0.4] * 2000}}))
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", str(config_path), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "safefilter: config error: $.sweep must have at most MAX_GRID_CELLS = "
        f"{MAX_GRID_CELLS} cells, got 4002000\n")
    assert peak < 1 << 19
    assert not (tmp_path / "big.csv").exists()
    # a grid of exactly the cap is accepted
    parse_config({"plant": "truck", "sweep": {"eps0_grid": [0.5] * 2000,
                                              "lambda_grid": [0.4] * 2000}})


def test_overflowing_run_exits_3_with_partial_log(tmp_path):
    # every stage derivative stays finite under a 1e308 disturbance, but the
    # RK4 step's weighted sum overflows on the first step
    dist_path = tmp_path / "huge.csv"
    dist_path.write_text("t,d\n0,1e308\n50,1e308\n")
    doc = {
        "name": "huge",
        "plant": "pendulum",
        "controller": "nominal",
        "disturbance": {"kind": "csv", "path": str(dist_path)},
        "horizon": 5.0,
    }
    config_path = tmp_path / "huge.json"
    config_path.write_text(json.dumps(doc))
    with np.errstate(over="ignore"):
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 3
    assert (tmp_path / "huge-nominal.csv").read_text().splitlines() == [
        "t,theta,theta_dot,u_nom,u_filt,d,h",
        "0,-0.1,0.5,1.51666833,1.51666833,1e+308,0.24",
        "0,nan,nan,nan,nan,nan,nan",
    ]


@pytest.mark.parametrize("controller", ["cbf", "nominal"])
def test_overflowing_barrier_exits_3_with_partial_log(controller, tmp_path):
    # a 1e200 disturbance drives theta_dot to about 1e198 within the first
    # step, where the barrier's theta_dot^2 overflows: at RK4 stage 2 under
    # the filter, at the next logged row of the nominal run
    dist_path = tmp_path / "huge.csv"
    dist_path.write_text("t,d\n0,1e200\n50,1e200\n")
    doc = {
        "name": "huge",
        "plant": "pendulum",
        "controller": controller,
        "disturbance": {"kind": "csv", "path": str(dist_path)},
        "horizon": 5.0,
    }
    config_path = tmp_path / "huge.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 3
    assert (tmp_path / f"huge-{controller}.csv").read_text().splitlines() == [
        "t,theta,theta_dot,u_nom,u_filt,d,h",
        "0,-0.1,0.5,1.51666833,1.51666833,1e+200,0.24",
        "0,nan,nan,nan,nan,nan,nan",
    ]


@pytest.mark.parametrize("flags,where", [
    (["--dt", "-1"], "--dt"),
    (["--horizon", "0.001"], "--horizon"),
    (["--dt", "100"], "$.horizon"),  # the preset's 40 s horizon is shorter than dt
])
def test_bad_step_or_horizon_override_exits_2(flags, where, tmp_path, capsys):
    argv = ["simulate", "--preset", "pendulum-undisturbed", "--out", str(tmp_path)]
    assert main(argv + flags) == 2
    assert f"config error: {where} must be" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path):
    config_path = tmp_path / "broken.json"
    config_path.write_text("{not json")
    assert main(["simulate", "--config", str(config_path)]) == 2


@pytest.mark.parametrize("content", [
    b'{"plant": "pendulum", "dt": ' + b"1" * 5000 + b"}",  # beyond int's digit limit
    b'{"plant": "\xff"}',  # not UTF-8
])
def test_unreadable_json_is_config_error(content, tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_bytes(content)
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_and_preset_are_mutually_exclusive(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text("{}")
    assert main(["simulate", "--config", str(config_path),
                 "--preset", "truck-braking"]) == 2


@pytest.mark.parametrize("name", sorted(PARAM_PRESETS))
def test_param_presets_build(name):
    cfg = parse_config(resolve_preset(name))
    scenarios = build_scenarios(cfg) if cfg.plant == "pendulum" else None
    # truck presets need a leader to build scenarios; parsing is enough here
    assert cfg.plant in ("pendulum", "truck")
    if scenarios:
        assert scenarios[0].plant == cfg.plant
