"""The block CSV writer writes the same bytes as the per-cell reference loop."""

import json
import math

import numpy as np
import pytest

from safefilter.cli import main
from safefilter.plants import TruckParams, truck_record
from safefilter.sim import _CSV_BLOCK_ROWS, ScenarioResult, write_csv_table
from safefilter.verification import truck_margin_table

from helpers import reference_result_csv, reference_write_csv

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 1e-9, 123456789.5, 0.1, 1.0 / 3.0]


def _mixed_table(rows, cols, seed=0):
    """Values across many magnitudes and both signs."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 12, (rows, cols))


def _assert_same_bytes(tmp_path, header, table):
    write_csv_table(tmp_path / "block.csv", header, table)
    reference_write_csv(tmp_path / "cell.csv", header, table)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                  _CSV_BLOCK_ROWS + 1])
def test_block_edges_match_per_cell_writer(rows, tmp_path):
    _assert_same_bytes(tmp_path, "a,b,c", _mixed_table(rows, 3, seed=rows))


def test_special_values_match_per_cell_writer(tmp_path):
    table = np.array(SPECIAL).reshape(-1, 3)
    _assert_same_bytes(tmp_path, "a,b,c", table)
    text = (tmp_path / "block.csv").read_text()
    for token in ("nan", "inf", "-inf", "-0", "4.94065646e-324", "1.79769313e+308"):
        assert token in text.replace("\n", ",").split(",")


def test_scenario_log_matches_per_cell_writer(tmp_path):
    rows = 2 * _CSV_BLOCK_ROWS + 7
    cols = _mixed_table(rows, 7, seed=1)
    cols[:len(SPECIAL), 3] = SPECIAL
    result = ScenarioResult(
        name="mixed", plant="truck", controller="cbf",
        state_labels=truck_record(TruckParams()).labels, time=np.arange(rows) * 0.01,
        states=cols[:, :3], u_nom=cols[:, 3], u_filt=cols[:, 4], d=cols[:, 5],
        h=cols[:, 6], h_min=0.0, h_star=None, clamp_counts={},
    )
    result.to_csv(tmp_path / "block.csv")
    reference_result_csv(result, tmp_path / "cell.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


def test_certify_margin_grid_matches_per_cell_writer(tmp_path):
    doc = {"name": "big", "plant": "truck", "params": {"preset": "paper-table-2"},
           "certify": {"grid": [500, 500]}}
    config_path = tmp_path / "big.json"
    config_path.write_text(json.dumps(doc))
    assert main(["certify", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    table = truck_margin_table(TruckParams(), grid=(500, 500))
    reference_write_csv(tmp_path / "cell.csv", "D,v_L,v,margin", table)
    written = (tmp_path / "big_margins.csv").read_bytes()
    assert written.count(b"\n") == 500 * 500 + 1
    assert written == (tmp_path / "cell.csv").read_bytes()
