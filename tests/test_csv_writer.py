"""The block and margin-grid CSV writers write the same bytes as the per-cell
reference loop."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from safefilter.cli import _MARGIN_BLOCK_COLUMNS, main, write_margin_csv
from safefilter.plants import TruckParams, truck_headway, truck_record
from safefilter.sim import _CSV_BLOCK_ROWS, ScenarioResult, write_csv_table
from safefilter.verification import _SCAN_CELLS, certify_truck_grid, truck_margin_table

from helpers import margin_grid, reference_result_csv, reference_write_csv

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


def test_columns_are_written_as_their_stacked_table(tmp_path):
    # 1-d columns and 2-d blocks of columns side by side, stacked a block of
    # rows at a time
    table = _mixed_table(2 * _CSV_BLOCK_ROWS + 7, 6, seed=2)
    write_csv_table(tmp_path / "columns.csv", "a,b,c,d,e,f", table[:, 0], table[:, 1:4],
                    table[:, 4], table[:, 5:])
    reference_write_csv(tmp_path / "cell.csv", "a,b,c,d,e,f", table)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


def _to_csv_peak(tmp_path, rows) -> int:
    """Traced peak bytes of writing a mixed log of ``rows`` rows."""
    cols = _mixed_table(rows, 7, seed=3)
    result = ScenarioResult(
        name="long", plant="truck", controller="cbf",
        state_labels=truck_record(TruckParams()).labels, time=np.arange(rows) * 0.01,
        states=cols[:, :3], u_nom=cols[:, 3], u_filt=cols[:, 4], d=cols[:, 5],
        h=cols[:, 6], h_min=0.0, h_star=None, clamp_counts={},
    )
    tracemalloc.start()
    try:
        result.to_csv(tmp_path / "long.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scenario_log_is_stacked_a_block_at_a_time(tmp_path):
    # the writer's peak is one block's (about 0.5 MB of stacked rows, floats
    # and text) however long the log: a stacked copy of the whole 12-block log
    # would add 640 KB
    short = _to_csv_peak(tmp_path, 2 * _CSV_BLOCK_ROWS)
    long = _to_csv_peak(tmp_path, 12 * _CSV_BLOCK_ROWS)
    assert long < short + _CSV_BLOCK_ROWS * 8 * 8


# SHA-256 of the truck margin CSV of paper-table-2 on the preset's 200 x 200
# grid and on the benchmark's 500 x 500 grid
MARGIN_CSV_SHA256 = {
    200: "0363c013d7139268f20e15b873d191e4e597eb1395bee4dc820375de7759d786",
    500: "7189180a8173bb81830ae5551610076082f95d53a3ff707fda004635aa6fa9d1",
}


def _margin_rows_cell_by_cell(p, d_range, vl_range, grid):
    """The margin CSV rows (D, v_L, v, margin) in row-major order, each cell on
    floats from the scan's formula, with the parameter set's alpha_c and a_L
    bounds."""
    a_lo, a_hi = -p.a_under_l, p.a_bar_l
    for d in np.linspace(*d_range, grid[0]).tolist():
        for vl in np.linspace(*vl_range, grid[1]).tolist():
            v = -(p.c1 + p.c4 * vl) / (2.0 * p.c3)
            base = vl - v + p.alpha_c * (d - truck_headway(p, v, vl))
            slope = -(p.c2 + p.c4 * v + 2.0 * p.c5 * vl)
            yield d, vl, v, min(base + slope * a_lo, base + slope * a_hi)


@pytest.mark.parametrize("d_range, vl_range, grid", [
    ((0.0, 100.0), (0.0, 20.0), (2, 3)),       # non-square grids
    ((0.0, 100.0), (0.0, 20.0), (7, 3)),
    ((0.0, 100.0), (0.0, 20.0), (3, 500)),
    ((100.0, 0.0), (0.0, 20.0), (4, 3)),       # a reversed range
    ((50.0, 50.0), (10.0, 10.0), (3, 4)),      # every cell ties
    ((1e-7, -0.0), (0.0, 1e-7), (3, 3)),       # exponent forms and -0
])
def test_margin_grid_matches_rows_built_cell_by_cell(d_range, vl_range, grid, tmp_path):
    p = TruckParams()
    d_axis, vl_axis, v_axis, margin = margin_grid(truck_margin_table(
        p, d_range=d_range, vl_range=vl_range, grid=grid))
    assert (d_axis.shape, vl_axis.shape, v_axis.shape, margin.shape) == (
        (grid[0],), (grid[1],), (grid[1],), grid)
    write_margin_csv(tmp_path / "grid.csv",
                     *truck_margin_table(p, d_range=d_range, vl_range=vl_range, grid=grid))
    rows = list(_margin_rows_cell_by_cell(p, d_range, vl_range, grid))
    reference_write_csv(tmp_path / "cell.csv", "D,v_L,v,margin", rows)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()
    # the report's witness is the first minimum in the CSV's row order
    report = certify_truck_grid(p, d_range=d_range, vl_range=vl_range, grid=grid)
    d_w, vl_w, v_w, min_margin = min(rows, key=lambda row: row[3])
    assert (report.witness["D"], report.witness["v_L"], report.witness["v"],
            report.min_margin) == (d_w, vl_w, v_w, min_margin)
    if d_range == (1e-7, -0.0):
        cells = (tmp_path / "grid.csv").read_text().replace("\n", ",").split(",")
        assert {"-0", "1e-07", "5e-08"} <= set(cells)


@pytest.mark.parametrize("columns", [_MARGIN_BLOCK_COLUMNS, _MARGIN_BLOCK_COLUMNS + 1,
                                     2 * _MARGIN_BLOCK_COLUMNS, 2 * _MARGIN_BLOCK_COLUMNS + 1,
                                     20_000, _SCAN_CELLS + 1])
def test_wide_margin_grid_matches_rows_built_cell_by_cell(columns, tmp_path):
    # grid rows of one whole piece, of a piece and one column, of two whole
    # pieces, of two and one column, of several and a partial last, and
    # scanned in two column chunks
    p = TruckParams()
    grid = (2, columns)
    write_margin_csv(tmp_path / "grid.csv", *truck_margin_table(p, grid=grid))
    rows = list(_margin_rows_cell_by_cell(p, (0.0, 100.0), (0.0, 20.0), grid))
    reference_write_csv(tmp_path / "cell.csv", "D,v_L,v,margin", rows)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


# cells the margin writer's vector path leaves to b"%.9g" % x
FALLBACK = [123456789.5, 5e-324, math.nan, math.inf, -math.inf]
# the widest "%.9g," texts: 16 bytes with a two-digit exponent, 17 with three
WIDEST = [-1.23456789e-99, -1.23456789e-100]


def _axis(n, seed, narrow):
    """Axis values of mixed exponent forms and signs, the widest forms first,
    or small integers, whose texts make short leads and tails."""
    if narrow:
        return np.arange(n, dtype=float) % 10
    axis = _mixed_table(1, n, seed).ravel() * 10.0 ** np.random.default_rng(seed).integers(
        -100, 100, n)
    axis[:2] = WIDEST
    return axis


@pytest.mark.parametrize("grid, block_rows", [
    ((9, 500), 3),                           # pieces of whole rows, cut by blocks
    ((9, 500), 5),
    ((3, _MARGIN_BLOCK_COLUMNS + 5), 2),     # a row in two pieces
    ((_MARGIN_BLOCK_COLUMNS + 1, 2), 2000),  # pieces of many two-column rows
])
@pytest.mark.parametrize("narrow", [False, True])
def test_margin_writer_splices_fallback_cells_at_piece_edges(grid, block_rows, narrow, tmp_path):
    # synthetic axes and blocks: fallback cells at every grid row's first and
    # last cell and either side of a column piece's edge, so each piece starts
    # and ends with one; -0 and mixed magnitudes elsewhere
    nx, ny = grid
    d_axis, vl_axis, v_axis = (_axis(n, seed, narrow) for n, seed in ((nx, 1), (ny, 2), (ny, 3)))
    margin = _mixed_table(nx, ny, seed=4)
    margin[:, 1] = -0.0
    edges = [0, ny - 1] + [j for j in (_MARGIN_BLOCK_COLUMNS - 1, _MARGIN_BLOCK_COLUMNS)
                           if j < ny]
    for k, j in enumerate(edges):
        margin[:, j] = np.roll(FALLBACK, k)[np.arange(nx) % len(FALLBACK)]
    blocks = ((i, margin[i:i + block_rows]) for i in range(0, nx, block_rows))
    write_margin_csv(tmp_path / "grid.csv", d_axis, vl_axis, v_axis, blocks)
    rows = ((d, vl, v, m) for d, margins in zip(d_axis.tolist(), margin.tolist())
            for vl, v, m in zip(vl_axis.tolist(), v_axis.tolist(), margins))
    reference_write_csv(tmp_path / "cell.csv", "D,v_L,v,margin", rows)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()
    if not narrow:
        lines = (tmp_path / "grid.csv").read_bytes().split(b"\n")
        assert lines[1].startswith(b"-1.23456789e-99,-1.23456789e-99,-1.23456789e-99,")
        assert lines[2].startswith(b"-1.23456789e-99,-1.23456789e-100,-1.23456789e-100,")


def test_certify_margin_grid_matches_per_cell_writer(tmp_path):
    doc = {"name": "big", "plant": "truck", "params": {"preset": "paper-table-2"},
           "certify": {"grid": [500, 500]}}
    config_path = tmp_path / "big.json"
    config_path.write_text(json.dumps(doc))
    assert main(["certify", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    d_axis, vl_axis, v_axis, margin = margin_grid(truck_margin_table(TruckParams(),
                                                                     grid=(500, 500)))
    rows = ((d, vl, v, m) for d, margins in zip(d_axis.tolist(), margin.tolist())
            for vl, v, m in zip(vl_axis.tolist(), v_axis.tolist(), margins))
    reference_write_csv(tmp_path / "cell.csv", "D,v_L,v,margin", rows)
    written = (tmp_path / "big_margins.csv").read_bytes()
    assert written.count(b"\n") == 500 * 500 + 1
    assert written == (tmp_path / "cell.csv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == MARGIN_CSV_SHA256[500]


def test_paper_table_2_margin_csv_golden(tmp_path):
    assert main(["certify", "--preset", "paper-table-2", "--out", str(tmp_path)]) == 0
    written = (tmp_path / "paper-table-2_margins.csv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == MARGIN_CSV_SHA256[200]
