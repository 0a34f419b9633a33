"""The block and margin-grid CSV writers write the same bytes as the per-cell
reference loop."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from safefilter.cli import main
from safefilter.core import SimulationError
from safefilter.plants import (PendulumParams, TruckParams, pendulum_record, truck_headway,
                               truck_record)
from safefilter.sim import (_BLOCK_ROWS, _MARGIN_PIECE_CELLS, ScenarioResult, _csv_round,
                            write_csv_table, write_failed_log, write_margin_csv)
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


@pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_block_edges_match_per_cell_writer(rows, tmp_path):
    _assert_same_bytes(tmp_path, "a,b,c", _mixed_table(rows, 3, seed=rows))


def test_special_values_match_per_cell_writer(tmp_path):
    table = np.array(SPECIAL).reshape(-1, 3)
    _assert_same_bytes(tmp_path, "a,b,c", table)
    text = (tmp_path / "block.csv").read_text()
    for token in ("nan", "inf", "-inf", "-0", "4.94065646e-324", "1.79769313e+308"):
        assert token in text.replace("\n", ",").split(",")


def test_scenario_log_matches_per_cell_writer(tmp_path):
    rows = 2 * _BLOCK_ROWS + 7
    cols = _mixed_table(rows, 7, seed=1)
    cols[:len(SPECIAL), 3] = SPECIAL
    result = ScenarioResult(
        name="mixed", plant="truck", controller="cbf",
        state_labels=truck_record(TruckParams()).labels,
        log=np.column_stack([np.arange(rows) * 0.01, cols]), h_star=None, clamp_counts={},
    )
    result.to_csv(tmp_path / "block.csv")
    reference_result_csv(result, tmp_path / "cell.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


def test_a_nested_list_is_written_as_its_table(tmp_path):
    # a table of Python floats, as the CLI hands over its one-row h* table
    table = _mixed_table(3, 5, seed=2)
    table[:, 1] = SPECIAL[:3]
    write_csv_table(tmp_path / "list.csv", "a,b,c,d,e", table.tolist())
    reference_write_csv(tmp_path / "cell.csv", "a,b,c,d,e", table)
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


def test_a_strided_column_slice_is_written_as_its_table(tmp_path):
    # a non-contiguous 2-d view, every other column of a wider table, over
    # several blocks of rows
    table = _mixed_table(2 * _BLOCK_ROWS + 7, 9, seed=2)[:, 1:8:2]
    assert not table.flags.c_contiguous
    _assert_same_bytes(tmp_path, "a,b,c,d", table)


# the widest texts b"%.9g" gives, 16 bytes, both left to it by the vector path
WIDE_FALLBACK = [-1.7976931348623157e308, -2.2250738585072014e-308]


@pytest.mark.parametrize("cols", [1, 2, 5])
def test_sixteen_byte_fallback_texts_at_block_edges_match_per_cell_writer(cols, tmp_path):
    # 16-byte texts in the first and the last column (the one before "\n") on
    # the first and the last row of each block, and a partial last block
    rows = 2 * _BLOCK_ROWS + 7
    table = _mixed_table(rows, cols, seed=cols)
    edges = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, rows - 1]
    for k, row in enumerate(edges):
        table[row, 0] = WIDE_FALLBACK[k % 2]
        table[row, -1] = WIDE_FALLBACK[(k + 1) % 2]
    header = ",".join("abcde"[:cols])
    _assert_same_bytes(tmp_path, header, table)
    lines = (tmp_path / "block.csv").read_bytes().split(b"\n")
    assert all(len(lines[1 + row].split(b",")[-1]) == 16 for row in edges)


@pytest.mark.parametrize("rows", [1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 7])
def test_one_column_table_matches_per_cell_writer(rows, tmp_path):
    table = _mixed_table(rows, 1, seed=rows)
    table[::97, 0] = np.resize(SPECIAL + WIDE_FALLBACK, table[::97, 0].size)
    _assert_same_bytes(tmp_path, "x", table)


@pytest.mark.parametrize("plant, labels", [
    ("pendulum", pendulum_record(PendulumParams()).labels),
    ("truck", truck_record(TruckParams()).labels),
])
@pytest.mark.parametrize("t", [0.25, WIDE_FALLBACK[0]])
def test_failed_log_closing_row_matches_per_cell_writer(plant, labels, t, tmp_path):
    # the partial log, then (t, nan, ...) at the plant's width: the states,
    # u_nom, u_filt, d and h
    rows = _BLOCK_ROWS + 3
    cols = _mixed_table(rows, len(labels) + 4, seed=len(labels))
    partial = ScenarioResult(
        name="failed", plant=plant, controller="cbf", state_labels=labels,
        log=np.column_stack([np.arange(rows) * 0.01, cols]), h_star=None, clamp_counts={},
    )
    err = SimulationError("failed", t=t, state=cols[-1, :len(labels)])
    err.partial = partial
    write_failed_log(tmp_path / "block.csv", err)
    reference_result_csv(partial, tmp_path / "cell.csv")
    with open(tmp_path / "cell.csv", "a", newline="") as handle:
        handle.write(",".join(f"{c:.9g}" for c in [t] + [math.nan] * (len(labels) + 4)) + "\n")
    written = (tmp_path / "block.csv").read_bytes()
    assert written == (tmp_path / "cell.csv").read_bytes()
    assert written.endswith(b"%.9g" % t + b",nan" * (len(labels) + 4) + b"\n")


def _to_csv_peak(tmp_path, rows) -> int:
    """Traced peak bytes of writing a mixed log of ``rows`` rows."""
    cols = _mixed_table(rows, 7, seed=3)
    result = ScenarioResult(
        name="long", plant="truck", controller="cbf",
        state_labels=truck_record(TruckParams()).labels,
        log=np.column_stack([np.arange(rows) * 0.01, cols]), h_star=None, clamp_counts={},
    )
    tracemalloc.start()
    try:
        result.to_csv(tmp_path / "long.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scenario_log_is_stacked_a_block_at_a_time(tmp_path):
    # the writer's peak is one block's (about 0.57 MB of the block's floats,
    # slot words, the file's canvas and text, formatted straight from the
    # log's rows) however long the log: a copy of the whole 12-block log
    # would add 640 KB
    short = _to_csv_peak(tmp_path, 2 * _BLOCK_ROWS)
    long = _to_csv_peak(tmp_path, 12 * _BLOCK_ROWS)
    assert long < short + _BLOCK_ROWS * 8 * 8


# SHA-256 of the truck margin CSV of paper-table-2 on the benchmark's 500 x 500
# grid; tests/golden/outputs.sha256 pins the preset's 200 x 200 one
MARGIN_CSV_SHA256 = "7189180a8173bb81830ae5551610076082f95d53a3ff707fda004635aa6fa9d1"


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


@pytest.mark.parametrize("columns", [_MARGIN_PIECE_CELLS, _MARGIN_PIECE_CELLS + 1,
                                     2 * _MARGIN_PIECE_CELLS, 2 * _MARGIN_PIECE_CELLS + 1,
                                     20_000, _SCAN_CELLS + 1])
def test_wide_margin_grid_matches_rows_built_cell_by_cell(columns, tmp_path):
    # grid rows of one whole tile, of a tile and one column, of two whole
    # tiles, of two and one column, of several and a partial last, and
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
    ((9, 500), 3),                           # tiles of whole rows, cut by blocks
    ((9, 500), 5),
    ((3, _MARGIN_PIECE_CELLS + 5), 2),     # a row in two tiles
    ((_MARGIN_PIECE_CELLS + 1, 2), 2000),  # tiles of many two-column rows
])
@pytest.mark.parametrize("narrow", [False, True])
def test_margin_writer_writes_fallback_cells_at_tile_edges(grid, block_rows, narrow, tmp_path):
    # synthetic axes and blocks: fallback cells at every grid row's first and
    # last cell and either side of a column tile's edge, so each tile starts
    # and ends with one; -0 and mixed magnitudes elsewhere
    nx, ny = grid
    d_axis, vl_axis, v_axis = (_axis(n, seed, narrow) for n, seed in ((nx, 1), (ny, 2), (ny, 3)))
    margin = _mixed_table(nx, ny, seed=4)
    margin[:, 1] = -0.0
    edges = [0, ny - 1] + [j for j in (_MARGIN_PIECE_CELLS - 1, _MARGIN_PIECE_CELLS)
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
    assert hashlib.sha256(written).hexdigest() == MARGIN_CSV_SHA256


def _per_cell_bytes(d_axis, vl_axis, v_axis, margin) -> bytes:
    """The margin CSV with each row formatted on its own, b"%.9g,%.9g,%.9g,%.9g\\n"."""
    return b"D,v_L,v,margin\n" + b"".join(
        b"%.9g,%.9g,%.9g,%.9g\n" % (d, vl, v, m)
        for d, margins in zip(d_axis.tolist(), margin.tolist())
        for vl, v, m in zip(vl_axis.tolist(), v_axis.tolist(), margins))


def _tile_edges(nx, ny, block_rows):
    """The (row, column) of the first and last cell of each tile the margin
    writer formats and lays out, row-major: whole grid rows of at most
    _MARGIN_PIECE_CELLS cells within each block of ``block_rows`` rows, or
    that many columns of one row."""
    rows, cols = max(1, _MARGIN_PIECE_CELLS // ny), _MARGIN_PIECE_CELLS
    edges = set()
    for i in range(0, nx, block_rows):
        end = min(i + block_rows, nx)
        for r in range(i, end, rows):
            last = min(r + rows, end) - 1
            for j in range(0, ny, cols):
                edges |= {(r, j), (last, min(j + cols, ny) - 1)}
    return sorted(edges)


# margins for tile edges: an exact rounding tie and one that carries into the
# next exponent, both zeros, a subnormal, the largest float, the two 16-byte
# texts of a negative nine-digit value with a three-digit exponent, nan and -inf
EDGE_MARGINS = [123456789.5, 999999999.5, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                -1.23456789e+100, -1.23456789e-100, math.nan, -math.inf]
# margins the vector path leaves to b"%.9g" % x: exact rounding ties, one that
# carries into the next exponent, subnormals and 1e+-300
CHUNK_EDGE_MARGINS = [123456788.5, -123456789.5, 999999999.5, 5e-324, -2.5e-310, 1e300,
                      -1e300, 1e-300, -1e-300]
# each kind of edge margins with the seed of its synthetic axes and margins
EDGE_KINDS = pytest.mark.parametrize("margins, seed", [
    pytest.param(EDGE_MARGINS, 5, id="EDGE_MARGINS"),
    pytest.param(CHUNK_EDGE_MARGINS, 9, id="CHUNK_EDGE_MARGINS"),
])


def test_chunk_edge_margins_all_go_to_the_fallback():
    assert _csv_round(np.array(CHUNK_EDGE_MARGINS))[2].all()


def _assert_tile_edges_match_per_cell_rows(grid, block_rows, margins, seed, tmp_path):
    # synthetic axes whose leads change width from block to block, and the
    # edge margins in turn at the first and last cell of every tile, so a
    # tile starts and ends with a cell that b"%.9g" formats, a zero or a
    # 16-byte text
    nx, ny = grid
    d_axis, vl_axis, v_axis = (_axis(n, seed + k, False) for k, n in enumerate((nx, ny, ny)))
    margin = _mixed_table(nx, ny, seed=seed + 3)
    for k, cell in enumerate(_tile_edges(nx, ny, block_rows)):
        margin[cell] = margins[k % len(margins)]
    blocks = ((i, margin[i:i + block_rows]) for i in range(0, nx, block_rows))
    write_margin_csv(tmp_path / "grid.csv", d_axis, vl_axis, v_axis, blocks)
    assert (tmp_path / "grid.csv").read_bytes() == _per_cell_bytes(d_axis, vl_axis, v_axis,
                                                                   margin)


@pytest.mark.parametrize("grid, block_rows", [
    ((9, 500), 3),                                 # a tile a block
    ((2, _MARGIN_PIECE_CELLS), 1),               # one whole tile a row
    ((3, 2 * _MARGIN_PIECE_CELLS + 5), 2),       # a row in three tiles, the last partial
    ((5, 3 * _MARGIN_PIECE_CELLS - 1), 5),
    ((_MARGIN_PIECE_CELLS + 1, 2), 1000),        # tiles of many two-column rows
])
@EDGE_KINDS
def test_margin_writer_formats_fallback_cells_at_each_tile_edge(grid, block_rows, margins, seed,
                                                                tmp_path):
    _assert_tile_edges_match_per_cell_rows(grid, block_rows, margins, seed, tmp_path)


@pytest.mark.parametrize("d_range", [(-3e4, 5e4), (5e4, -3e4), (1e-7, 10.0)])
def test_margin_csv_meets_a_lead_width_change_between_scan_blocks(d_range, tmp_path):
    # a truck scan of three blocks whose "D," leads are not all of one width:
    # negative D in some blocks only, or the leading zeros of D < 0.1 in the first
    p, grid = TruckParams(), (700, 120)
    rows = _SCAN_CELLS // grid[1]
    d_axis = np.linspace(*d_range, grid[0])
    widths = {max(len(b"%.9g," % d) for d in d_axis[i:i + rows].tolist())
              for i in range(0, grid[0], rows)}
    assert len(widths) > 1 and -(-grid[0] // rows) == 3
    write_margin_csv(tmp_path / "grid.csv", *truck_margin_table(p, d_range=d_range, grid=grid))
    want = _per_cell_bytes(*margin_grid(truck_margin_table(p, d_range=d_range, grid=grid)))
    assert (tmp_path / "grid.csv").read_bytes() == want


@pytest.mark.parametrize("ny", [_MARGIN_PIECE_CELLS - 1, _MARGIN_PIECE_CELLS,
                                _MARGIN_PIECE_CELLS + 1, 2 * _MARGIN_PIECE_CELLS - 1,
                                2 * _MARGIN_PIECE_CELLS, 2 * _MARGIN_PIECE_CELLS + 1,
                                3 * _MARGIN_PIECE_CELLS + 1])
@EDGE_KINDS
def test_margin_rows_either_side_of_tile_widths_match_per_cell_rows(ny, margins, seed, tmp_path):
    # rows a column short of one tile, of one tile, of a tile and a column,
    # a column short of two tiles, of two, of two and a column, and of three
    # and a column
    _assert_tile_edges_match_per_cell_rows((3, ny), 2, margins, seed, tmp_path)


@pytest.mark.parametrize("grid", [
    (9, 500),     # one partial tile of 9 rows
    (70, 500),    # tiles of 12 rows, the last of a block 5, and a block of 5
    (131, 500),   # scan blocks of 65, 65 and 1 rows
    (70, 2500),   # tiles of two rows, the last of a block one row
    (140, 61),    # tiles of 100 rows, cut to the blocks' 65, 65 and 10
])
@EDGE_KINDS
def test_margin_rows_across_65_row_scan_blocks_match_per_cell_rows(grid, margins, seed,
                                                                   tmp_path):
    # 65 rows is the scan's block on the 500-wide grid of the design workload
    _assert_tile_edges_match_per_cell_rows(grid, 65, margins, seed, tmp_path)
