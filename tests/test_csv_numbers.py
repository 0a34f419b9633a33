"""write_csv_table's and write_margin_csv's numbers are b"%.9g" % x, cell for
cell: their vector formatter, and each slot of _csv_cells, against CPython's
per-cell formatting on each kind of cell that scripts/check_csv_numbers.py
samples, and on the preset logs.  The
sweep kernel's h* is the scalar solve's on the cells the script samples."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import sim
from safefilter.cli import build_scenarios, parse_config, resolve_preset
from safefilter.sim import _BLOCK_ROWS, _csv_cells, _csv_round, run_scenario

CHECK = Path(__file__).resolve().parent.parent / "scripts" / "check_csv_numbers.py"
SIMULATE_PRESETS = ("pendulum-undisturbed", "pendulum-pulse-cbf", "pendulum-pulse-issf-const",
                    "pendulum-pulse-issf-exp", "truck-braking", "truck-braking-disturbed",
                    "truck-cruise")


def _load_check():
    spec = importlib.util.spec_from_file_location("check_csv_numbers", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_check()


def _assert_per_cell(values, tmp_path, columns=8):
    bad = check.first_mismatch(np.asarray(values, dtype=np.float64), tmp_path / "cells.csv",
                               columns)
    assert bad is None, f"{bad.hex()}: per cell {b'%.9g' % bad!r}"


@pytest.mark.parametrize("columns", [1, 8, check.MAX_COLUMNS])
@pytest.mark.parametrize("seed, kind", enumerate(check.KINDS))
def test_each_kind_of_cell_matches_per_cell_formatting(seed, kind, columns, tmp_path):
    _assert_per_cell(check.KINDS[kind](np.random.default_rng(seed), 20_000), tmp_path, columns)


@pytest.mark.parametrize("columns", [1, 3, check.MAX_COLUMNS])
def test_special_values_match_per_cell_formatting(columns, tmp_path):
    _assert_per_cell(check.SPECIAL, tmp_path, columns)


@given(kind=st.sampled_from(sorted(check.KINDS)), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 40), cols=st.integers(1, 2 * check.MAX_COLUMNS),
       strided=st.booleans())
@settings(max_examples=100, deadline=None)
def test_each_csv_cells_slot_less_its_nuls_is_the_cells_text(kind, seed, rows, cols, strided):
    # a block of one kind with the special values first, or every other
    # column of a block twice as wide: the slots come in the block's shape
    rng = np.random.default_rng(seed)
    width = 2 * cols if strided else cols
    values = np.concatenate([check.SPECIAL, check.KINDS[kind](rng, rows * width)])
    x = values[:rows * width].reshape(rows, width)[:, ::2 if strided else 1]
    slots = _csv_cells(x)
    assert (slots.shape, slots.dtype) == (x.shape, np.dtype("V16"))
    for value, slot in zip(x.ravel().tolist(), slots.ravel().tolist()):
        assert slot.replace(b"\0", b"") == b"%.9g" % value, value.hex()


@pytest.mark.parametrize("seed, kind", enumerate(check.KINDS))
def test_each_kind_of_margin_matches_per_cell_formatting(seed, kind, tmp_path):
    # the same cells as the margins of write_margin_csv's rows
    rng = np.random.default_rng(seed)
    values = np.concatenate([check.SPECIAL, check.KINDS[kind](rng, 20_000)])
    row = check.first_margin_mismatch(values, rng, tmp_path / "grid.csv")
    assert row is None, f"{[x.hex() for x in row]}: per cell {b'%.9g,%.9g,%.9g,%.9g' % row!r}"


@pytest.mark.parametrize("seed", range(3))
def test_seeded_sweep_cells_match_the_scalar_solve(seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        alpha_c, delta, eps0, lam = check.sweep_block(rng, check.SWEEP_CHUNK)
        assert check.first_sweep_mismatch(alpha_c, delta, eps0, lam) is None, (alpha_c, delta)


def test_the_check_writes_tables_of_every_width():
    # each column count from 1 to MAX_COLUMNS once in every MAX_COLUMNS files
    counts, every = check.column_counts(np.random.default_rng(0)), check.MAX_COLUMNS
    for _ in range(2):
        assert sorted(itertools.islice(counts, every)) == list(range(1, every + 1))


def test_exact_ties_round_half_to_even(tmp_path):
    # N + 0.5 is a tie at nine digits: CPython rounds it to the even N
    _assert_per_cell([123456788.5, 123456789.5, -100000000.5, 999999999.5, 1234567.875,
                      0.0001234567885, 1.5e-99, 9.999999995e98], tmp_path)


def test_a_block_of_fallback_cells_only(tmp_path):
    # nan, inf, subnormal, below 1e-99 or above 1e98, and rounding ties: no
    # cell of the block is formatted by numpy
    rng = np.random.default_rng(7)
    n = _BLOCK_ROWS * 8
    values = np.concatenate([
        [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308],
        rng.uniform(1.0, 9.0, n // 4) * 10.0 ** rng.integers(100, 300, n // 4),
        -rng.uniform(1.0, 9.0, n // 4) * 10.0 ** rng.integers(-300, -100, n // 4),
        rng.integers(10**8, 10**9, n // 2) + 0.5])[:n]
    assert _csv_round(values)[2].all()
    _assert_per_cell(values, tmp_path)


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_exponent_table_costs_speed_not_exactness(shift, monkeypatch, tmp_path):
    # each cell's decimal exponent one off: its scaled value leaves [1e8, 1e9]
    # by a factor of ten, and the cell goes to CPython
    index = sim._CSV_E_INDEX.astype(int) + shift
    moved = sim._CSV_VECTOR & (index >= 0) & (index + 2 < sim._CSV_SCALE.size)
    monkeypatch.setattr(sim, "_CSV_E_INDEX",
                        np.where(moved, index, sim._CSV_E_INDEX).astype(np.uint16))
    values = check.log_uniform(np.random.default_rng(11), 20_000)
    assert np.count_nonzero(_csv_round(values)[2]) > 0.9 * values.size
    _assert_per_cell(values, tmp_path)


def test_the_seeded_sample_of_every_kind_matches(tmp_path):
    # the sample CI checks at 2,000,000 cells on every Python, through both writers
    assert check.main(["--cells", "50000", "--seed", "3"]) == 0


def test_few_preset_log_cells_go_to_cpython():
    cells = fallen = 0
    for name in SIMULATE_PRESETS:
        for scenario in build_scenarios(parse_config(resolve_preset(name))):
            r = run_scenario(scenario)
            x = r.log.ravel()
            cells += x.size
            fallen += np.count_nonzero(_csv_round(x)[2] & (x != 0))
    assert 0 < fallen < 0.001 * cells
