#!/usr/bin/env python3
"""Check the CSV writers' numbers against CPython's per-cell formatting, and the sweep's h*.

    PYTHONPATH=src python scripts/check_csv_numbers.py --cells 2000000 --seed 1

writes ``--cells`` seeded float64 cells through ``safefilter.sim.write_csv_table``
and compares each with ``b"%.9g" % x``.  Each file of ``CHUNK`` cells is a
table of 1 to ``MAX_COLUMNS`` columns, every count once in each run of
``MAX_COLUMNS`` files, in seeded order, so one-column tables and cells in the
last column, before the newline, are checked too.  The cells are an equal share of each
kind in ``KINDS`` (random bit patterns, random ones of the magnitudes the
vector path formats, log-uniform magnitudes of both signs, rounding ties and
their neighbours, powers of ten and the 1e9 rounding boundary, each a few ulps
either side) and the special values.  The same cells are then the margin
column of ``safefilter.sim.write_margin_csv``'s rows, on grids of seeded axes
of both signs and every exponent form, each row compared with
``b"%.9g,%.9g,%.9g,%.9g\n"``.  On the first mismatch it prints the cells'
``float.hex()`` and exits 1; it exits 0 when every cell matches.  Needs numpy
and the standard library only.

A tenth as many seeded (eps0, lambda) cells then go through
``safefilter.issf.solve_h_star_cells``, the sweep table's kernel, in blocks of
``SWEEP_CHUNK`` that share a seeded alpha_c and delta, and each is compared
with ``solve_h_star(alpha, EpsilonFunction(eps0, lambda), delta)``, bits and
rejections alike; the first mismatch is printed in ``float.hex()`` and exits
1.  The kernel's exactness rests on calling this Python's
``math`` functions per element, so the check runs on each Python and libm.
The cells mix log-uniform magnitudes from subnormal to the float maximum,
values that EpsilonFunction rejects, and lambda near e / c, where z = lambda c
crosses e.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from safefilter.core import linear_class_kappa
from safefilter.issf import EpsilonFunction, solve_h_star, solve_h_star_cells
from safefilter.sim import _MARGIN_PIECE_CELLS, write_csv_table, write_margin_csv

MAX_COLUMNS = 12
# Cells per file written: bounds the memory of a long check.
CHUNK = 1 << 16
# Sweep cells per kernel call, each block with its own alpha_c and delta.
SWEEP_CHUNK = 4096

SPECIAL = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def random_bits(rng, n):
    """Every float64 bit pattern alike: mostly huge or tiny, some nan and inf."""
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def vector_bits(rng, n):
    """Random mantissas and signs, binary exponents from 2**-340 to 2**340."""
    exponent = rng.integers(1023 - 340, 1023 + 341, n).astype(np.uint64)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64)
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)


def log_uniform(rng, n):
    return _signs(rng, n) * 10.0 ** rng.uniform(-110.0, 110.0, n)


def _ulps_around(values, steps):
    """``values`` and their neighbours up to ``steps`` ulps either side."""
    out = [values]
    up = down = values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def ties(rng, n):
    """Decimals of ten significant digits that end in 5, the nearest doubles to
    a rounding tie of %.9g, with their 1-ulp neighbours; a quarter are exact
    ties, N + 0.5 and (N + 0.5) / 4 for nine-digit N."""
    k = n // 4
    digits = rng.integers(10**8, 10**9, k) * 10 + 5
    exponents = rng.integers(-120, 100, k)
    decimals = np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())])
    exact = rng.integers(10**8, 10**9, n - 3 * k) + 0.5
    exact[::2] /= 4.0
    return _signs(rng, n) * np.concatenate([_ulps_around(decimals, 1), exact])


def boundaries(rng, n):
    """10**k and 999999999.5 * 10**k, the last value that rounds down to nine
    nines, each with its neighbours up to 3 ulps either side."""
    k = rng.integers(-110, 110, n // 14 + 1)
    powers = [float(f"1e{e}") for e in k.tolist()]
    powers += [float(f"9999999995e{e - 1}") for e in k.tolist()]
    return _signs(rng, 7 * len(powers)) * _ulps_around(np.array(powers), 3)


KINDS = {"random bits": random_bits, "vector bits": vector_bits,
         "log-uniform": log_uniform, "ties": ties, "boundaries": boundaries}


def cells(n: int, seed: int) -> np.ndarray:
    """``n`` cells: the special values, then an equal share of each kind."""
    rng = np.random.default_rng(seed)
    share = max(n - len(SPECIAL), 0) // len(KINDS) + 1
    values = np.concatenate([SPECIAL] + [kind(rng, share)[:share] for kind in KINDS.values()])
    return values[:n]


def column_counts(rng):
    """Column counts of the files, without end: each count from 1 to
    ``MAX_COLUMNS`` once in every ``MAX_COLUMNS`` files, in seeded order."""
    while True:
        yield from (rng.permutation(MAX_COLUMNS) + 1).tolist()


def first_mismatch(values: np.ndarray, path: Path, columns: int):
    """The first of ``values`` whose text differs from ``b"%.9g" % x`` in the
    file write_csv_table writes of them, ``columns`` to a row (the last row
    padded with zeros), or None."""
    table = np.zeros(-(-values.size // columns) * columns)
    table[:values.size] = values
    table = table.reshape(-1, columns)
    write_csv_table(path, "x", table)
    lines = path.read_bytes().split(b"\n")
    if lines[0] != b"x" or len(lines) != len(table) + 2 or lines[-1] != b"":
        return table[0, 0]
    for row, line in zip(table.tolist(), lines[1:-1]):
        expected = [b"%.9g" % x for x in row]
        texts = line.split(b",")
        if texts != expected:
            return next((x for x, text, want in zip(row, texts, expected) if text != want),
                        row[0])
    return None


def axis(rng, n):
    """Grid axis values: log-uniform magnitudes or uniform in [-100, 100],
    half each, so both signs and the fixed and exponent forms mix."""
    return np.where(rng.random(n) < 0.5, log_uniform(rng, n), rng.uniform(-100.0, 100.0, n))


def first_margin_mismatch(values: np.ndarray, rng, path: Path):
    """The first row (D, v_L, v, margin) whose text differs from
    ``b"%.9g,%.9g,%.9g,%.9g"`` in the file write_margin_csv writes with
    ``values`` as the margins, row-major, of a grid of seeded axes (the last
    grid row padded with zeros), or None.  The grid's column count, up to
    three of the writer's tiles wide, and the scan block's rows, at most half
    the grid's, are seeded too: rows of several tiles, tiles of several rows,
    and blocks whose leads may differ in width."""
    ny = int(rng.integers(2, 3 * _MARGIN_PIECE_CELLS + 1))
    nx = -(-values.size // ny)
    margin = np.zeros(nx * ny)
    margin[:values.size] = values
    margin = margin.reshape(nx, ny)
    d_axis, vl_axis, v_axis = axis(rng, nx), axis(rng, ny), axis(rng, ny)
    rows = int(rng.integers(1, max(1, nx // 2) + 1))
    write_margin_csv(path, d_axis, vl_axis, v_axis,
                     ((i, margin[i:i + rows]) for i in range(0, nx, rows)))
    lines = path.read_bytes().split(b"\n")
    if lines[0] != b"D,v_L,v,margin" or len(lines) != margin.size + 2 or lines[-1] != b"":
        return d_axis[0], vl_axis[0], v_axis[0], margin[0, 0]
    texts = iter(lines[1:-1])
    for d, margins in zip(d_axis.tolist(), margin.tolist()):
        for row in zip(vl_axis.tolist(), v_axis.tolist(), margins):
            if next(texts) != b"%.9g,%.9g,%.9g,%.9g" % (d, *row):
                return (d, *row)
    return None


SWEEP_SPECIAL = [0.0, -0.0, 5e-324, 1e-323, float("inf"), float("-inf"), float("nan"), -1.0,
                 1e-300, 1e300, 1.7976931348623157e308]


def sweep_block(rng, n):
    """(alpha_c, delta, eps0, lam) of ``n`` seeded sweep cells: magnitudes
    10**U(-324, 308.25), a tenth of each axis special values, and a quarter
    of the lambdas e / c within a few ulps, with c = eps0 delta^2 / 4 / alpha_c."""
    alpha_c = float(10.0 ** rng.uniform(-5.0, 5.0))
    delta = float(rng.choice([0.0, 5e-324, 1.0, 1e150, float("inf")])) if rng.random() < 0.2 \
        else float(10.0 ** rng.uniform(-160.0, 160.0))
    eps0, lam = (10.0 ** rng.uniform(-324.0, 308.25, n) for _ in range(2))
    for axis in (eps0, lam):
        special = rng.random(n) < 0.1
        axis[special] = rng.choice(SWEEP_SPECIAL, int(special.sum()))
    near = rng.random(n) < 0.25
    with np.errstate(all="ignore"):
        c = eps0[near] * delta * delta / 4.0 / alpha_c
        lam[near] = np.e / c * (1.0 + rng.integers(-4, 5, int(near.sum())) * 2.0**-52)
    return alpha_c, delta, eps0, lam


def first_sweep_mismatch(alpha_c, delta, eps0, lam):
    """The first cell (eps0, lam) whose h* from solve_h_star_cells differs from
    the scalar solve_h_star's in its bits, or is rejected where the scalar
    path does not raise or the other way round, or None."""
    alpha = linear_class_kappa(alpha_c)
    h, rejected = solve_h_star_cells(alpha, eps0, lam, delta)
    for e, l, value, reject in zip(eps0.tolist(), lam.tolist(), h.tolist(), rejected.tolist()):
        try:
            want = solve_h_star(alpha, EpsilonFunction(e, l), delta)
        except ValueError:
            want = None
        if (want is None) != reject or not (reject or np.float64(want).tobytes()
                                            == np.float64(value).tobytes()):
            return e, l
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    values = cells(args.cells, args.seed)
    grids = np.random.default_rng([args.seed, 1])
    widths = column_counts(np.random.default_rng([args.seed, 2]))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "cells.csv"
        for start, columns in zip(range(0, values.size, CHUNK), widths):
            bad = first_mismatch(values[start:start + CHUNK], path, columns)
            if bad is not None:
                print(f"mismatch in a {columns}-column table: {bad.hex()} is "
                      f"{b'%.9g' % bad!r} per cell")
                return 1
            row = first_margin_mismatch(values[start:start + CHUNK], grids, path)
            if row is not None:
                print(f"margin CSV mismatch: row {[x.hex() for x in row]} is "
                      f"{b'%.9g,%.9g,%.9g,%.9g' % row!r} per cell")
                return 1
    print(f"{values.size} cells match b'%.9g' % x in both writers")
    rng, sweep_cells = np.random.default_rng([args.seed, 3]), args.cells // 10
    for start in range(0, sweep_cells, SWEEP_CHUNK):
        alpha_c, delta, eps0, lam = sweep_block(rng, min(SWEEP_CHUNK, sweep_cells - start))
        cell = first_sweep_mismatch(alpha_c, delta, eps0, lam)
        if cell is not None:
            print(f"sweep mismatch: eps0 {cell[0].hex()}, lambda {cell[1].hex()}, "
                  f"delta {delta.hex()}, alpha_c {alpha_c.hex()}")
            return 1
    print(f"{sweep_cells} sweep cells match solve_h_star bit for bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
