"""The generated loop under mpmath: one source text, run at 40 digits.

``plants._loop_source`` is generic over the number type.  Executed unchanged
with mpmath's sin, exp, inf and isfinite, and with the record's constants,
the row times and the stage samples as mpf, it runs a preset's rows with
every operation carried to 40 significant digits.  The float run must agree
with it up to float rounding: the same rows, clamp events and error, and h
within a bound derived from the unit roundoff.  mpmath computes sin and exp
itself, so this check does not go through libm; it complements the byte
goldens, which pin libm's results on the platform that wrote them.
"""

import ast
import dataclasses

import numpy as np
import pytest

from safefilter import plants, run_scenario, sim
from safefilter.cli import build_scenarios, parse_config, resolve_preset

mpmath = pytest.importorskip("mpmath")

ROWS = 800
DIGITS = 40
# the record's bindings from the math module, by the names it binds them to
_FROM_MPMATH = {"sin": mpmath.sin, "exp": mpmath.exp, "inf": mpmath.inf,
                "isfinite": mpmath.isfinite}


def _scenarios():
    for preset in ("pendulum-pulse-cbf", "pendulum-pulse-issf-exp", "truck-braking-disturbed"):
        for scn in build_scenarios(parse_config(resolve_preset(preset))):
            yield pytest.param(scn, id=f"{preset}-{scn.controller}")


def _mpf_columns(samples):
    return [list(map(mpmath.mpf, column)) for column in samples.T]


def _mp_run(scn):
    """The scenario's first ROWS rows through the source of its record's
    ``run``, executed with every float binding as an mpf: (rows, log
    columns, clamp counts, error, source)."""
    pendulum = scn.plant == "pendulum"
    record = (plants.pendulum_record if pendulum else plants.truck_record)(
        scn.pendulum if pendulum else scn.truck, scn.controller, scn.epsilon)
    # the record's globals are the bindings pendulum_record or truck_record
    # built, in the order run unpacks them from ``bound``
    built = record.run.__globals__
    names = tuple(built)[:tuple(built).index("bound")]
    bindings = {name: _FROM_MPMATH.get(name, built[name]) for name in names}
    bindings = {name: mpmath.mpf(value) if isinstance(value, float) else value
                for name, value in bindings.items()}
    assert not [name for name, value in bindings.items()
                if getattr(value, "__module__", None) == "math"]
    namespace = dict(bindings, bound=tuple(bindings.values()))
    table = plants._PENDULUM_SOURCE if pendulum else plants._TRUCK_SOURCE
    source = plants._loop_source(table, scn.controller, names)
    exec(source, namespace)

    time = np.arange(ROWS) * scn.dt
    a, d = sim._stage_samples(scn, time, True)
    a_rows, a_mids, a_ends = ([None] * ROWS,) * 3 if a is None else _mpf_columns(a)
    d_rows, d_mids, d_ends = _mpf_columns(d)
    log = [[None] * ROWS for _ in range(len(record.labels) + 3)]
    counts = dict.fromkeys(record.clamped, 0)
    with mpmath.workdps(DIGITS):
        rows, _, err = namespace["run"](
            tuple(map(mpmath.mpf, scn.x0)), list(map(mpmath.mpf, time)), mpmath.mpf(scn.dt),
            a_rows, d_rows, a_mids, d_mids, a_ends, d_ends, ROWS, ROWS - 1, log, counts)
    return rows, log, counts, err, source


def _roundings_per_row(source):
    """An upper count of the roundings one row of ``run`` takes: every binary
    operation and every call of its loop, the checks' included."""
    loop = next(node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For))
    return sum(isinstance(node, (ast.BinOp, ast.Call)) for node in ast.walk(loop))


@pytest.mark.parametrize("scn", _scenarios())
def test_the_float_loop_runs_as_its_source_does_at_40_digits(scn):
    result = run_scenario(dataclasses.replace(scn, horizon=(ROWS - 1) * scn.dt))
    rows, log, counts, err, source = _mp_run(scn)
    assert (rows, err) == (result.time.size, None)
    assert counts == result.clamp_counts
    h_mp = np.array(log[-1], dtype=float)

    # Each float operation rounds its result by at most 2^-53 of it (sin and
    # exp to within about that), and a row takes at most _roundings_per_row
    # of them.  With every result at most the largest magnitude the float
    # log holds, and closed loops that are stable, so that no row amplifies
    # the error carried in from earlier rows, the errors add up to at most
    # rows * roundings * 2^-53 * that magnitude.  It is a first-order count:
    # an intermediate can exceed the log's entries (theta^2 / a^2 does by
    # 1/a^2 = 16), which the roundings off h's path, most of the count, cover.
    magnitude = max(np.max(np.abs(column)) for column in
                    (result.states, result.u_nom, result.u_filt, result.h))
    bound = rows * _roundings_per_row(source) * 2.0**-53 * magnitude
    assert np.max(np.abs(result.h - h_mp)) <= bound
