"""The generator behind the plant records, on tables other than the shipped two.

A one-state table runs, and its generated ``run`` gives what the same loop
gives through ``sim.rk4_step``, bit for bit.  A state or binding named as
the generated code names its own is rejected where the record is built,
and the reserved names cover every name the shipped records' ``run`` uses
besides its table's own.
"""

import math
import re

import pytest

from safefilter import EpsilonFunction, PendulumParams, TruckParams, plants, rk4_step
from safefilter.cbf import filter_function

ALPHA_C = 1.0
DT = 0.05
ROWS = 60

# dy/dt = c y + w on the safe set h = 1 - y^2; the nominal input pushes y
# toward the boundary, so the filter acts on some rows and not on others
_ONE_STATE = plants._PlantSource(
    names=("y",),
    shared="cy = c * y\n",
    nominal="u_nom = bias - kp * y\n",
    barrier="h = 1.0 - y * y\ndh = -2.0 * y\nlf_h = dh * cy\nlg_h = dh\n",
    field=("cy + w",),
)
_BINDINGS = dict(c=0.5, bias=1.0, kp=0.1)


def _disturbance(t):
    return 0.3 * math.sin(3.0 * t)


def _run(controller, epsilon):
    record = plants._record(_ONE_STATE, _BINDINGS, ALPHA_C, controller, epsilon)
    times = [k * DT for k in range(ROWS)]
    samples = [[_disturbance(t + offset) for t in times]
               for offset in (0.0, 0.5 * DT, DT - 1e-9 * DT)]
    leader = [None] * ROWS
    log = tuple([None] * ROWS for _ in range(4))
    rows, x, err = record.run((0.2,), times, DT, leader, samples[0], leader, samples[1],
                              leader, samples[2], ROWS, ROWS - 1, log, {})
    return rows, [list(column) for column in log], x, err


def _reference(controller, epsilon):
    """The same rows through ``sim.rk4_step``, with the table written out."""
    c, bias, kp = _BINDINGS["c"], _BINDINGS["bias"], _BINDINGS["kp"]
    apply = filter_function(ALPHA_C, epsilon)

    def field(xs, t, w):
        return (c * xs[0] + w,)

    def terms(xs):
        (y,) = xs
        dh = -2.0 * y
        u_nom = bias - kp * y
        if controller == "nominal":
            return u_nom, u_nom, 1.0 - y * y
        return u_nom, apply(1.0 - y * y, dh * (c * y), dh, u_nom), 1.0 - y * y

    log = [[] for _ in range(4)]
    x = (0.2,)
    for k in range(ROWS):
        u_nom, u, h = terms(x)
        for column, value in zip(log, (*x, u_nom, u, h)):
            column.append(value)
        if k < ROWS - 1:
            x = rk4_step(field, lambda xs, t: terms(xs)[1], _disturbance, x, k * DT, DT, u0=u)
    return ROWS, log, x, None


@pytest.mark.parametrize("controller,epsilon", [
    ("nominal", None), ("cbf", None), ("issf", EpsilonFunction(0.5, 0.4))])
def test_one_state_table_runs_as_rk4_step(controller, epsilon):
    got = _run(controller, epsilon)
    assert got[3] is None
    # repr compares the signs of zeros and every bit of the floats
    assert repr(got) == repr(_reference(controller, epsilon))
    _, (_, u_nom, u, _), _, _ = got
    active = sum(a != b for a, b in zip(u_nom, u))
    assert (active == 0) if controller == "nominal" else (0 < active < ROWS)


_PER_STATE_TAKEN = ["y0", "k1_y", "k2_y", "k3_y", "k4_y", "log_y"]


@pytest.mark.parametrize("name", [*plants._RESERVED, *_PER_STATE_TAKEN])
def test_a_reserved_state_or_binding_name_is_rejected(name):
    # a state named d logged the disturbance sample in its column, and a
    # binding named t was shadowed by the row time, with no error
    states = _ONE_STATE._replace(names=("y", name))
    with pytest.raises(ValueError, match=f"plant table names \\['{name}'\\] are taken"):
        plants._record(states, _BINDINGS, ALPHA_C, "cbf", None)
    with pytest.raises(ValueError, match=f"plant table names \\['{name}'\\] are taken"):
        plants._record(_ONE_STATE, {**_BINDINGS, name: 1.0}, ALPHA_C, "cbf", None)


def _table_names(src):
    """The names a table's own lines and states give ``run``."""
    text = " ".join((src.shared, src.nominal, src.barrier, *src.field))
    per_state = (fmt.format(n=n) for n in src.names for fmt in plants._PER_STATE)
    return {*re.findall(r"[A-Za-z_]\w*", text), *src.names, *per_state}


@pytest.mark.parametrize("src,record", [
    (plants._PENDULUM_SOURCE, plants.pendulum_record),
    (plants._TRUCK_SOURCE, plants.truck_record),
])
@pytest.mark.parametrize("controller", plants.CONTROLLERS)
def test_reserved_names_cover_every_name_of_the_shipped_runs(src, record, controller):
    params = PendulumParams() if src is plants._PENDULUM_SOURCE else TruckParams()
    epsilon = EpsilonFunction(0.5, 0.4) if controller == "issf" else None
    code = record(params, controller, epsilon).run.__code__
    # x, the state tuple, is unpacked first and never read again
    untabled = {*code.co_varnames, *code.co_names} - _table_names(src) - {"x"}
    assert untabled <= set(plants._RESERVED), untabled - set(plants._RESERVED)
