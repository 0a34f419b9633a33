"""The generator behind the plant records, on tables other than the shipped two.

A one-state table runs, and its generated ``run`` gives what the same loop
gives through ``sim.rk4_step``, bit for bit; so does every random polynomial
table of one to four states, with its lf_h and lg_h derived by sympy.  A
state or binding named as the generated code names its own is rejected where
the record is built, and the reserved names cover every name the shipped
records' ``run`` uses besides its table's own.
"""

import functools
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (EpsilonFunction, PendulumParams, SimulationError, TruckParams, plants,
                        rk4_step)
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


def _run(controller, epsilon, table=_ONE_STATE, y0=0.2):
    record = plants._record(table, _BINDINGS, ALPHA_C, controller, epsilon)
    times = [k * DT for k in range(ROWS)]
    samples = [[_disturbance(t + offset) for t in times]
               for offset in (0.0, 0.5 * DT, DT - 1e-9 * DT)]
    leader = [None] * ROWS
    log = tuple([None] * ROWS for _ in range(4))
    rows, x, err = record.run((y0,), times, DT, leader, samples[0], leader, samples[1],
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


def test_an_expression_that_overflows_stops_the_run_as_its_non_finite_value_does():
    # y**2 raises OverflowError where y * y gives inf.  In a row's barrier the
    # run stops with the barrier's ValueError, the row unlogged
    power = _ONE_STATE._replace(barrier=_ONE_STATE.barrier.replace("y * y", "y**2"))
    assert repr(_run("nominal", None, power, 1e200)) == repr(_run("nominal", None, y0=1e200))
    # in a step's field, with a non-finite derivative after the row is logged;
    # the stage's own time is not tracked, so the error gives the step's:
    # the product overflows at stage 4 of the step from t = 0.85
    got, want = (_run("nominal", None, _ONE_STATE._replace(field=(field,)), 1.0)
                 for field in ("y**2 + w", "y * y + w"))
    assert repr(got[:3]) == repr(want[:3]) and got[0] == 18
    assert (type(got[3]), got[3].state) == (SimulationError, want[3].state)
    assert str(got[3]) == str(want[3]).replace("t=0.9,", "t=0.85,")


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


# States of the random tables; x is also the name of the state tuple, which
# each generated function unpacks first and never reads again
_RANDOM_NAMES = ("x", "y", "z", "v")


@functools.cache
def _product_printer():
    """A sympy printer that writes an integer power x**k as (x*x*...*x): x**k
    raises OverflowError where a product gives inf, and the generated loop,
    like the shipped tables, meets an overflow as a non-finite value."""
    sympy = pytest.importorskip("sympy")

    class ProductPrinter(sympy.printing.str.StrPrinter):
        def _print_Pow(self, expr, rational=False):
            base, power = expr.as_base_exp()
            if power.is_Integer and power > 1:
                return "(" + "*".join([self._print(base)] * int(power)) + ")"
            return super()._print_Pow(expr, rational)

    return ProductPrinter()


@st.composite
def _random_tables(draw):
    """A _PlantSource whose field, barrier and nominal input are polynomials of
    degree at most two with coefficients in quarters, its lf_h and lg_h the
    gradient of h along the field at w = 0 and along its w coefficient, by
    sympy; and an initial state."""
    sympy = pytest.importorskip("sympy")
    names = tuple(draw(st.permutations(_RANDOM_NAMES))[:draw(st.integers(1, 4))])
    states = sympy.symbols(names, real=True)
    monomials = [sympy.Integer(1), *states,
                 *(a * b for a, b in itertools.combinations_with_replacement(states, 2))]

    def polynomial(terms, at_most=3):
        picked = draw(st.lists(st.sampled_from(terms), max_size=at_most))
        return sum((sympy.Rational(draw(st.integers(-4, 4)), 4) * m for m in picked),
                   sympy.Integer(0))

    drift = [polynomial(monomials) for _ in states]
    gain = [polynomial(monomials[:len(states) + 1], at_most=2) for _ in states]
    h = 1 - sum(s * s for s in states) + polynomial(monomials)
    gradient = [sympy.diff(h, s) for s in states]
    lf_h = sympy.expand(sum(dh * f for dh, f in zip(gradient, drift)))
    lg_h = sympy.expand(sum(dh * g for dh, g in zip(gradient, gain)))
    text = _product_printer().doprint
    source = plants._PlantSource(
        names=names,
        shared="",
        nominal=f"u_nom = {text(polynomial(monomials[:len(states) + 1]))}\n",
        barrier=f"h = {text(h)}\nlf_h = {text(lf_h)}\nlg_h = {text(lg_h)}\n",
        field=tuple(f"{text(f)} + ({text(g)}) * w" for f, g in zip(drift, gain)),
    )
    x0 = tuple(draw(st.floats(-0.5, 0.5)) for _ in states)
    return source, x0


def _table_functions(source):
    """The table's field(x, t, w) and its terms(x) = (u_nom, h, lf_h, lg_h),
    from the same text the generator inlines."""
    state = ", ".join(source.names)
    text = (f"def field(x, t, w):\n    {state}, = x\n    return ({', '.join(source.field)},)\n"
            f"def terms(x):\n    {state}, = x\n"
            + "".join(f"    {line}\n" for line in (source.nominal + source.barrier).splitlines())
            + "    return u_nom, h, lf_h, lg_h\n")
    namespace = {}
    exec(text, namespace)
    return namespace["field"], namespace["terms"]


def _random_table_runs(source, x0, controller, epsilon):
    """ROWS rows through the table's generated ``run``, and through
    ``sim.rk4_step`` with the table's functions and the filter closure."""
    record = plants._record(source, {}, ALPHA_C, controller, epsilon)
    times = [k * DT for k in range(ROWS)]
    samples = [[_disturbance(t) for t in times], [_disturbance(t + 0.5 * DT) for t in times],
               [_disturbance(t + DT - 1e-9 * DT) for t in times]]
    leader = [None] * ROWS
    log = tuple([None] * ROWS for _ in range(len(x0) + 3))
    rows, x, err = record.run(x0, times, DT, leader, samples[0], leader, samples[1],
                              leader, samples[2], ROWS, ROWS - 1, log, {})
    got = rows, [list(column[:rows]) for column in log], x, repr(err)

    field, terms = _table_functions(source)
    apply = filter_function(ALPHA_C, epsilon)

    def control(xs):
        u_nom, h, lf_h, lg_h = terms(xs)
        if not all(map(math.isfinite, (h, lf_h, lg_h))):
            raise ValueError("barrier evaluation entries must be finite")
        return u_nom if controller == "nominal" else apply(h, lf_h, lg_h, u_nom), u_nom, h

    def stage_control(xs, t):
        return terms(xs)[0] if controller == "nominal" else control(xs)[0]

    reference = [[] for _ in range(len(x0) + 3)]
    x, err = x0, None
    for k in range(ROWS):
        try:
            u, u_nom, h = control(x)
        except ValueError as error:
            rows, x, err = k, None, error
            break
        for column, value in zip(reference, (*x, u_nom, u, h)):
            column.append(value)
        if k < ROWS - 1:
            try:
                x = rk4_step(field, stage_control, _disturbance, x, k * DT, DT, u0=u)
            except (SimulationError, ValueError) as error:
                rows, x, err = k + 1, None, error
                break
    else:
        rows = ROWS
    return got, (rows, reference, x, repr(err))


@settings(max_examples=30, deadline=None)
@given(table=_random_tables(), controller=st.sampled_from(plants.CONTROLLERS))
def test_random_polynomial_tables_run_as_rk4_step(table, controller):
    source, x0 = table
    epsilon = EpsilonFunction(0.5, 0.4) if controller == "issf" else None
    got, expected = _random_table_runs(source, x0, controller, epsilon)
    # repr compares the signs of zeros and every bit of the floats
    assert repr(got) == repr(expected)
