"""The generator behind the plant records, on tables other than the shipped two.

A one-state table runs, and its generated ``run`` gives what the same loop
gives through ``sim.rk4_step``, bit for bit; so does every random polynomial
table of one to four states, with its lf_h and lg_h derived by sympy and its
powers written as ``**`` or as products, and so does its error.  A
state or binding named as the generated code names its own is rejected where
the record is built, and the reserved names cover every name the shipped
records' ``run`` uses, and every name the generated source binds or reads,
besides its table's own.
"""

import ast
import functools
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (EpsilonFunction, PendulumParams, SimulationError, TruckParams, plants,
                        rk4_step)
from safefilter.cbf import filter_bindings, filter_function

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
    # in a step's field, with a non-finite derivative after the row is logged,
    # at the stage's own time and state: stage 4 of the step from t = 0.85
    got, want = (_run("nominal", None, _ONE_STATE._replace(field=(field,)), 1.0)
                 for field in ("y**2 + w", "y * y + w"))
    assert repr(got[:3]) == repr(want[:3]) and got[0] == 18
    assert (type(got[3]), got[3].t, got[3].state) == (SimulationError, want[3].t, want[3].state)
    assert str(got[3]) == str(want[3])
    # in a stage's barrier, a non-finite derivative too: from y = 1e150 the
    # row and stage 1 are finite, and at stage 2 y**2 raises OverflowError
    # where y * y fails the barrier check
    field = _ONE_STATE._replace(field=("y * y + w",))
    power = field._replace(barrier=field.barrier.replace("y * y", "y**2"))
    got, want = (_run("cbf", None, table, 1e150) for table in (power, field))
    assert repr(got[:3]) == repr(want[:3]) and got[0] == 1
    errors = [(type(err), str(err), getattr(err, "t", None), getattr(err, "state", None))
              for err in (got[3], want[3])]
    assert errors[0] == errors[1]
    assert (type(want[3]), want[3].t) == (SimulationError, 0.5 * DT)


@pytest.mark.parametrize("where", ["field", "controller"])
def test_rk4_step_meets_an_overflow_as_its_non_finite_value(where):
    # from y = 1e150 the square is finite at stage 1 and overflows at stage 2,
    # where y**2 raises OverflowError and y * y gives inf
    errors = []
    for square in (lambda y: y**2, lambda y: y * y):
        def field(xs, t, w):
            return ((square(xs[0]) if where == "field" else 0.0) + w,)

        def controller(xs, t):
            return square(xs[0]) if where == "controller" else 0.0

        with pytest.raises(SimulationError) as excinfo:
            rk4_step(field, controller, lambda t: 0.0, (1e150,), 0.0, DT)
        errors.append(excinfo.value)
    got, want = errors
    assert (str(got), got.t, got.state) == (str(want), want.t, want.state)
    assert want.t == 0.5 * DT and want.state != (1e150,)


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


@pytest.mark.parametrize("controller", plants.CONTROLLERS)
def test_reserved_names_cover_every_name_the_generator_binds_or_reads(controller):
    # every name in the generated source, not only run's: the functions it
    # defines, their parameters and the names each of them binds or reads
    bound = (*_BINDINGS, "isfinite", "non_finite", "SimulationError")
    if controller != "nominal":
        bound += tuple(filter_bindings(ALPHA_C, EpsilonFunction(0.5, 0.4)
                                       if controller == "issf" else None))
    tree = ast.parse(plants._loop_source(_ONE_STATE, controller, bound))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    untabled = names - _table_names(_ONE_STATE) - {"x"}
    assert untabled <= set(plants._RESERVED), untabled - set(plants._RESERVED)


# States of the random tables; x is also the name of the state tuple, which
# each generated function unpacks first and never reads again
_RANDOM_NAMES = ("x", "y", "z", "v")


@functools.cache
def _product_printer():
    """A sympy printer that writes an integer power x**k as (x*x*...*x): x**k
    raises OverflowError where a product gives inf, which the generated loop
    and rk4_step meet as the non-finite value the product gives."""
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
    sympy, and its powers written as x**k or as products; and an initial
    state."""
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
    text = sympy.sstr if draw(st.booleans()) else _product_printer().doprint
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
    """The table's field(x, t, w), barrier(x) = (h, lf_h, lg_h) and
    nominal(x) = u_nom, from the same text the generator inlines."""
    state = ", ".join(source.names)

    def function(head, lines, result):
        body = "".join(f"    {line}\n" for line in lines.splitlines())
        return f"def {head}:\n    {state}, = x\n{body}    return {result}\n"

    text = (function("field(x, t, w)", "", f"({', '.join(source.field)},)")
            + function("barrier(x)", source.barrier, "h, lf_h, lg_h")
            + function("nominal(x)", source.nominal, "u_nom"))
    namespace = {}
    exec(text, namespace)
    return namespace["field"], namespace["barrier"], namespace["nominal"]


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

    field, barrier, nominal = _table_functions(source)
    apply = filter_function(ALPHA_C, epsilon)

    def control(xs):
        # in the generated loop's order: the barrier, its check, the nominal input
        h, lf_h, lg_h = barrier(xs)
        if not all(map(math.isfinite, (h, lf_h, lg_h))):
            raise ValueError("barrier evaluation entries must be finite")
        u_nom = nominal(xs)
        return u_nom if controller == "nominal" else apply(h, lf_h, lg_h, u_nom), u_nom, h

    def stage_control(xs, t):
        return nominal(xs) if controller == "nominal" else control(xs)[0]

    reference = [[] for _ in range(len(x0) + 3)]
    x, err = x0, None
    for k in range(ROWS):
        try:
            u, u_nom, h = control(x)
        except (ValueError, ArithmeticError):
            # a row's overflow, like its non-finite terms, is the barrier's error
            rows, x, err = k, None, ValueError("barrier evaluation entries must be finite")
            break
        for column, value in zip(reference, (*x, u_nom, u, h)):
            column.append(value)
        if k < ROWS - 1:
            try:
                x = rk4_step(field, stage_control, _disturbance, x, k * DT, DT, u0=u)
            except SimulationError as error:
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
