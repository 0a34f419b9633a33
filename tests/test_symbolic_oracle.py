"""An exact oracle for the plant tables and the certificates built on them.

Each shipped ``_PlantSource`` table is read as written: its ``shared`` and
``barrier`` lines and its ``field`` tuple are evaluated over sympy symbols.
The hand-written L_f h and L_g h must then equal the gradient of h along the
field at w = 0 and along its derivative in w, as symbolic identities.  The
certificates restate the margin lf_h + alpha_c h on the lg_h = 0 set by
hand; they are checked against the same derivation.

The tables name a few products that the records bind once (``aa`` = a*a,
``two_c3`` = 2 c3 and so on).  ``_BINDINGS`` writes them out, and a numeric
test checks them, and the symbolic barrier with them, against the compiled
record.
"""

import ast
import math
from types import SimpleNamespace

import pytest
import sympy

from safefilter import PendulumParams, TruckParams, certify_pendulum
from safefilter.plants import _PENDULUM_SOURCE, _TRUCK_SOURCE, pendulum_record, truck_record
from safefilter.verification import _column_terms, truck_margin_table

SOURCES = {"pendulum": _PENDULUM_SOURCE, "truck": _TRUCK_SOURCE}

_a, _b, _m, _l = sympy.symbols("a b mass length", positive=True)
_c3, _c5 = sympy.symbols("c3 c5", real=True)  # the tables' own symbols c3 and c5
# the records' bindings of the products a table names
_BINDINGS = {
    "pendulum": {"aa": _a * _a, "bb": _b * _b, "ab": _a * _b, "ml2": _m * _l * _l,
                 "g_entry": 1 / (_m * _l * _l)},
    "truck": {"two_c3": 2 * _c3, "two_c5": 2 * _c5},
}


def _symbol(name):
    return sympy.Symbol(name, real=True)


def _evaluate(text, names):
    """The expression ``text`` over ``names``, any other name a real symbol."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in names and node.id != "sin":
            names[node.id] = _symbol(node.id)
    return eval(compile(tree, "<table>", "eval"), {"__builtins__": {}, "sin": sympy.sin}, names)


def _bind(lines, names):
    """Bind each ``name = expression`` line of a table's source, in order."""
    for statement in ast.parse(lines).body:
        (target,) = statement.targets
        names[target.id] = _evaluate(ast.unparse(statement.value), names)
    return names


def _table(plant):
    """The states, the barrier terms h, lf_h, lg_h and the field of a plant's
    table, with the records' product bindings substituted."""
    src = SOURCES[plant]
    states = [_symbol(name) for name in src.names]
    names = {name: state for name, state in zip(src.names, states)}
    _bind(src.shared + src.barrier, names)
    field = [_evaluate(text, names) for text in src.field]
    bindings = {_symbol(name): value for name, value in _BINDINGS[plant].items()}
    terms = [sympy.sympify(names[n]).subs(bindings) for n in ("h", "lf_h", "lg_h")]
    return states, terms, [sympy.sympify(f).subs(bindings) for f in field], names


def _zero(expr):
    return sympy.simplify(sympy.nsimplify(sympy.expand(expr), rational=True)) == 0


@pytest.mark.parametrize("plant", sorted(SOURCES))
def test_each_table_differentiates_its_barrier_exactly(plant):
    states, (h, lf_h, lg_h), field, names = _table(plant)
    w = names["w"]
    grad = [sympy.diff(h, x) for x in states]
    drift = sum(g * f.subs(w, 0) for g, f in zip(grad, field))
    actuation = sum(g * sympy.diff(f, w) for g, f in zip(grad, field))
    assert _zero(lf_h - drift)
    assert _zero(lg_h - actuation)
    # the field is affine in the input channel w
    assert all(sympy.diff(f, w, 2) == 0 for f in field)


_STATES = {"pendulum": [(-0.1, 0.5), (0.2, -0.3), (1.3, 2.0)],
           "truck": [(27.4, 16.0, 16.0), (5.0, 30.0, 2.5), (80.0, 0.0, 20.0)]}


@pytest.mark.parametrize("plant", sorted(SOURCES))
def test_the_bindings_are_the_records(plant):
    # the symbolic barrier, with the bindings above, at the record's parameters
    states, terms, _, names = _table(plant)
    if plant == "pendulum":
        p = PendulumParams(mass=1.5, length=0.8, a=0.3, b=0.7)
        values = {_a: p.a, _b: p.b, _m: p.mass, _l: p.length,
                  _symbol("g_over_l"): p.gravity / p.length}
        record, leader = pendulum_record(p), None
    else:
        p = TruckParams()
        values = {_symbol(n): getattr(p, n) for n in ("c0", "c1", "c2", "c3", "c4", "c5")}
        record, leader = truck_record(p), -3.0
        values[names["a"]] = leader
    bound = record.barrier.__globals__  # the generated functions' globals
    for name, value in _BINDINGS[plant].items():
        assert bound[name] == pytest.approx(float(value.subs(values)), rel=1e-15)
    for x in _STATES[plant]:
        at = {**values, **dict(zip(states, x))}
        exact = [float(term.subs(at)) for term in terms]
        assert record.barrier(x, leader) == pytest.approx(exact, rel=1e-13, abs=1e-13)


def _margin_on_the_line(plant, unknown):
    """lf_h + alpha_c h on the lg_h = 0 set, solved for the state ``unknown``,
    and that state's solution."""
    states, (h, lf_h, lg_h), _, _ = _table(plant)
    x = states[[s.name for s in states].index(unknown)]
    (line,) = sympy.solve(lg_h, x)
    alpha_c = sympy.Symbol("alpha_c", positive=True)
    return sympy.simplify((lf_h + alpha_c * h).subs(x, line)), line, alpha_c


def test_the_pendulum_certificate_is_the_tables_margin():
    margin, line, alpha_c = _margin_on_the_line("pendulum", "theta_dot")
    theta = _symbol("theta")
    assert _zero(line + _b / (2 * _a) * theta)  # the line theta_dot = -(b/2a) theta
    # certify_pendulum's quadratic, as its docstring states it
    assert _zero(margin - (alpha_c + 3 / (4 * _a**2) * (_b / _a - alpha_c) * theta**2))
    for a, b, alpha in ((0.25, 0.5, 0.2), (0.3, 0.1, 0.5), (1.0, 2.0, 1.0)):
        for theta_range in ((-math.pi, math.pi), (0.1, 0.2), (-0.3, -0.05), (-1.0, 0.5)):
            report = certify_pendulum(a, b, alpha, theta_range)
            theta_w = report.witness["theta"]
            at = {_a: a, _b: b, alpha_c: alpha, theta: theta_w}
            assert report.min_margin == pytest.approx(float(margin.subs(at)), rel=1e-12,
                                                      abs=1e-15)
            assert report.witness["theta_dot"] == pytest.approx(float(line.subs(at)),
                                                                rel=1e-12, abs=1e-15)


def test_the_truck_scans_column_terms_are_the_tables_margin():
    margin, line, alpha_c = _margin_on_the_line("truck", "v")
    d, v_l, a = _symbol("D"), _symbol("v_L"), _symbol("a")
    p = SimpleNamespace(**{n: _symbol(n) for n in ("c0", "c1", "c2", "c3", "c4", "c5")})
    # the scan's terms at a column (v_L, v0) with a_L = a at both bounds
    rho, gap, rise_lo, rise_hi = _column_terms(p, v_l, line, a, a)
    assert rise_lo == rise_hi
    assert _zero(margin - (gap + alpha_c * (d - rho) + rise_lo))
    # the scan's v axis is the line's v at each v_L
    truck = TruckParams()
    _, vl_axis, v_axis, _ = truck_margin_table(truck, grid=(2, 5))
    values = {p.c1: truck.c1, p.c3: truck.c3, p.c4: truck.c4}
    for vl, v in zip(vl_axis.tolist(), v_axis.tolist()):
        assert v == pytest.approx(float(line.subs({**values, v_l: vl})), rel=1e-14)
