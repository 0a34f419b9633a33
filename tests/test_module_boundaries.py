"""No module of the package imports another module's private name: what a
module shares, it shares under a public name."""

import ast
from pathlib import Path

import safefilter

PACKAGE = Path(safefilter.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list:
    """The lines and names of ``source`` that take a private name from another
    module: ``from m import _x``, or ``m._x`` on a module bound by an import."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if _is_private(alias.name)]
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _is_private(node.attr)]
    return sorted(found)


def test_the_check_finds_each_form_of_private_import():
    source = ("from .sim import _Canvas, write_csv_table\n"
              "from . import sim\n"
              "import numpy as np\n"
              "from __future__ import annotations\n"
              "canvas = sim._Canvas(1, 1)\n"
              "np._core\n"
              "sim.__name__, self._x\n")
    assert private_imports(source) == [(1, "_Canvas"), (5, "sim._Canvas"), (6, "np._core")]


def test_no_module_imports_another_modules_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} >= {"cli", "sim", "verification"}
    found = {path.name: private_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}
