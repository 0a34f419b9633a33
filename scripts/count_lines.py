"""Count the lines of each module of the safefilter package.

For each module in ``src/safefilter`` and for all of them together, prints
the total lines and the code lines: the lines left once blank lines,
comment-only lines and the module, class and function docstrings are taken
out.  It only prints; there is no threshold.  Standard library only.

Usage: python scripts/count_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "safefilter"


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """The total lines and the code lines of one module."""
    source = path.read_text()
    lines = source.splitlines()
    # a line is blank or comment-only by its text, so a comment line of a
    # generated-source template counts as a comment
    left_out = {number for number, line in enumerate(lines, start=1)
                if not line.strip() or line.lstrip().startswith("#")}
    left_out |= _docstring_lines(ast.parse(source))
    return len(lines), len(lines) - len(left_out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
