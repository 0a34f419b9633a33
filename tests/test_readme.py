"""The README's library example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S)
    assert block is not None, "no python block under '## Library example'"
    namespace = {}
    exec(compile(block.group(1), f"{README}:Library example", "exec"), namespace)
    # one torque from each filter, and a guaranteed level below h = 0
    assert namespace["u_robust"].shape == namespace["u"].shape == (1,)
    assert namespace["h_star"] < 0.0
