#!/usr/bin/env python3
"""Rewrite tests/golden/outputs.sha256 from the outputs of the current code.

Run it only for a change that moves a CLI output on purpose, and say in the
change why each moved digest moved:

    PYTHONPATH=src python scripts/pin_outputs.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_golden import PINS, digests, format_pins  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        pinned = digests(Path(root))
    PINS.write_text(format_pins(pinned))
    print(f"{len(pinned)} digests -> {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
