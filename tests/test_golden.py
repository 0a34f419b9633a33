"""Every file the command line writes, pinned by SHA-256.

Each case runs ``safefilter.cli.main`` in-process into a directory of its
own, and each file it writes is pinned in ``tests/golden/outputs.sha256`` as
``<case>/<file>``.  The command's stdout, with that directory shown as
``<out>``, is pinned as ``<case>/exit-<code>.stdout``, so its exit code is
pinned by the name.  An output that moves on purpose is re-pinned with
``scripts/pin_outputs.py``, and the change that moves it says why.

The cases are every simulate preset, both sweep presets under ``sweep`` and
``hstar``, both certify parameter presets (the pendulum with and without the
cross term) and the truck's two-block margin grid, plus one document per
plant that leaves the initial state and the horizon to the plant defaults.
The ``--dump-preset`` text of every preset name is pinned too: a dump case
runs without ``--out`` and writes no file.  So is the text of the generated
block loop ``run`` of each plant record under each controller kind, as
``loop-<plant>-<controller>/run``, generated over the bindings the record
binds: a change to the loop template or a plant table that moves a ``run``
moves its pin.
"""

import ast
import contextlib
import hashlib
import io
import json
from pathlib import Path

from safefilter import EpsilonFunction, PendulumParams, TruckParams, plants
from safefilter.cli import main

PINS = Path(__file__).resolve().parent / "golden" / "outputs.sha256"

_SIMULATE_PRESETS = ("pendulum-undisturbed", "pendulum-pulse-cbf", "pendulum-pulse-issf-const",
                     "pendulum-pulse-issf-exp", "truck-braking", "truck-braking-disturbed",
                     "truck-cruise")
_SWEEP_PRESETS = ("truck-hstar-sweep", "pendulum-hstar-sweep")
_PARAM_PRESETS = ("paper-table-2", "pendulum-default")

# (case, command line without --out, config document or None)
CASES = (
    *((f"simulate-{name}", ["simulate", "--preset", name], None) for name in _SIMULATE_PRESETS),
    *((f"{command}-{name}", [command, "--preset", name], None)
      for name in _SWEEP_PRESETS for command in ("sweep", "hstar")),
    ("certify-paper-table-2", ["certify", "--preset", "paper-table-2"], None),
    ("certify-pendulum-default", ["certify", "--preset", "pendulum-default"], None),
    ("certify-pendulum-default-no-cross-term",
     ["certify", "--preset", "pendulum-default", "--no-cross-term"], None),
    # 32,768 cells // 500 columns: a block of 65 grid rows and a partial one of 5
    ("certify-blocks", ["certify"], {"name": "blocks", "plant": "truck",
                                     "params": {"preset": "paper-table-2"},
                                     "certify": {"grid": [70, 500]}}),
    ("simulate-pendulum-defaults", ["simulate"], {"name": "pendulum-defaults",
                                                  "plant": "pendulum"}),
    ("simulate-truck-defaults", ["simulate"], {"name": "truck-defaults", "plant": "truck",
                                               "leader": {"kind": "constant"}}),
    *((f"dump-{name}", ["--dump-preset", name], None)
      for name in (*_SIMULATE_PRESETS, *_SWEEP_PRESETS, *_PARAM_PRESETS)),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _loop_digests() -> dict:
    """The digest of each record's ``run`` text, regenerated from its table
    over the names the record binds, in the order ``run`` unpacks them."""
    pinned = {}
    for plant, table, record, params in (
            ("pendulum", plants._PENDULUM_SOURCE, plants.pendulum_record, PendulumParams()),
            ("truck", plants._TRUCK_SOURCE, plants.truck_record, TruckParams())):
        for controller in plants.CONTROLLERS:
            epsilon = EpsilonFunction(0.5, 0.4) if controller == "issf" else None
            built = tuple(record(params, controller, epsilon).run.__globals__)
            source = plants._loop_source(table, controller, built[:built.index("bound")])
            run = next(node for node in ast.parse(source).body if node.name == "run")
            text = ast.get_source_segment(source, run)
            pinned[f"loop-{plant}-{controller}/run"] = _sha256(text.encode())
    return pinned


def digests(root: Path) -> dict:
    """Run every case under ``root`` and digest what it wrote and printed,
    and the text of each generated ``run``."""
    pinned = {}
    for case, argv, doc in CASES:
        dump = argv[0] == "--dump-preset"
        out = root / case
        if doc is not None:
            config = root / f"{case}.json"
            config.write_text(json.dumps(doc))
            argv = [*argv, "--config", str(config)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv if dump else [*argv, "--out", str(out)])
        text = stdout.getvalue().replace(str(out), "<out>")
        pinned[f"{case}/exit-{code}.stdout"] = _sha256(text.encode())
        for path in [] if dump else sorted(out.iterdir()):
            pinned[f"{case}/{path.name}"] = _sha256(path.read_bytes())
    return {**pinned, **_loop_digests()}


def format_pins(pinned: dict) -> str:
    header = ("# SHA-256 of each CLI output (tests/test_golden.py); "
              "rewrite: scripts/pin_outputs.py\n")
    return header + "".join(f"{digest}  {name}\n" for name, digest in sorted(pinned.items()))


def read_pins() -> dict:
    pinned = {}
    for line in PINS.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split("  ", 1)
            pinned[name] = digest
    return pinned


def test_cli_outputs_match_their_pins(tmp_path):
    assert digests(tmp_path) == read_pins()
