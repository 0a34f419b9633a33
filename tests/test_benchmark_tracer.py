"""The traced benchmark wraps safefilter callables by name from outside, so a
removed or renamed name breaks it.  Installing its tracer here makes that a
tier-1 failure, not only a failure of the traced benchmark runs."""

import importlib.util
import sys
from pathlib import Path

from safefilter import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs_and_restores_every_name(tmp_path):
    tracing = _tracing()
    namespaces = {name: dict(vars(sys.modules[name])) for name in tracing.SAFEFILTER_MODULES}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main is not namespaces["safefilter.cli"]["main"]
        assert cli.main(["hstar", "--preset", "truck-hstar-sweep", "--out", str(tmp_path)]) == 0
        spans = tracer.snapshot()["spans"]
        assert spans["cli.main"][0] == 1 and spans["issf.solve_h_star"][0] == 1
    finally:
        tracer.uninstall()
    for name, namespace in namespaces.items():
        now = vars(sys.modules[name])
        assert all(now[key] is value for key, value in namespace.items()), name
