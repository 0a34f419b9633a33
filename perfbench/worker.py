"""One benchmark worker process: set up one workload, then run passes over it.

Started by ``run.py`` with the numpy/BLAS thread variables pinned to 1.  It
prints ``READY`` once imports and input generation are done (the end of
set-up), runs whole passes as a closed loop (each operation starts when the
previous one has ended) until ``--seconds`` would be exceeded, and prints one
JSON line with the raw measurements.

With ``--trace 1`` the time is split between untraced passes and traced
passes; the traced ones run under a fresh :class:`tracing.Tracer` each.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import safefilter  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(wl, out_dir: Path, sampler: calibration.SpeedSampler) -> dict:
    """All operations of one pass, one after another; only the calls are timed.

    The reference kernel runs between operations (and inside them while the
    sampler is active), see ``calibration``.
    """
    out_dir.mkdir(parents=True)
    wl.totals = {}
    latencies, normalised, failures = [], [], []
    before = sampler.reference()
    for op in wl.ops:
        value, latency, norm, before = sampler.timed(lambda: op.call(out_dir), before)
        latencies.append(latency)
        normalised.append(norm)
        failures.extend(op.check(value, out_dir))
    wl.totals["bytes_written"] = sum(f.stat().st_size for f in out_dir.rglob("*")
                                     if f.is_file())
    shutil.rmtree(out_dir)
    return {"labels": [op.label for op in wl.ops], "latencies": latencies,
            "normalised": normalised, "wall": sum(latencies),
            "failures": failures, "totals": dict(wl.totals)}


def run_passes(wl, work_dir: Path, budget: float, first_index: int, traced: bool) -> list:
    """Whole passes until the next one would overrun the budget (at least one).

    Traced passes take no samples inside operations, so that the sampler's
    time does not land in the spans.
    """
    passes = []
    sampler = calibration.SpeedSampler()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        path = work_dir / f"pass-{first_index + len(passes)}"
        if traced:
            tracer = tracing.Tracer().install()
            try:
                result = run_pass(wl, path, sampler)
            finally:
                tracer.uninstall()
            result["trace"] = tracer.snapshot()
        else:
            with sampler:
                result = run_pass(wl, path, sampler)
        passes.append(result)
        now = time.perf_counter()
        if now - start + (now - pass_start) > budget:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, args.size, work_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            untraced = run_passes(wl, work_dir, args.seconds / 3.0, 0, traced=False)
            traced = run_passes(wl, work_dir, args.seconds * 2.0 / 3.0, len(untraced),
                                traced=True)
        else:
            untraced = run_passes(wl, work_dir, args.seconds, 0, traced=False)
            traced = []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "safefilter": safefilter.__version__,
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
