#!/usr/bin/env python3
"""safefilter benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every measurement happens in fresh
worker processes (``worker.py``) with one thread each: first a few set-up-only
workers, whose start-to-ready times give ``setup_s``, then one worker that
runs whole passes over the workload for ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the traced per-layer metrics with ``--trace 1``.
The line before it is a report with the environment record and the
workload-specific figures.  Without ``src/safefilter`` next to this
directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("presets", "rollouts", "design")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = {"full": 9, "tiny": 1}
DEADLINE_S = 170.0   # the whole run, probes included, must end within this

COUNTER_UNITS = {  # exact counters that are not plain counts
    "sim.filter_calls_per_step": "calls/step",
    "plants.nominal_calls_per_step": "calls/step",
    "issf.set_inflation.calls_per_solve": "calls/solve",
    "cbf.active_frac": "fraction",
    "issf.active_frac": "fraction",
}


class BenchmarkError(RuntimeError):
    """A worker failed or the run could not produce a result."""


def _p95(values):
    return quantiles(values, n=20, method="inclusive")[18]


def _op_medians(passes: list, key: str) -> dict:
    """Each operation's median over the passes.

    Per-operation medians are steadier than the median of whole-pass times:
    a slow spell of the shared machine then spoils single operations, not a
    whole pass.
    """
    by_op = {}
    for p in passes:
        for label, value in zip(p["labels"], p[key]):
            by_op.setdefault(label, []).append(value)
    return {label: median(values) for label, values in by_op.items()}


def environment(seed: int) -> dict:
    sha = ""
    if (ROOT / ".git").exists():  # not a parent directory's repository
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "pinned_threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
        "hardware_counters": "none used",
        "whole_machine_tracing": "none used",
    }


class Worker:
    """A worker process with a watchdog that kills it at the run deadline."""

    def __init__(self, args, work_dir: Path, deadline: float, setup_only: bool):
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size, "--work-dir", str(work_dir)]
        if setup_only:
            argv.append("--setup-only")
        env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        before = calibration.reference_seconds()
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.watchdog.start()
        ready = self.proc.stdout.readline()
        self.setup_raw_s = time.perf_counter() - start
        self.setup_s = calibration.normalise(self.setup_raw_s, before,
                                             calibration.reference_seconds())
        if ready.strip() != b"READY":
            self.finish()
            raise BenchmarkError(f"worker did not finish set-up (exit {self.proc.returncode})")

    def finish(self) -> bytes:
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.watchdog.cancel()
            self.proc.stdout.close()
        if code != 0:
            raise BenchmarkError(f"worker exited with code {code}")
        return out


def _traced_metrics(record: dict, failures: list) -> dict:
    traced = record["traced"]
    snaps = [p["trace"] for p in traced]
    counters = [tracing.exact_counters(s) for s in snaps]
    for i, other in enumerate(counters[1:], start=1):
        if other != counters[0]:
            failures.append(f"traced pass {i}: exact counters differ from traced pass 0")
    metrics = {name: (value, COUNTER_UNITS.get(name, "count"))
               for name, value in counters[0].items()}
    times = [tracing.layer_times(s) for s in snaps]
    for name in times[0]:
        metrics[name] = (median([t[name] for t in times]), name.rsplit("_", 1)[1])
    untraced_wall = sum(_op_medians(record["untraced"], "normalised").values())
    traced_wall = sum(_op_medians(traced, "normalised").values())
    metrics["cli.bytes_written"] = (traced[0]["totals"]["bytes_written"], "bytes")
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    metrics["trace.accounted_frac"] = (
        median([tracing.top_level_seconds(s) / p["wall"] for s, p in zip(snaps, traced)]),
        "fraction")
    return metrics


def _end_to_end(record: dict, setups: list) -> dict:
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (sum(_op_medians(record["untraced"], "normalised").values()), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def _workload_figures(workload: str, record: dict, attempted: int, failed: int) -> dict:
    """The workload's own figures (not all of them exist on every workload).

    Times are at the reference speed, like the end-to-end metrics; the raw
    wall-clock figures are given under ``raw``.
    """
    passes = record["untraced"]
    ops = _op_medians(passes, "normalised")
    latencies = list(ops.values())
    raw = list(_op_medians(passes, "latencies").values())
    totals = passes[0]["totals"]  # identical in every pass
    figures = {"failed_frac": failed / attempted, "passes": len(passes),
               "ops_timed": sum(len(p["latencies"]) for p in passes),
               "wall_s": sum(latencies),
               "op_ms_p50": median(latencies) * 1e3, "op_ms_p95": _p95(latencies) * 1e3,
               "raw": {"wall_s": sum(raw), "op_ms_p50": median(raw) * 1e3,
                       "op_ms_p95": _p95(raw) * 1e3}}
    if workload in ("presets", "rollouts"):
        figures["steps_per_s"] = totals["logged_steps"] / sum(latencies)
    if workload == "rollouts":
        figures["rollout_ms_p50"] = figures["op_ms_p50"]
        figures["rollout_ms_p95"] = figures["op_ms_p95"]
        figures["rollout_samples"] = figures["ops_timed"]
    if workload == "design":
        def rate(total_key, prefix):
            return totals[total_key] / sum(lat for label, lat in ops.items()
                                           if label.startswith(prefix))

        figures["sweep_rows_per_s"] = rate("sweep_rows", "sweep")
        figures["certify_cells_per_s"] = rate("certify_cells", "certify truck")
    return figures


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    setups, setups_raw = [], []
    try:
        workers = []
        if not args.trace:
            for i in range(SETUP_PROBES[args.size]):
                workers.append(Worker(args, work_root / f"probe-{i}", deadline,
                                      setup_only=True))
                workers[-1].finish()
        workers.append(Worker(args, work_root / "main", deadline, setup_only=False))
        setups = [w.setup_s for w in workers]
        setups_raw = [w.setup_raw_s for w in workers]
        worker = workers[-1]
        record = json.loads(worker.finish().splitlines()[-1])
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass

    passes = record["untraced"] + record["traced"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    if args.trace:
        metrics = _traced_metrics(record, failures)
    else:
        metrics = _end_to_end(record, setups)
    failed = len(failures)
    report = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(environment(args.seed), python=record["python"],
                            numpy=record["numpy"], safefilter=record["safefilter"]),
        "figures": _workload_figures(args.workload, record, attempted, failed),
        "setup_samples_s": setups,
        "setup_samples_raw_s": setups_raw,
        "failures": failures[:20],
    }
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the harness smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "safefilter" / "__init__.py").is_file():
        print(f"perfbench: no safefilter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"perfbench_report": out["report"]}))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
