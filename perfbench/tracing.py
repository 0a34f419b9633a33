"""Per-layer tracing by wrapping safefilter's public callables from outside.

Nothing under ``src/`` is edited.  While a :class:`Tracer` is installed, the
callables listed in :meth:`Tracer.install` are replaced by wrappers that record a
span (calls, inclusive time, self time) or only a call count.  ``sim`` and
``cli`` bind names with ``from ... import``, so a function is replaced in
every safefilter module namespace that holds it; methods and ``__init__`` are
replaced on their class.  :meth:`Tracer.uninstall` restores every original.

Spans nest through an explicit stack, and a span's self time is its duration
minus the durations of its direct children.  Spans are aggregated per name in
memory (about two million calls per pass would not fit as records).
Wrapping calls of 2-10 us costs a comparable amount, so every time reported
from a traced pass is a traced time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

SAFEFILTER_MODULES = (
    "safefilter", "safefilter.core", "safefilter.cbf", "safefilter.issf",
    "safefilter.plants", "safefilter.disturbance", "safefilter.sim",
    "safefilter.verification", "safefilter.cli",
)

# Span names and the stat the per-layer report gives for each, besides calls.
SPANS = {
    "core.BarrierEvaluation": "self_us",
    "plants.pendulum_barrier": "self_us",
    "plants.truck_barrier": "self_us",
    "plants.nominal": "self_us",
    "plants.truck_filter": "self_us",
    "cbf.filter": "self_us",
    "issf.filter": "self_us",
    "disturbance.signal": "self_us",
    "sim.rk4_step": "self_us",
    "sim.run_scenario": "self_us",
    "sim.to_csv": "total_ms",
    "sim.truck_lag_disturbance": "total_ms",
    "disturbance.lag_residual": "total_ms",
    "issf.solve_h_star": "self_us",
    "verification.certify_truck_grid": "total_ms",
    "verification.truck_margin_table": "total_ms",
    "cli.main": "self_ms",
    "cli.parse_config": "self_us",
    "cli.build_scenarios": "total_ms",
}
# Names that only count calls (no span), so their time stays in the caller.
COUNTS = ("plants.drift", "issf.set_inflation")


class Tracer:
    """Span and counter aggregation for one traced pass."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total_s, self_s
        self.counts = {name: [0] for name in COUNTS}
        # filter / nominal calls, split by caller: inside rk4_step or the logger
        self.tally = {key: [0] for key in ("filter.rk4", "filter.log",
                                           "nominal.rk4", "nominal.log")}
        # per-scenario aggregates, taken in the run_scenario wrapper
        self.scenario = {"filtered_steps": 0, "filtered_rows": 0, "filter_rk4": 0,
                         "filter_log": 0, "steps": 0, "rows": 0, "nominal_rk4": 0,
                         "nominal_log": 0}
        self.active = {"cbf": [0, 0], "issf": [0, 0]}  # rows with u_filt != u_nom, rows
        self._stack = []
        self._rk4_depth = [0]
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, tally=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        if tally is not None:
            depth = self._rk4_depth
            in_rk4 = self.tally[tally + ".rk4"]
            in_log = self.tally[tally + ".log"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tally is not None:
                (in_rk4 if depth[0] else in_log)[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def count(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rk4_wrapper(self, fn):
        depth = self._rk4_depth
        spanned = self.span("sim.rk4_step", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def _run_scenario_wrapper(self, fn):
        spanned = self.span("sim.run_scenario", fn)
        tally, agg, active = self.tally, self.scenario, self.active
        steps = self.stats["sim.rk4_step"]

        @functools.wraps(fn)
        def wrapper(scn):
            before = {key: cell[0] for key, cell in tally.items()}
            steps_before = steps[0]
            result = spanned(scn)
            delta = {key: cell[0] - before[key] for key, cell in tally.items()}
            n_steps = steps[0] - steps_before
            n_rows = int(result.time.size)
            agg["steps"] += n_steps
            agg["rows"] += n_rows
            agg["nominal_rk4"] += delta["nominal.rk4"]
            agg["nominal_log"] += delta["nominal.log"]
            if scn.controller != "nominal":
                agg["filtered_steps"] += n_steps
                agg["filtered_rows"] += n_rows
                agg["filter_rk4"] += delta["filter.rk4"]
                agg["filter_log"] += delta["filter.log"]
                cell = active[scn.controller]
                cell[0] += int(np.count_nonzero(result.u_filt != result.u_nom))
                cell[1] += n_rows
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name in SAFEFILTER_MODULES:
            namespace = vars(sys.modules[mod_name])
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    namespace[key] = replacement

    def _replace_attr(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _wrap_factory(self, factory, wrap_result):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return wrap_result(factory(*args, **kwargs))

        self._replace_everywhere(factory, wrapper)

    def install(self):
        from safefilter import cbf, cli, core, disturbance, issf, plants, sim, verification

        self._replace_attr(core.BarrierEvaluation, "__init__",
                           self.span("core.BarrierEvaluation",
                                     core.BarrierEvaluation.__init__))
        self._replace_attr(cbf.CbfFilter, "filter",
                           self.span("cbf.filter", cbf.CbfFilter.filter, tally="filter"))
        self._replace_attr(issf.IssfFilter, "filter",
                           self.span("issf.filter", issf.IssfFilter.filter, tally="filter"))
        self._replace_attr(disturbance.DisturbanceSignal, "__call__",
                           self.span("disturbance.signal",
                                     disturbance.DisturbanceSignal.__call__))
        self._replace_attr(sim.ScenarioResult, "to_csv",
                           self.span("sim.to_csv", sim.ScenarioResult.to_csv))

        self._wrap_factory(plants.pendulum_barrier,
                           lambda fn: self.span("plants.pendulum_barrier", fn))
        self._wrap_factory(plants.truck_barrier,
                           lambda fn: self.span("plants.truck_barrier", fn))
        self._wrap_factory(plants.pendulum_nominal,
                           lambda fn: self.span("plants.nominal", fn, tally="nominal"))

        def counted_drift(dyn):
            return dataclasses.replace(dyn, drift=self.count("plants.drift", dyn.drift))

        self._wrap_factory(plants.pendulum_dynamics, counted_drift)
        self._wrap_factory(plants.truck_dynamics, counted_drift)

        self._replace_everywhere(plants.truck_nominal, self.span(
            "plants.nominal", plants.truck_nominal, tally="nominal"))
        for fn in (plants.truck_safe_filter, plants.truck_robust_filter):
            self._replace_everywhere(fn, self.span("plants.truck_filter", fn, tally="filter"))
        self._replace_everywhere(issf.set_inflation,
                                 self.count("issf.set_inflation", issf.set_inflation))

        self._replace_everywhere(sim.rk4_step, self._rk4_wrapper(sim.rk4_step))
        self._replace_everywhere(sim.run_scenario,
                                 self._run_scenario_wrapper(sim.run_scenario))
        for name, fn in (
            ("sim.truck_lag_disturbance", sim.truck_lag_disturbance),
            ("disturbance.lag_residual", disturbance.lag_residual),
            ("issf.solve_h_star", issf.solve_h_star),
            ("verification.certify_truck_grid", verification.certify_truck_grid),
            ("verification.truck_margin_table", verification.truck_margin_table),
            ("cli.main", cli.main),
            ("cli.parse_config", cli.parse_config),
            ("cli.build_scenarios", cli.build_scenarios),
        ):
            self._replace_everywhere(fn, self.span(name, fn))
        return self

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-number copy of everything recorded so far."""
        return {
            "spans": {name: list(cell) for name, cell in self.stats.items()},
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "scenario": dict(self.scenario),
            "active": {name: list(cell) for name, cell in self.active.items()},
        }


def _ratio(num, den):
    return num / den if den else 0.0


def exact_counters(snap: dict) -> dict:
    """Behaviour counts that must repeat bit for bit for the same inputs."""
    agg = snap["scenario"]
    solves = snap["spans"]["issf.solve_h_star"][0]
    return {
        "sim.filter_calls_per_step": (_ratio(agg["filter_rk4"], agg["filtered_steps"])
                                      + _ratio(agg["filter_log"], agg["filtered_rows"])),
        "plants.nominal_calls_per_step": (_ratio(agg["nominal_rk4"], agg["steps"])
                                          + _ratio(agg["nominal_log"], agg["rows"])),
        "issf.set_inflation.calls_per_solve": _ratio(snap["counts"]["issf.set_inflation"],
                                                     solves),
        "cbf.active_frac": _ratio(*snap["active"]["cbf"]),
        "issf.active_frac": _ratio(*snap["active"]["issf"]),
        "sim.logged_steps": agg["rows"],
        "plants.drift.calls": snap["counts"]["plants.drift"],
        "issf.set_inflation.calls": snap["counts"]["issf.set_inflation"],
        **{f"{name}.calls": cell[0] for name, cell in snap["spans"].items()},
    }


def layer_times(snap: dict) -> dict:
    """Traced time per layer for one pass: self time per call, or per-pass totals."""
    out = {}
    for name, (calls, total, self_time) in snap["spans"].items():
        stat = SPANS[name]
        if stat == "self_us":
            out[f"{name}.self_us"] = _ratio(self_time, calls) * 1e6
        elif stat == "self_ms":
            out[f"{name}.self_ms"] = self_time * 1e3
        else:
            out[f"{name}.total_ms"] = total * 1e3
    return out


def top_level_seconds(snap: dict) -> float:
    """Sum of all self times: the time spent inside outermost spans."""
    return sum(cell[2] for cell in snap["spans"].values())
