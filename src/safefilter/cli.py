"""Command-line front end.

Commands: ``certify`` (barrier certification reports), ``hstar`` (degraded
safety level for one parameter set), ``simulate`` (scenario trajectories +
metrics), ``sweep`` (h* over an (eps0, lambda) grid).  Scenarios are JSON
documents, one per file; named presets are embedded and dumpable via
``--dump-preset``.  Unknown config keys are rejected.

Exit codes: 0 success/pass, 1 usage error or failed certification,
2 validation error, 3 runtime (integration/root-solve) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import SignalDomainError, linear_class_kappa
from .disturbance import (
    disturbance_from_csv,
    heaviside_pulse,
    zero_disturbance,
)
from .issf import EpsilonFunction, RootBracketError, solve_h_star
from .plants import PendulumParams, TruckParams, pendulum_barrier_core
from .sim import (
    MAX_STEPS,
    LeaderProfile,
    Scenario,
    SignalTooShortError,
    SimulationError,
    SteadyStateWindowError,
    constant_speed_profile,
    hard_brake_profile,
    leader_profile_from_csv,
    run_scenario,
    steady_state_shift,
    step_count,
    truck_lag_disturbance,
    write_csv_table,
)
from .verification import (
    MAX_GRID_CELLS,
    certify_pendulum,
    certify_truck_grid,
    truck_margin_table,
)

__all__ = ["Config", "ConfigError", "main", "parse_config", "config_to_dict",
           "PARAM_PRESETS", "SCENARIO_PRESETS", "build_scenarios"]


class ConfigError(ValueError):
    """Configuration document failed validation; message carries the key path."""


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# Parameter-set presets, loadable in a config as {"params": {"preset": <name>}}.
PARAM_PRESETS = {
    # published controller-design table for the truck case study
    "paper-table-2": {"plant": "truck", "values": {}},
    "pendulum-default": {"plant": "pendulum", "values": {}},
}

_PENDULUM_X0 = (-0.1, 0.5)
_TRUCK_X0 = (27.4, 16.0, 16.0)
_DEFAULT_HORIZON = {"pendulum": 40.0, "truck": 60.0}  # [s], when a config gives none

SCENARIO_PRESETS = {
    "pendulum-undisturbed": {
        "name": "pendulum-undisturbed",
        "plant": "pendulum",
        "params": {"preset": "pendulum-default"},
        "controller": ["nominal", "cbf"],
        "disturbance": {"kind": "zero"},
        "initial_state": list(_PENDULUM_X0),
        "horizon": 40.0,
        "dt": 0.01,
    },
    "pendulum-pulse-cbf": {
        "name": "pendulum-pulse-cbf",
        "plant": "pendulum",
        "params": {"preset": "pendulum-default"},
        "controller": ["cbf"],
        "disturbance": {"kind": "heaviside_pulse", "amplitude": 0.75},
        "initial_state": list(_PENDULUM_X0),
        "horizon": 40.0,
        "dt": 0.01,
    },
    "pendulum-pulse-issf-const": {
        "name": "pendulum-pulse-issf-const",
        "plant": "pendulum",
        "params": {"preset": "pendulum-default"},
        "controller": ["issf"],
        "issf": {"eps0": 0.15, "lam": 0.0, "delta": 0.75},
        "disturbance": {"kind": "heaviside_pulse", "amplitude": 0.75},
        "initial_state": list(_PENDULUM_X0),
        "horizon": 40.0,
        "dt": 0.01,
    },
    "pendulum-pulse-issf-exp": {
        "name": "pendulum-pulse-issf-exp",
        "plant": "pendulum",
        "params": {"preset": "pendulum-default"},
        "controller": ["issf"],
        "issf": {"eps0": 0.5, "lam": 12.0, "delta": 0.75},
        "disturbance": {"kind": "heaviside_pulse", "amplitude": 0.75},
        "initial_state": list(_PENDULUM_X0),
        "horizon": 40.0,
        "dt": 0.01,
    },
    "truck-braking": {
        "name": "truck-braking",
        "plant": "truck",
        "params": {"preset": "paper-table-2"},
        "controller": ["nominal", "cbf"],
        "disturbance": {"kind": "zero"},
        "leader": {"kind": "hard_brake", "v0": 16.0, "t_brake": 15.0,
                   "a_peak": -8.0, "duration": 2.0},
        "initial_state": list(_TRUCK_X0),
        "horizon": 60.0,
        "dt": 0.01,
    },
    "truck-braking-disturbed": {
        "name": "truck-braking-disturbed",
        "plant": "truck",
        "params": {"preset": "paper-table-2"},
        "controller": ["nominal", "cbf", "issf"],
        "issf": {"eps0": 0.5, "lam": 0.4, "delta": 4.5},
        "disturbance": {"kind": "lag_residual", "tau": 0.6},
        "leader": {"kind": "hard_brake", "v0": 16.0, "t_brake": 15.0,
                   "a_peak": -8.0, "duration": 2.0},
        "initial_state": list(_TRUCK_X0),
        "horizon": 60.0,
        "dt": 0.01,
    },
    "truck-cruise": {
        "name": "truck-cruise",
        "plant": "truck",
        "params": {"preset": "paper-table-2"},
        "controller": ["nominal"],
        "disturbance": {"kind": "zero"},
        "leader": {"kind": "constant", "v0": 16.0},
        "initial_state": list(_TRUCK_X0),
        "horizon": 120.0,
        "dt": 0.01,
    },
    "pendulum-hstar-sweep": {
        "name": "pendulum-hstar-sweep",
        "plant": "pendulum",
        "params": {"preset": "pendulum-default"},
        "issf": {"eps0": 0.15, "lam": 0.0, "delta": 0.75},
        "sweep": {"eps0_grid": [0.15, 0.5, 4.0], "lambda_grid": [0.0, 3.0, 12.0]},
    },
    "truck-hstar-sweep": {
        "name": "truck-hstar-sweep",
        "plant": "truck",
        "params": {"preset": "paper-table-2"},
        "issf": {"eps0": 0.5, "lam": 0.4, "delta": 4.5},
        "sweep": {"eps0_grid": [0.5, 0.8, 1.0, 3.0, 4.0, 5.0],
                  "lambda_grid": [0.0, 0.25, 0.35, 0.4, 0.5]},
    },
}


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamsSpec:
    preset: Optional[str] = None
    overrides: tuple = ()  # sorted (key, value) pairs


@dataclass(frozen=True)
class IssfSpec:
    eps0: float
    lam: float
    delta: float


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str
    amplitude: Optional[float] = None
    tau: Optional[float] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class LeaderSpec:
    kind: str
    v0: float
    t_brake: Optional[float] = None
    a_peak: Optional[float] = None
    duration: Optional[float] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class CertifySpec:
    theta_range: tuple = (-3.141592653589793, 3.141592653589793)
    samples: int = 2001
    cross_term: bool = True
    d_range: tuple = (0.0, 100.0)
    vl_range: tuple = (0.0, 20.0)
    grid: tuple = (200, 200)
    a_l_bounds: Optional[tuple] = None


@dataclass(frozen=True)
class SweepSpec:
    eps0_grid: tuple
    lambda_grid: tuple


@dataclass(frozen=True)
class Config:
    plant: str
    name: str = "scenario"
    params: ParamsSpec = ParamsSpec()
    controllers: tuple = ("cbf",)
    issf: Optional[IssfSpec] = None
    disturbance: DisturbanceSpec = DisturbanceSpec(kind="zero")
    leader: Optional[LeaderSpec] = None
    initial_state: Optional[tuple] = None
    horizon: Optional[float] = None
    dt: float = 0.01
    out_dir: str = "out"
    certify: CertifySpec = CertifySpec()
    sweep: Optional[SweepSpec] = None


def _reject_unknown(doc: dict, allowed, path: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}")


def _section(doc: dict, key: str, path: str, default=None) -> dict:
    """A nested object of the config; any other JSON value is a ConfigError."""
    value = doc.get(key, {} if default is None else default)
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key} must be an object, got {value!r}")
    return value


def _check_timing(plant: str, dt: float, horizon: Optional[float],
                  dt_path: str, horizon_path: str) -> None:
    """dt > 0 and dt <= horizon, both finite, and at most MAX_STEPS steps;
    horizon None means the plant default."""
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"{dt_path} must be a positive finite number, got {dt!r}")
    if horizon is None:
        horizon = _DEFAULT_HORIZON[plant]
    if not (math.isfinite(horizon) and horizon >= dt):
        raise ConfigError(f"{horizon_path} must be finite and >= dt = {dt!r}, got {horizon!r}")
    if step_count(horizon, dt) > MAX_STEPS:
        raise ConfigError(f"{horizon_path} must be at most MAX_STEPS = {MAX_STEPS} steps "
                          f"of dt = {dt!r}, got {horizon!r}")


def _float(value, path: str) -> float:
    """The one checked conversion of a config number: a finite JSON number."""
    # a range test, not math.isfinite: it also rejects NaN and JSON integers
    # too large for a float without raising OverflowError
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _number(doc: dict, key: str, path: str, default=None):
    if key not in doc:
        if default is not None:
            return default
        raise ConfigError(f"missing key {path}.{key}")
    return _float(doc[key], f"{path}.{key}")


def _numbers(value, path: str, length: Optional[int] = None) -> tuple:
    """A JSON list of finite numbers, of ``length`` entries if given, else non-empty."""
    if not isinstance(value, (list, tuple)) or not value \
            or (length is not None and len(value) != length):
        size = f"{length}-element" if length is not None else "non-empty"
        raise ConfigError(f"{path} must be a {size} list of numbers")
    return tuple(_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _pair(doc: dict, key: str, path: str, default):
    if key not in doc:
        return tuple(default)
    return _numbers(doc[key], f"{path}.{key}", length=2)


def parse_config(doc: dict, path: str = "$") -> Config:
    """Strictly parse a scenario document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be an object")
    _reject_unknown(doc, (
        "name", "plant", "params", "controller", "issf", "disturbance",
        "leader", "initial_state", "horizon", "dt", "out_dir", "certify", "sweep",
    ), path)

    plant = doc.get("plant")
    if plant not in ("pendulum", "truck"):
        raise ConfigError(f"{path}.plant must be 'pendulum' or 'truck', got {plant!r}")
    name = doc.get("name", "scenario")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{path}.name must be a non-empty string")

    params_doc = _section(doc, "params", path)
    _reject_unknown(params_doc, ("preset", "overrides"), f"{path}.params")
    preset = params_doc.get("preset")
    if preset is not None:
        if preset not in PARAM_PRESETS:
            raise ConfigError(f"{path}.params.preset: unknown preset {preset!r}")
        if PARAM_PRESETS[preset]["plant"] != plant:
            raise ConfigError(
                f"{path}.params.preset: {preset!r} is a {PARAM_PRESETS[preset]['plant']} preset"
            )
    overrides_doc = params_doc.get("overrides", {})
    if not isinstance(overrides_doc, dict):
        raise ConfigError(f"{path}.params.overrides must be an object")
    overrides = tuple(sorted((k, _float(v, f"{path}.params.overrides.{k}"))
                             for k, v in overrides_doc.items()))
    params = ParamsSpec(preset=preset, overrides=overrides)

    controller = doc.get("controller", ["cbf"])
    if isinstance(controller, str):
        controller = [controller]
    if not isinstance(controller, list) or not controller:
        raise ConfigError(f"{path}.controller must be a string or non-empty list")
    for c in controller:
        if c not in ("nominal", "cbf", "issf"):
            raise ConfigError(f"{path}.controller: unknown controller {c!r}")

    issf = None
    if "issf" in doc:
        issf_doc = _section(doc, "issf", path)
        _reject_unknown(issf_doc, ("eps0", "lam", "delta"), f"{path}.issf")
        issf = IssfSpec(
            eps0=_number(issf_doc, "eps0", f"{path}.issf"),
            lam=_number(issf_doc, "lam", f"{path}.issf"),
            delta=_number(issf_doc, "delta", f"{path}.issf"),
        )
    if "issf" in controller and issf is None:
        raise ConfigError(f"{path}.issf is required when the issf controller is selected")

    dist_doc = _section(doc, "disturbance", path, default={"kind": "zero"})
    kind = dist_doc.get("kind")
    if kind == "zero":
        _reject_unknown(dist_doc, ("kind",), f"{path}.disturbance")
        disturbance = DisturbanceSpec(kind="zero")
    elif kind == "heaviside_pulse":
        _reject_unknown(dist_doc, ("kind", "amplitude"), f"{path}.disturbance")
        disturbance = DisturbanceSpec(
            kind=kind, amplitude=_number(dist_doc, "amplitude", f"{path}.disturbance")
        )
    elif kind == "lag_residual":
        _reject_unknown(dist_doc, ("kind", "tau"), f"{path}.disturbance")
        disturbance = DisturbanceSpec(
            kind=kind, tau=_number(dist_doc, "tau", f"{path}.disturbance", default=0.6)
        )
        if plant != "truck":
            raise ConfigError(
                f"{path}.disturbance: lag_residual is synthesized from the truck "
                f"braking command and needs plant = 'truck'"
            )
    elif kind == "csv":
        _reject_unknown(dist_doc, ("kind", "path"), f"{path}.disturbance")
        if not isinstance(dist_doc.get("path"), str):
            raise ConfigError(f"{path}.disturbance.path must be a string")
        disturbance = DisturbanceSpec(kind=kind, path=dist_doc["path"])
    else:
        raise ConfigError(f"{path}.disturbance.kind: unknown kind {kind!r}")

    leader = None
    if "leader" in doc:
        if plant != "truck":
            raise ConfigError(f"{path}.leader only applies to the truck plant")
        lead_doc = _section(doc, "leader", path)
        lkind = lead_doc.get("kind")
        if lkind == "constant":
            _reject_unknown(lead_doc, ("kind", "v0"), f"{path}.leader")
            leader = LeaderSpec(kind=lkind, v0=_number(lead_doc, "v0", f"{path}.leader"))
        elif lkind == "hard_brake":
            _reject_unknown(lead_doc, ("kind", "v0", "t_brake", "a_peak", "duration"),
                            f"{path}.leader")
            leader = LeaderSpec(
                kind=lkind,
                v0=_number(lead_doc, "v0", f"{path}.leader"),
                t_brake=_number(lead_doc, "t_brake", f"{path}.leader"),
                a_peak=_number(lead_doc, "a_peak", f"{path}.leader"),
                duration=_number(lead_doc, "duration", f"{path}.leader"),
            )
        elif lkind == "csv":
            _reject_unknown(lead_doc, ("kind", "v0", "path"), f"{path}.leader")
            if not isinstance(lead_doc.get("path"), str):
                raise ConfigError(f"{path}.leader.path must be a string")
            leader = LeaderSpec(kind=lkind, v0=_number(lead_doc, "v0", f"{path}.leader"),
                                path=lead_doc["path"])
        else:
            raise ConfigError(f"{path}.leader.kind: unknown kind {lkind!r}")

    initial_state = None
    if "initial_state" in doc:
        initial_state = _numbers(doc["initial_state"], f"{path}.initial_state",
                                 length=2 if plant == "pendulum" else 3)

    horizon = None
    if "horizon" in doc:
        horizon = _number(doc, "horizon", path)
    dt = _number(doc, "dt", path, default=0.01)
    _check_timing(plant, dt, horizon, f"{path}.dt", f"{path}.horizon")

    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"{path}.out_dir must be a string")

    certify_doc = _section(doc, "certify", path)
    _reject_unknown(certify_doc, (
        "theta_range", "samples", "cross_term", "d_range", "vl_range", "grid", "a_l_bounds",
    ), f"{path}.certify")
    samples = _int(certify_doc.get("samples", 2001), f"{path}.certify.samples")
    if samples > MAX_GRID_CELLS:
        raise ConfigError(f"{path}.certify.samples must be at most MAX_GRID_CELLS = "
                          f"{MAX_GRID_CELLS}, got {samples}")
    cross_term = certify_doc.get("cross_term", True)
    if not isinstance(cross_term, bool):
        raise ConfigError(f"{path}.certify.cross_term must be a boolean")
    grid = certify_doc.get("grid", [200, 200])
    if not isinstance(grid, (list, tuple)) or len(grid) != 2:
        raise ConfigError(f"{path}.certify.grid must be a 2-element list")
    grid = tuple(_int(n, f"{path}.certify.grid[{i}]") for i, n in enumerate(grid))
    # checked before certification allocates its arrays of grid[0] * grid[1] cells
    if min(grid) > 0 and grid[0] * grid[1] > MAX_GRID_CELLS:
        raise ConfigError(f"{path}.certify.grid has {grid[0] * grid[1]} cells, more than "
                          f"MAX_GRID_CELLS = {MAX_GRID_CELLS}")
    certify = CertifySpec(
        theta_range=_pair(certify_doc, "theta_range", f"{path}.certify",
                          CertifySpec.theta_range),
        samples=samples,
        cross_term=cross_term,
        d_range=_pair(certify_doc, "d_range", f"{path}.certify", CertifySpec.d_range),
        vl_range=_pair(certify_doc, "vl_range", f"{path}.certify", CertifySpec.vl_range),
        grid=grid,
        a_l_bounds=(_pair(certify_doc, "a_l_bounds", f"{path}.certify", (0, 0))
                    if "a_l_bounds" in certify_doc else None),
    )

    sweep = None
    if "sweep" in doc:
        sweep_doc = _section(doc, "sweep", path)
        _reject_unknown(sweep_doc, ("eps0_grid", "lambda_grid"), f"{path}.sweep")
        sweep = SweepSpec(
            eps0_grid=_numbers(sweep_doc.get("eps0_grid"), f"{path}.sweep.eps0_grid"),
            lambda_grid=_numbers(sweep_doc.get("lambda_grid"), f"{path}.sweep.lambda_grid"),
        )

    return Config(
        plant=plant, name=name, params=params, controllers=tuple(controller),
        issf=issf, disturbance=disturbance, leader=leader,
        initial_state=initial_state, horizon=horizon, dt=dt, out_dir=out_dir,
        certify=certify, sweep=sweep,
    )


def config_to_dict(cfg: Config) -> dict:
    """Serialize a config so parse_config(config_to_dict(cfg)) == cfg."""
    doc = {
        "name": cfg.name,
        "plant": cfg.plant,
        "params": {"overrides": dict(cfg.params.overrides)},
        "controller": list(cfg.controllers),
        "disturbance": {"kind": cfg.disturbance.kind},
        "dt": cfg.dt,
        "out_dir": cfg.out_dir,
        "certify": {
            "theta_range": list(cfg.certify.theta_range),
            "samples": cfg.certify.samples,
            "cross_term": cfg.certify.cross_term,
            "d_range": list(cfg.certify.d_range),
            "vl_range": list(cfg.certify.vl_range),
            "grid": list(cfg.certify.grid),
        },
    }
    if cfg.params.preset is not None:
        doc["params"]["preset"] = cfg.params.preset
    if cfg.disturbance.kind == "heaviside_pulse":
        doc["disturbance"]["amplitude"] = cfg.disturbance.amplitude
    elif cfg.disturbance.kind == "lag_residual":
        doc["disturbance"]["tau"] = cfg.disturbance.tau
    elif cfg.disturbance.kind == "csv":
        doc["disturbance"]["path"] = cfg.disturbance.path
    if cfg.issf is not None:
        doc["issf"] = {"eps0": cfg.issf.eps0, "lam": cfg.issf.lam, "delta": cfg.issf.delta}
    if cfg.leader is not None:
        lead = {"kind": cfg.leader.kind, "v0": cfg.leader.v0}
        if cfg.leader.kind == "hard_brake":
            lead.update(t_brake=cfg.leader.t_brake, a_peak=cfg.leader.a_peak,
                        duration=cfg.leader.duration)
        elif cfg.leader.kind == "csv":
            lead["path"] = cfg.leader.path
        doc["leader"] = lead
    if cfg.initial_state is not None:
        doc["initial_state"] = list(cfg.initial_state)
    if cfg.horizon is not None:
        doc["horizon"] = cfg.horizon
    if cfg.certify.a_l_bounds is not None:
        doc["certify"]["a_l_bounds"] = list(cfg.certify.a_l_bounds)
    if cfg.sweep is not None:
        doc["sweep"] = {"eps0_grid": list(cfg.sweep.eps0_grid),
                        "lambda_grid": list(cfg.sweep.lambda_grid)}
    return doc


def resolve_preset(name: str) -> dict:
    if name in SCENARIO_PRESETS:
        return json.loads(json.dumps(SCENARIO_PRESETS[name]))
    if name in PARAM_PRESETS:
        return {"name": name, "plant": PARAM_PRESETS[name]["plant"],
                "params": {"preset": name}}
    known = sorted(list(SCENARIO_PRESETS) + list(PARAM_PRESETS))
    raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(known)}")


# ---------------------------------------------------------------------------
# Config -> concrete objects
# ---------------------------------------------------------------------------


def build_params(cfg: Config):
    values = dict(cfg.params.overrides)
    try:
        if cfg.plant == "pendulum":
            return PendulumParams(**values)
        return TruckParams(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {cfg.plant} parameters: {err}") from err


def _build_leader(cfg: Config, p) -> LeaderProfile:
    if cfg.leader is None:
        raise ConfigError("truck scenarios need a leader profile")
    spec = cfg.leader
    if spec.kind == "constant":
        return constant_speed_profile(spec.v0, v_bar_l=p.v_bar_l)
    if spec.kind == "hard_brake":
        return hard_brake_profile(spec.v0, spec.t_brake, spec.a_peak, spec.duration,
                                  v_bar_l=p.v_bar_l, a_under_l=p.a_under_l)
    return leader_profile_from_csv(spec.path, spec.v0, v_bar_l=p.v_bar_l,
                                   a_bounds=(-p.a_under_l, p.a_bar_l))


def build_scenarios(cfg: Config):
    """Concrete per-controller scenarios for a simulate config."""
    p = build_params(cfg)
    horizon = cfg.horizon if cfg.horizon is not None else _DEFAULT_HORIZON[cfg.plant]
    if cfg.plant == "pendulum":
        x0 = cfg.initial_state or _PENDULUM_X0
        leader = None
        # the run checks h(x0) >= 0 first; a barrier that overflows there
        # rejects the state, not the run
        try:
            pendulum_barrier_core(p)(x0[0], x0[1], math.sin(x0[0]))
        except ValueError as err:
            raise ConfigError(f"$.initial_state: {err}") from err
    else:
        x0 = cfg.initial_state or _TRUCK_X0
        try:
            leader = _build_leader(cfg, p)
        except (OSError, ValueError) as err:
            raise ConfigError(f"$.leader: {err}") from err

    try:
        if cfg.disturbance.kind == "zero":
            dist = zero_disturbance()
        elif cfg.disturbance.kind == "heaviside_pulse":
            dist = heaviside_pulse(cfg.disturbance.amplitude)
        elif cfg.disturbance.kind == "csv":
            dist = disturbance_from_csv(cfg.disturbance.path)
        else:  # lag_residual: one shared trace for every controller in the config
            dist = truck_lag_disturbance(p, leader, x0, horizon, tau=cfg.disturbance.tau)
    except (OSError, ValueError) as err:
        raise ConfigError(f"$.disturbance: {err}") from err

    epsilon = None
    delta = 0.0
    if cfg.issf is not None:
        try:
            epsilon = EpsilonFunction(cfg.issf.eps0, cfg.issf.lam)
        except ValueError as err:
            raise ConfigError(f"$.issf: {err}") from err
        delta = cfg.issf.delta

    scenarios = []
    for controller in cfg.controllers:
        try:
            scenario = Scenario(
                name=f"{cfg.name}-{controller}",
                plant=cfg.plant,
                controller=controller,
                x0=tuple(x0),
                horizon=horizon,
                dt=cfg.dt,
                disturbance=dist,
                pendulum=p if cfg.plant == "pendulum" else None,
                truck=p if cfg.plant == "truck" else None,
                leader=leader,
                epsilon=epsilon,
                delta=delta,
            )
        except SignalTooShortError as err:
            raise ConfigError(f"$.{err.signal}: {err}") from err
        scenarios.append(scenario)
    return scenarios


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.9g}"


def cmd_certify(cfg: Config, out_dir: Path, cross_term: Optional[bool] = None) -> int:
    p = build_params(cfg)
    spec = cfg.certify
    if cross_term is None:
        cross_term = spec.cross_term
    try:
        if cfg.plant == "pendulum":
            report = certify_pendulum(p.a, p.b, p.alpha_c, theta_range=spec.theta_range,
                                      samples=spec.samples, cross_term=cross_term)
        else:
            report = certify_truck_grid(p, d_range=spec.d_range, vl_range=spec.vl_range,
                                        grid=spec.grid, a_l_bounds=spec.a_l_bounds)
            table = truck_margin_table(p, d_range=spec.d_range, vl_range=spec.vl_range,
                                       grid=spec.grid, a_l_bounds=spec.a_l_bounds)
    except ValueError as err:
        raise ConfigError(f"$.certify: {err}") from err
    if cfg.plant == "truck":
        write_csv_table(out_dir / f"{cfg.name}_margins.csv", "D,v_L,v,margin", table)
    with open(out_dir / f"{cfg.name}_certify.json", "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
    status = "passed" if report.passed else "FAILED"
    print(f"certify {cfg.name}: {status} on grid, min margin {report.min_margin:.9g} "
          f"at {report.witness}")
    return 0 if report.passed else 1


def cmd_hstar(cfg: Config, out_dir: Path) -> int:
    if cfg.issf is None:
        raise ConfigError("hstar needs an 'issf' section (eps0, lam, delta)")
    p = build_params(cfg)
    try:
        epsilon = EpsilonFunction(cfg.issf.eps0, cfg.issf.lam)
        h_star = solve_h_star(linear_class_kappa(p.alpha_c), epsilon, cfg.issf.delta)
    except ValueError as err:
        raise ConfigError(f"$.issf: {err}") from err
    print(f"h_star = {h_star:.9g}  (eps0={cfg.issf.eps0:g}, lam={cfg.issf.lam:g}, "
          f"delta={cfg.issf.delta:g}, alpha_c={p.alpha_c:g})")
    with open(out_dir / f"{cfg.name}_hstar.csv", "w", newline="") as handle:
        handle.write("eps0,lambda,delta,alpha_c,h_star\n")
        handle.write(",".join(_fmt(v) for v in
                              (cfg.issf.eps0, cfg.issf.lam, cfg.issf.delta,
                               p.alpha_c, h_star)) + "\n")
    return 0


def cmd_sweep(cfg: Config, out_dir: Path) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep needs a 'sweep' section (eps0_grid, lambda_grid)")
    if cfg.issf is None:
        raise ConfigError("sweep needs an 'issf' section for delta")
    p = build_params(cfg)
    alpha = linear_class_kappa(p.alpha_c)
    delta = cfg.issf.delta
    out_path = out_dir / f"{cfg.name}.csv"
    failures = 0
    with open(out_path, "w", newline="") as handle:
        handle.write("eps0,lambda,h_star,status\n")
        for eps0 in cfg.sweep.eps0_grid:
            for lam in cfg.sweep.lambda_grid:
                try:
                    h_star = solve_h_star(alpha, EpsilonFunction(eps0, lam), delta)
                    handle.write(f"{eps0:.9g},{lam:.9g},{h_star:.9g},ok\n")
                except (RootBracketError, ValueError) as err:
                    failures += 1
                    handle.write(f"{eps0:.9g},{lam:.9g},nan,error: {err}\n")
    n_rows = len(cfg.sweep.eps0_grid) * len(cfg.sweep.lambda_grid)
    print(f"sweep {cfg.name}: {n_rows} rows -> {out_path}"
          + (f" ({failures} root failures)" if failures else ""))
    return 0


def _flush_partial(err: SimulationError, out_dir: Path, name: str) -> None:
    partial = getattr(err, "partial", None)
    if partial is None:
        return
    path = out_dir / f"{name}.csv"
    partial.to_csv(path)
    with open(path, "a", newline="") as handle:
        n_states = len(partial.state_labels)
        handle.write(",".join([f"{err.t:.9g}"] + ["nan"] * (n_states + 4)) + "\n")


def cmd_simulate(cfg: Config, out_dir: Path) -> int:
    scenarios = build_scenarios(cfg)
    results = []
    for scn in scenarios:
        try:
            result = run_scenario(scn)
        except SimulationError as err:
            _flush_partial(err, out_dir, scn.name)
            print(f"simulate {scn.name}: FAILED ({err})", file=sys.stderr)
            return 3
        result.to_csv(out_dir / f"{scn.name}.csv")
        results.append(result)

    p = build_params(cfg)
    summary_path = out_dir / f"{cfg.name}_summary.csv"
    with open(summary_path, "w", newline="") as handle:
        handle.write("scenario,controller,h_min,h_star,steady_state_shift,clamp_events\n")
        for result in results:
            shift = None
            if cfg.plant == "truck" and cfg.leader is not None:
                try:
                    shift = steady_state_shift(result, p, cfg.leader.v0)
                except SteadyStateWindowError:
                    shift = None
            clamps = sum(result.clamp_counts.values())
            handle.write(",".join([
                result.name, result.controller, _fmt(result.h_min),
                _fmt(result.h_star), _fmt(shift), str(clamps),
            ]) + "\n")
            star = "" if result.h_star is None else f"  h*={result.h_star:.9g}"
            print(f"simulate {result.name}: h_min={result.h_min:.9g}{star}"
                  f"  -> {out_dir / (result.name + '.csv')}")
    print(f"summary -> {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for validation
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(args) -> Config:
    if getattr(args, "config", None) and getattr(args, "preset", None):
        raise ConfigError("give either --config or --preset, not both")
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                doc = json.load(handle)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
    elif getattr(args, "preset", None):
        doc = resolve_preset(args.preset)
    else:
        raise ConfigError("one of --config or --preset is required")
    cfg = parse_config(doc)
    if args.dt is not None:
        cfg = dataclasses.replace(cfg, dt=float(args.dt))
    if args.horizon is not None:
        cfg = dataclasses.replace(cfg, horizon=float(args.horizon))
    if args.dt is not None or args.horizon is not None:
        _check_timing(cfg.plant, cfg.dt, cfg.horizon,
                      "--dt" if args.dt is not None else "$.dt",
                      "--horizon" if args.horizon is not None else "$.horizon")
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def main(argv=None) -> int:
    parser = _Parser(prog="safefilter",
                     description="safety-filter scenario toolkit")
    parser.add_argument("--dump-preset", metavar="NAME",
                        help="print an embedded preset as JSON and exit")
    sub = parser.add_subparsers(dest="command")
    for command in ("certify", "hstar", "simulate", "sweep"):
        cp = sub.add_parser(command)
        cp.add_argument("--config", help="path to a JSON scenario config")
        cp.add_argument("--preset", help="name of an embedded preset")
        cp.add_argument("--out", help="output directory (default from config)")
        cp.add_argument("--dt", type=float, help="override integration step [s]")
        cp.add_argument("--horizon", type=float, help="override horizon [s]")
        if command == "certify":
            cp.add_argument("--no-cross-term", action="store_true",
                            help="pendulum: check the barrier variant without "
                                 "the angle-rate cross term")

    args = parser.parse_args(argv)
    if args.dump_preset:
        try:
            doc = resolve_preset(args.dump_preset)
        except ConfigError as err:
            print(f"safefilter: {err}", file=sys.stderr)
            return 2
        print(json.dumps(doc, indent=2))
        return 0
    if not args.command:
        parser.error("a command is required (certify, hstar, simulate, sweep)")

    try:
        cfg = _load_config(args)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "certify":
            cross = False if getattr(args, "no_cross_term", False) else None
            return cmd_certify(cfg, out_dir, cross_term=cross)
        if args.command == "hstar":
            return cmd_hstar(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        return cmd_sweep(cfg, out_dir)
    except ConfigError as err:
        print(f"safefilter: config error: {err}", file=sys.stderr)
        return 2
    except (RootBracketError, SimulationError, SignalDomainError) as err:
        print(f"safefilter: runtime failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
