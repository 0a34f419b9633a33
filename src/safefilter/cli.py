"""Command-line front end.

Commands: ``certify`` (barrier certification reports), ``hstar`` (degraded
safety level for one parameter set), ``simulate`` (scenario trajectories +
metrics), ``sweep`` (h* over an (eps0, lambda) grid).  Scenarios are JSON
documents, one per file; named presets are embedded and dumpable via
``--dump-preset``.

The spec dataclasses (``Config`` and its sections) are the config schema: a
field's name is its JSON key, its annotation the value's type and its default
what a document may leave out.  A disturbance or leader spec names its kind
in the ClassVar ``kind``, and a Union of them is chosen by the "kind" key.
``parse_config`` decodes a document with one walk over the fields, which
rejects unknown keys and checks each value against its annotation, and then
runs the checks that span several fields.  ``config_to_dict`` walks the
fields the other way, so ``parse_config(config_to_dict(cfg)) == cfg``.

Exit codes: 0 success/pass, 1 usage error or failed certification,
2 validation error, 3 runtime (integration) failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from types import UnionType
from typing import ClassVar, Literal, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import SignalDomainError, linear_class_kappa, shown
from .disturbance import (
    DisturbanceSignal,
    disturbance_from_csv,
    heaviside_pulse,
    zero_disturbance,
)
from .issf import EpsilonFunction, check_delta, solve_h_star
from .plants import CONTROLLERS, PendulumParams, TruckParams, pendulum_barrier, truck_barrier
from .sim import (
    Scenario,
    SignalTooShortError,
    SimulationError,
    SteadyStateWindowError,
    _csv_text,
    check_timing,
    constant_speed_profile,
    hard_brake_profile,
    leader_profile_from_csv,
    run_scenario,
    steady_state_shift,
    truck_lag_disturbance,
)
from .verification import (
    certify_pendulum,
    certify_truck_grid,
    check_grid,
    check_range,
    truck_margin_table,
)

__all__ = ["Config", "ConfigError", "main", "parse_config", "config_to_dict",
           "PARAM_PRESETS", "SCENARIO_PRESETS", "build_scenarios"]


class ConfigError(ValueError):
    """Configuration document failed validation; message carries the key path."""


@contextlib.contextmanager
def _at(path: str, errors: tuple = (OSError, ValueError)):
    """A library error of ``errors`` raised while a config section is built,
    as the ConfigError "<path>: <error>" raised from it.  A signal that does
    not cover the run is its own section's error, whichever section met it:
    a lag_residual disturbance meets the leader in its reference run."""
    try:
        yield
    except errors as err:
        at = f"$.{err.signal}" if isinstance(err, SignalTooShortError) else path
        raise ConfigError(f"{at}: {err}") from err


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# Parameter-set presets by plant, loadable in a config as {"params": {"preset": <name>}}.
PARAM_PRESETS = {
    "paper-table-2": "truck",  # published controller-design table for the truck case study
    "pendulum-default": "pendulum",
}


@dataclass(frozen=True)
class _Plant:
    """A plant as a config names it: its parameter class, and the defaults of
    what a config may leave out, the initial state, whose length is the
    plant's number of states, and the horizon [s]."""

    params: type
    x0: tuple
    horizon: float


_PLANTS = {"pendulum": _Plant(PendulumParams, (-0.1, 0.5), 40.0),
           "truck": _Plant(TruckParams, (27.4, 16.0, 16.0), 60.0)}

SCENARIO_PRESETS = {
    "pendulum-undisturbed": {
        "name": "pendulum-undisturbed",
        "plant": "pendulum",
        "params": {"preset": "pendulum-default"},
        "controller": ["nominal", "cbf"],
        "disturbance": {"kind": "zero"},
        "initial_state": list(_PLANTS["pendulum"].x0),
        "horizon": 40.0,
        "dt": 0.01,
    },
    "pendulum-pulse-cbf": {
        "name": "pendulum-pulse-cbf",
        "plant": "pendulum",
        "params": {"preset": "pendulum-default"},
        "controller": ["cbf"],
        "disturbance": {"kind": "heaviside_pulse", "amplitude": 0.75},
        "initial_state": list(_PLANTS["pendulum"].x0),
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
        "initial_state": list(_PLANTS["pendulum"].x0),
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
        "initial_state": list(_PLANTS["pendulum"].x0),
        "horizon": 40.0,
        "dt": 0.01,
    },
    "truck-braking": {
        "name": "truck-braking",
        "plant": "truck",
        "params": {"preset": "paper-table-2"},
        "controller": ["nominal", "cbf"],
        "disturbance": {"kind": "zero"},
        "leader": {"kind": "hard_brake", "t_brake": 15.0, "a_peak": -8.0, "duration": 2.0},
        "initial_state": list(_PLANTS["truck"].x0),
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
        "leader": {"kind": "hard_brake", "t_brake": 15.0, "a_peak": -8.0, "duration": 2.0},
        "initial_state": list(_PLANTS["truck"].x0),
        "horizon": 60.0,
        "dt": 0.01,
    },
    "truck-cruise": {
        "name": "truck-cruise",
        "plant": "truck",
        "params": {"preset": "paper-table-2"},
        "controller": ["nominal"],
        "disturbance": {"kind": "zero"},
        "leader": {"kind": "constant"},
        "initial_state": list(_PLANTS["truck"].x0),
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
    # a null preset means none
    preset: Optional[str] = field(default=None, metadata={"nullable": True})
    overrides: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class IssfSpec:
    eps0: float
    lam: float
    delta: float


@dataclass(frozen=True)
class ZeroDisturbanceSpec:
    kind: ClassVar[str] = "zero"


@dataclass(frozen=True)
class PulseDisturbanceSpec:
    kind: ClassVar[str] = "heaviside_pulse"
    amplitude: float


@dataclass(frozen=True)
class LagResidualSpec:
    kind: ClassVar[str] = "lag_residual"
    tau: float = 0.6


@dataclass(frozen=True)
class CsvDisturbanceSpec:
    kind: ClassVar[str] = "csv"
    path: str


DisturbanceSpec = Union[ZeroDisturbanceSpec, PulseDisturbanceSpec, LagResidualSpec,
                        CsvDisturbanceSpec]


# a leader starts at the initial leader speed initial_state[2]
@dataclass(frozen=True)
class ConstantLeaderSpec:
    kind: ClassVar[str] = "constant"


@dataclass(frozen=True)
class HardBrakeLeaderSpec:
    kind: ClassVar[str] = "hard_brake"
    t_brake: float
    a_peak: float
    duration: float


@dataclass(frozen=True)
class CsvLeaderSpec:
    kind: ClassVar[str] = "csv"
    path: str


LeaderSpec = Union[ConstantLeaderSpec, HardBrakeLeaderSpec, CsvLeaderSpec]


@dataclass(frozen=True)
class CertifySpec:
    theta_range: tuple[float, float] = (-3.141592653589793, 3.141592653589793)
    cross_term: bool = True
    d_range: tuple[float, float] = (0.0, 100.0)
    vl_range: tuple[float, float] = (0.0, 20.0)
    grid: tuple[int, int] = (200, 200)
    a_l_bounds: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class SweepSpec:
    eps0_grid: tuple[float, ...]
    lambda_grid: tuple[float, ...]


@dataclass(frozen=True)
class Config:
    plant: Literal["pendulum", "truck"]
    name: str = "scenario"
    params: ParamsSpec = field(default_factory=ParamsSpec)
    controller: tuple[Literal[CONTROLLERS], ...] = ("cbf",)
    issf: Optional[IssfSpec] = None
    disturbance: DisturbanceSpec = ZeroDisturbanceSpec()
    leader: Optional[LeaderSpec] = None
    initial_state: Optional[tuple[float, ...]] = None  # 2 or 3 entries, by plant
    horizon: Optional[float] = None
    dt: float = 0.01
    out_dir: str = "out"
    certify: CertifySpec = CertifySpec()
    sweep: Optional[SweepSpec] = None


def _horizon(cfg: Config) -> float:
    """The config's horizon, or its plant's default where it gives none."""
    return _PLANTS[cfg.plant].horizon if cfg.horizon is None else cfg.horizon


@functools.cache
def _schema(spec: type) -> tuple:
    """A spec class's annotations by JSON key (a tagged spec's ``kind`` among them)
    and its fields, resolved once: get_type_hints is slow next to a parse."""
    return get_type_hints(spec), dataclasses.fields(spec)


def _decode(spec: type, doc, path: str):
    """A spec instance from a JSON object: unknown keys and missing required
    fields are rejected, each given value is converted to its annotation."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object, got {shown(doc)}")
    hints, fields = _schema(spec)
    unknown = [key for key in doc if key not in hints]
    if unknown:
        raise ConfigError(f"{path}.{min(unknown, key=str)}: unknown key")
    values = {}
    for f in fields:
        if f.name in doc:
            if doc[f.name] is not None or not f.metadata.get("nullable"):
                values[f.name] = _convert(hints[f.name], doc[f.name], f"{path}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: missing key")
    return spec(**values)


_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _convert(annotation, value, path: str):
    """A JSON value checked and converted to a schema annotation."""
    if annotation is float:
        # a range test, not math.isfinite: it also rejects NaN and JSON
        # integers too large for a float without raising OverflowError
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{path} must be a finite number, got {shown(value)}")
        return float(value)
    if annotation in (int, bool, str):
        # bool is an int in Python but not in the schema
        if not isinstance(value, annotation) or (annotation is int and isinstance(value, bool)):
            raise ConfigError(f"{path} must be {_TYPE_NAMES[annotation]}, got {shown(value)}")
        return value
    if dataclasses.is_dataclass(annotation):
        return _decode(annotation, value, path)
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Literal:
        if value not in args:  # compared, not hashed, so a list is no TypeError
            raise ConfigError(f"{path} must be one of {', '.join(map(repr, args))}, "
                              f"got {shown(value)}")
        return value
    if origin is tuple:
        # tuple[X, ...] is a non-empty list, tuple[X, Y] one of two entries
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not value \
                or not (variadic or len(value) == len(args)):
            size = "non-empty" if variadic else f"{len(args)}-element"
            raise ConfigError(f"{path} must be a {size} list, got {shown(value)}")
        item_types = args[:1] * len(value) if variadic else args
        return tuple(_convert(item_type, item, f"{path}[{i}]")
                     for i, (item_type, item) in enumerate(zip(item_types, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {shown(value)}")
        key_type, value_type = args
        return {_convert(key_type, key, f"{path}.{key}"):
                _convert(value_type, item, f"{path}.{key}") for key, item in value.items()}
    if origin in (Union, UnionType):
        # Optional[X] is X when given; a Union of specs is chosen by "kind"
        specs = tuple(arg for arg in args if arg is not type(None))
        if len(specs) == 1:
            return _convert(specs[0], value, path)
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {shown(value)}")
        kind = value.get("kind")
        for spec in specs:
            if spec.kind == kind:
                return _decode(spec, value, path)
        raise ConfigError(f"{path}.kind: unknown kind {shown(kind)}")
    raise TypeError(f"no config conversion for {annotation!r}")


def _encode(value):
    """The JSON form of a spec value: fields that are not None, tuples as
    lists and ``kind`` for a tagged spec."""
    if dataclasses.is_dataclass(value):
        doc = {"kind": value.kind} if hasattr(value, "kind") else {}
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if item is not None:
                doc[f.name] = _encode(item)
        return doc
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def parse_config(doc: dict, path: str = "$") -> Config:
    """Strictly parse a scenario document; unknown keys are rejected."""
    if isinstance(doc, dict) and isinstance(doc.get("controller"), str):
        doc = {**doc, "controller": [doc["controller"]]}  # "cbf" means ["cbf"]
    cfg = _decode(Config, doc, path)
    plant = cfg.plant

    # checks that span several fields
    if not cfg.name:
        raise ConfigError(f"{path}.name must be a non-empty string")
    preset = cfg.params.preset
    if preset is not None:
        if preset not in PARAM_PRESETS:
            raise ConfigError(f"{path}.params.preset: unknown preset {preset!r}")
        if PARAM_PRESETS[preset] != plant:
            raise ConfigError(f"{path}.params.preset: {preset!r} is a "
                              f"{PARAM_PRESETS[preset]} preset")
    if "issf" in cfg.controller and cfg.issf is None:
        raise ConfigError(f"{path}.issf is required when the issf controller is selected")
    if plant != "truck":
        if cfg.disturbance.kind == "lag_residual":
            raise ConfigError(
                f"{path}.disturbance: lag_residual is synthesized from the truck "
                f"braking command and needs plant = 'truck'"
            )
        if cfg.leader is not None:
            raise ConfigError(f"{path}.leader only applies to the truck plant")
    n_states = len(_PLANTS[plant].x0)
    if cfg.initial_state is not None and len(cfg.initial_state) != n_states:
        raise ConfigError(f"{path}.initial_state must be a {n_states}-element list")
    check_timing(cfg.dt, _horizon(cfg), f"{path}.dt", f"{path}.horizon", ConfigError)
    for name in ("theta_range", "d_range", "vl_range"):  # shown as the document's lists
        check_range(list(getattr(cfg.certify, name)), f"{path}.certify.{name}", ConfigError)
    check_grid(cfg.certify.grid, f"{path}.certify.grid", ConfigError)
    return cfg


def config_to_dict(cfg: Config) -> dict:
    """Serialize a config so parse_config(config_to_dict(cfg)) == cfg."""
    return _encode(cfg)


def resolve_preset(name: str) -> dict:
    if name in SCENARIO_PRESETS:
        return json.loads(json.dumps(SCENARIO_PRESETS[name]))
    if name in PARAM_PRESETS:
        return {"name": name, "plant": PARAM_PRESETS[name], "params": {"preset": name}}
    known = sorted(list(SCENARIO_PRESETS) + list(PARAM_PRESETS))
    raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(known)}")


# ---------------------------------------------------------------------------
# Config -> concrete objects
# ---------------------------------------------------------------------------


def build_params(cfg: Config):
    with _at(f"$.params.overrides: invalid {cfg.plant} parameters", (TypeError, ValueError)):
        return _PLANTS[cfg.plant].params(**cfg.params.overrides)


def _build_leader(cfg: Config, p, v0: float) -> DisturbanceSignal:
    """The leader acceleration of a truck config, for a leader starting at v0."""
    if cfg.leader is None:
        raise ConfigError("truck scenarios need a leader profile")
    spec = cfg.leader
    if spec.kind == "constant":
        return constant_speed_profile(v0, v_bar_l=p.v_bar_l)
    if spec.kind == "hard_brake":
        return hard_brake_profile(v0, spec.t_brake, spec.a_peak, spec.duration,
                                  v_bar_l=p.v_bar_l, a_under_l=p.a_under_l)
    return leader_profile_from_csv(spec.path, v0, v_bar_l=p.v_bar_l,
                                   a_bounds=(-p.a_under_l, p.a_bar_l))


def _issf_design(cfg: Config) -> tuple[Optional[EpsilonFunction], float]:
    """The robust design (eps, delta) of a config's issf section, checked;
    (None, 0.0) without one."""
    if cfg.issf is None:
        return None, 0.0
    with _at("$.issf"):
        epsilon = EpsilonFunction(cfg.issf.eps0, cfg.issf.lam)
        check_delta(cfg.issf.delta)
    return epsilon, cfg.issf.delta


def build_scenarios(cfg: Config):
    """Concrete per-controller scenarios for a simulate config."""
    p = build_params(cfg)
    # checked first: a lag_residual disturbance integrates a reference run
    epsilon, delta = _issf_design(cfg)
    x0 = cfg.initial_state or _PLANTS[cfg.plant].x0
    leader = None
    if cfg.plant == "truck":
        with _at("$.leader"):
            leader = _build_leader(cfg, p, x0[2])
    # the run checks h(x0) >= 0 first; a barrier that overflows there rejects
    # the state, not the run.  The truck's barrier is finite wherever h is,
    # whatever the bounded leader acceleration, so a_L = 0 decides it
    with _at("$.initial_state"):
        barrier = pendulum_barrier(p) if cfg.plant == "pendulum" else truck_barrier(p, 0.0)
        barrier(x0)

    with _at("$.disturbance"):
        if cfg.disturbance.kind == "zero":
            dist = zero_disturbance()
        elif cfg.disturbance.kind == "heaviside_pulse":
            dist = heaviside_pulse(cfg.disturbance.amplitude)
        elif cfg.disturbance.kind == "csv":
            dist = disturbance_from_csv(cfg.disturbance.path)
        else:  # lag_residual: one shared trace for every controller in the config
            dist = truck_lag_disturbance(p, leader, x0, _horizon(cfg), tau=cfg.disturbance.tau)

    # a disturbance or leader that does not cover the run, at its own section
    with _at("$", (SignalTooShortError,)):
        return [Scenario(
            name=f"{cfg.name}-{controller}",
            plant=cfg.plant,
            controller=controller,
            x0=tuple(x0),
            horizon=_horizon(cfg),
            dt=cfg.dt,
            disturbance=dist,
            leader=leader,
            epsilon=epsilon,
            delta=delta,
            **{cfg.plant: p},  # the pendulum or truck params
        ) for controller in cfg.controller]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return "" if value is None else f"{value:.9g}"


# Grid columns per piece of write_margin_csv: a piece is whole grid rows of at
# most this many cells (four 500-column rows), or this many columns of one row.
# A piece's canvas is then about 100 KB: 4096-cell pieces (about 200 KB) wrote
# the 500 x 500 CSV about 12 % slower on a 2-CPU Xeon.
_MARGIN_BLOCK_COLUMNS = 2048


def write_margin_csv(path, d_axis, vl_axis, v_axis, blocks) -> None:
    """The rows (D[i], v_L[j], v[j], margin[i, j]), row-major, in sim.write_csv_table's bytes,
    from a scan of verification.truck_margin_table: ``blocks`` yields (i, margin rows
    i, i + 1, ...) in order, and each block's rows are written as it comes.  Each
    "v_L,v," tail is formatted once, each "D," once per block, both with b"%.9g"
    into NUL-padded byte arrays, and they go in front of the margins of each piece of
    at most ``_MARGIN_BLOCK_COLUMNS`` cells as sim._csv_text's row prefix."""
    step, ny = _MARGIN_BLOCK_COLUMNS, len(vl_axis)
    tails, width = np.empty(ny, "S34"), 0  # "-1.23456789e-100," twice is 34 bytes
    for j in range(0, ny, step):
        texts = [b"%.9g,%.9g," % pair for pair in zip(vl_axis[j:j + step].tolist(),
                                                      v_axis[j:j + step].tolist())]
        tails[j:j + step] = texts
        width = max(width, max(map(len, texts)))
    tails = tails.view(np.uint8).reshape(ny, 34)[:, :width]
    rows = max(1, step // ny)
    with open(path, "wb") as handle:
        handle.write(b"D,v_L,v,margin\n")
        for i, block in blocks:
            leads = np.array([b"%.9g," % d for d in d_axis[i:i + len(block)].tolist()])
            leads = leads.view(np.uint8).reshape(len(block), -1)
            lead = leads.shape[1]
            for r in range(0, len(block), rows):
                for j in range(0, ny, step):
                    margins = block[r:r + rows, j:j + step]
                    prefix = np.empty(margins.shape + (lead + width,), np.uint8)
                    prefix[:, :, :lead] = leads[r:r + rows, None]
                    prefix[:, :, lead:] = tails[j:j + step]
                    handle.write(_csv_text(margins.reshape(-1, 1),
                                           prefix.reshape(margins.size, -1)))


def cmd_certify(cfg: Config, out_dir: Path) -> int:
    p = build_params(cfg)
    spec = cfg.certify
    scan = {"d_range": spec.d_range, "vl_range": spec.vl_range, "grid": spec.grid,
            "a_l_bounds": spec.a_l_bounds}
    with _at("$.certify"):
        if cfg.plant == "pendulum":
            report = certify_pendulum(p.a, p.b, p.alpha_c, spec.theta_range, spec.cross_term)
        else:
            report = certify_truck_grid(p, **scan)
    if cfg.plant == "truck":
        # the report keeps no grid: the CSV comes from a second scan, which
        # repeats the first one's operations and so its margins, bit for bit
        write_margin_csv(out_dir / f"{cfg.name}_margins.csv", *truck_margin_table(p, **scan))
    with open(out_dir / f"{cfg.name}_certify.json", "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
    status = "passed" if report.passed else "FAILED"
    where = " on grid" if cfg.plant == "truck" else ""  # the pendulum margin is exact
    print(f"certify {cfg.name}: {status}{where}, min margin {report.min_margin:.9g} "
          f"at {report.witness}")
    return 0 if report.passed else 1


def cmd_hstar(cfg: Config, out_dir: Path) -> int:
    if cfg.issf is None:
        raise ConfigError("hstar needs an 'issf' section (eps0, lam, delta)")
    p = build_params(cfg)
    epsilon, delta = _issf_design(cfg)
    h_star = solve_h_star(linear_class_kappa(p.alpha_c), epsilon, delta)
    print(f"h_star = {h_star:.9g}  (eps0={epsilon.eps0:g}, lam={epsilon.lam:g}, "
          f"delta={delta:g}, alpha_c={p.alpha_c:g})")
    with open(out_dir / f"{cfg.name}_hstar.csv", "w", newline="") as handle:
        handle.write("eps0,lambda,delta,alpha_c,h_star\n")
        handle.write(",".join(map(_fmt, (epsilon.eps0, epsilon.lam, delta, p.alpha_c, h_star)))
                     + "\n")
    return 0


def cmd_sweep(cfg: Config, out_dir: Path) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep needs a 'sweep' section (eps0_grid, lambda_grid)")
    if cfg.issf is None:
        raise ConfigError("sweep needs an 'issf' section for delta")
    p = build_params(cfg)
    alpha = linear_class_kappa(p.alpha_c)
    _, delta = _issf_design(cfg)
    out_path = out_dir / f"{cfg.name}.csv"
    failures = 0
    with open(out_path, "w", newline="") as handle:
        handle.write("eps0,lambda,h_star,status\n")
        # each axis value is formatted once: lambda per sweep, eps0 per grid row
        lams = [(lam, f"{lam:.9g},") for lam in cfg.sweep.lambda_grid]
        for eps0 in cfg.sweep.eps0_grid:
            lead = f"{eps0:.9g},"
            for lam, lam_text in lams:
                try:
                    h_star = solve_h_star(alpha, EpsilonFunction(eps0, lam), delta)
                    handle.write(f"{lead}{lam_text}{h_star:.9g},ok\n")
                except ValueError as err:
                    failures += 1
                    handle.write(f"{lead}{lam_text}nan,error: {err}\n")
    n_rows = len(cfg.sweep.eps0_grid) * len(cfg.sweep.lambda_grid)
    print(f"sweep {cfg.name}: {n_rows} rows -> {out_path}"
          + (f" ({failures} rows rejected)" if failures else ""))
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


def _summary_row(result, p, log_path: Path) -> tuple[str, str]:
    """A run's summary CSV row and its printed line."""
    shift = None
    if result.plant == "truck":
        # the leader starts at the initial leader speed
        try:
            shift = steady_state_shift(result, p, float(result.states[0, 2]))
        except SteadyStateWindowError:
            shift = None
    clamps = sum(result.clamp_counts.values())
    row = ",".join([result.name, result.controller, _fmt(result.h_min),
                    _fmt(result.h_star), _fmt(shift), str(clamps)]) + "\n"
    star = "" if result.h_star is None else f"  h*={result.h_star:.9g}"
    return row, f"simulate {result.name}: h_min={result.h_min:.9g}{star}  -> {log_path}"


def cmd_simulate(cfg: Config, out_dir: Path) -> int:
    scenarios = build_scenarios(cfg)
    summary = []
    for scn in scenarios:
        try:
            result = run_scenario(scn)
        except SimulationError as err:
            _flush_partial(err, out_dir, scn.name)
            print(f"simulate {scn.name}: FAILED ({err})", file=sys.stderr)
            return 3
        path = out_dir / f"{scn.name}.csv"
        result.to_csv(path)
        summary.append(_summary_row(result, scn.truck, path))
        del result  # one log alive at a time: the summary keeps its numbers

    summary_path = out_dir / f"{cfg.name}_summary.csv"
    with open(summary_path, "w", newline="") as handle:
        handle.write("scenario,controller,h_min,h_star,steady_state_shift,clamp_events\n")
        for row, line in summary:
            handle.write(row)
            print(line)
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
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        # a ValueError is a JSONDecodeError, a bad encoding or a too-long integer
        with _at("cannot read config", OSError), _at("config is not valid JSON", ValueError), \
                open(args.config) as handle:
            doc = json.load(handle)
    elif args.preset:
        doc = resolve_preset(args.preset)
    else:
        raise ConfigError("one of --config or --preset is required")
    cfg = parse_config(doc)
    if args.dt is not None or args.horizon is not None:
        cfg = dataclasses.replace(
            cfg, dt=cfg.dt if args.dt is None else args.dt,
            horizon=cfg.horizon if args.horizon is None else args.horizon)
        check_timing(cfg.dt, _horizon(cfg), "$.dt" if args.dt is None else "--dt",
                     "$.horizon" if args.horizon is None else "--horizon", ConfigError)
    if getattr(args, "no_cross_term", False):  # a certify flag
        cfg = dataclasses.replace(cfg, certify=dataclasses.replace(cfg.certify, cross_term=False))
    return cfg if args.out is None else dataclasses.replace(cfg, out_dir=args.out)


@functools.cache
def _parser() -> _Parser:
    """The command line's parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
        command = {"certify": cmd_certify, "hstar": cmd_hstar, "simulate": cmd_simulate,
                   "sweep": cmd_sweep}[args.command]
        return command(cfg, out_dir)
    except ConfigError as err:
        print(f"safefilter: config error: {err}", file=sys.stderr)
        return 2
    except (SimulationError, SignalDomainError) as err:
        print(f"safefilter: runtime failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
