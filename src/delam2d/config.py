"""Run configuration: JSON schema, validation, defaults, and hashing.

A configuration document has sections geometry, material, adhesive,
loading, and time (required), plus solver and outputs (optional).
Parsing applies documented defaults, records which ones fired, checks
every invariant, and reports all problems at once with paths like
``material.nu``.  The canonical echo (defaults filled in, keys sorted)
is hashed so output files can state exactly what produced them.  Both
the echo and the typed section dataclasses are built from the checked
values by the table, with no per-field code.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ConfigError",
    "GeometryConfig",
    "MaterialConfig",
    "AdhesiveConfig",
    "LoadingConfig",
    "TimeConfig",
    "SolverConfig",
    "OutputConfig",
    "SimulationConfig",
    "parse_config",
    "load_config",
    "config_hash",
]


class ConfigError(ValueError):
    """Invalid configuration; .problems lists one message per offense."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class GeometryConfig:
    L: float
    H: float
    n_interface: int
    glued_fraction: float
    glued_from: str
    foundation: str


@dataclass(frozen=True)
class MaterialConfig:
    E: float
    nu: float
    chi: float


@dataclass(frozen=True)
class AdhesiveConfig:
    kappa_n: float
    kappa_t: float
    a_I: float
    mode_sensitivity: float  # JSON key "lambda"
    eps_reg: float


@dataclass(frozen=True)
class LoadingConfig:
    speed: float
    direction: tuple[float, float]
    normalize_direction: bool

    def unit_direction(self) -> tuple[float, float]:
        dx, dy = self.direction
        if not self.normalize_direction:
            return dx, dy
        norm = math.hypot(dx, dy)
        return dx / norm, dy / norm


@dataclass(frozen=True)
class TimeConfig:
    T: float
    tau: float
    stop_after_full_debond: float | None


@dataclass(frozen=True)
class SolverConfig:
    qp_tol: float
    qp_max_iter: int | None
    energy_tol_factor: float
    seed: int


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    snapshot_times: tuple[float, ...] | None


@dataclass(frozen=True)
class SimulationConfig:
    geometry: GeometryConfig
    material: MaterialConfig
    adhesive: AdhesiveConfig
    loading: LoadingConfig
    time: TimeConfig
    solver: SolverConfig
    outputs: OutputConfig
    chi_sweep: tuple[float, ...] | None
    defaults_applied: tuple[str, ...]
    canonical: dict = field(repr=False)


_SCHEMA: dict[str, dict[str, tuple]] = {
    # section -> key -> (required, default, kind); the one home of each
    # setting.  A section whose keys all have defaults may be left out.
    "geometry": {
        "L": (True, None, "number"),
        "H": (False, "L/10", "number"),
        "n_interface": (True, None, "int"),
        "glued_fraction": (False, 0.9, "number"),
        "glued_from": (False, "left", "str"),
        "foundation": (False, "rigid", "str"),
    },
    "material": {
        "E": (True, None, "number"),
        "nu": (True, None, "number"),
        "chi": (True, None, "number_or_list"),
    },
    "adhesive": {
        "kappa_n": (True, None, "number"),
        "kappa_t": (True, None, "number"),
        "a_I": (True, None, "number"),
        "lambda": (True, None, "number"),
        "eps_reg": (False, 0.0, "number"),
    },
    "loading": {
        "speed": (True, None, "number"),
        "direction": (True, None, "vec2"),
        "normalize_direction": (False, True, "bool"),
    },
    "time": {
        "T": (True, None, "number"),
        "tau": (True, None, "number"),
        "stop_after_full_debond": (False, None, "number_or_null"),
    },
    "solver": {
        "qp_tol": (False, 1e-10, "number"),
        "qp_max_iter": (False, None, "int_or_null"),
        "energy_tol_factor": (False, 1e-8, "number"),
        "seed": (False, 0, "int"),
    },
    "outputs": {
        "directory": (False, "results", "str"),
        "snapshot_times": (False, None, "list_or_null"),
    },
}

# section -> its dataclass, as SimulationConfig declares it
_SECTION_TYPES = typing.get_type_hints(SimulationConfig)

# JSON keys whose dataclass field has another name
_FIELD_NAMES = {"lambda": "mode_sensitivity"}


def _check_kind(value, kind: str) -> bool:
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "str":
        return isinstance(value, str)
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "vec2":
        return (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and all(_check_kind(v, "number") for v in value)
        )
    if kind == "number_or_null":
        return value is None or _check_kind(value, "number")
    if kind == "int_or_null":
        return value is None or _check_kind(value, "int")
    if kind == "number_or_list":
        return _check_kind(value, "number") or (
            isinstance(value, list)
            and len(value) >= 1
            and all(_check_kind(v, "number") for v in value)
        )
    if kind == "list_or_null":
        return value is None or (
            isinstance(value, list) and all(_check_kind(v, "number") for v in value)
        )
    raise AssertionError(kind)


def _cast(value, kind: str):
    """The typed field value of a checked setting; a chi list gives its first member."""
    if value is None or kind in ("str", "bool", "int_or_null"):
        return value
    if kind == "int":
        return int(value)
    if kind in ("vec2", "list_or_null"):
        return tuple(float(v) for v in value)
    if isinstance(value, list):
        value = value[0]
    return float(value)


def parse_config(doc: dict) -> SimulationConfig:
    """Validate a configuration document and fill in defaults.

    Raises ConfigError carrying every problem found: missing keys,
    unknown keys, wrong types, and invariant violations, each tagged
    with the dotted path of the offending field.
    """
    problems: list[str] = []
    defaults: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    for key in doc:
        if key not in _SCHEMA:
            problems.append(f"{key}: unknown section")
    values: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        raw = doc.get(section)
        if raw is None:
            if not any(required for required, _, _ in keys.values()):
                raw = {}
                defaults.append(section)
            else:
                problems.append(f"{section}: missing required section")
                continue
        if not isinstance(raw, dict):
            problems.append(f"{section}: expected an object")
            continue
        out = {}
        for key, value in raw.items():
            if key not in keys:
                problems.append(f"{section}.{key}: unknown key")
        for key, (required, default, kind) in keys.items():
            if key in raw:
                if _check_kind(raw[key], kind):
                    out[key] = raw[key]
                else:
                    problems.append(
                        f"{section}.{key}: expected {kind}, got {raw[key]!r}"
                    )
            elif required:
                problems.append(f"{section}.{key}: missing required key")
            else:
                out[key] = default
                defaults.append(f"{section}.{key}")
        values[section] = out
    if problems:
        raise ConfigError(problems)

    geo, mat, adh, load, tim, sol, outp = values.values()  # in _SCHEMA order

    if geo["H"] == "L/10":
        geo["H"] = geo["L"] / 10.0

    def bad(path: str, msg: str) -> None:
        problems.append(f"{path}: {msg}")

    if not geo["L"] > 0:
        bad("geometry.L", f"must be positive, got {geo['L']}")
    if not geo["H"] > 0:
        bad("geometry.H", f"must be positive, got {geo['H']}")
    if geo["n_interface"] < 1:
        bad("geometry.n_interface", f"must be >= 1, got {geo['n_interface']}")
    if not 0.0 < geo["glued_fraction"] <= 1.0:
        bad("geometry.glued_fraction", f"must lie in (0, 1], got {geo['glued_fraction']}")
    if geo["glued_from"] not in ("left", "right"):
        bad("geometry.glued_from", f"must be 'left' or 'right', got {geo['glued_from']!r}")
    if geo["foundation"] not in ("rigid", "two_body"):
        bad("geometry.foundation", f"must be 'rigid' or 'two_body', got {geo['foundation']!r}")

    if not mat["E"] > 0:
        bad("material.E", f"must be positive, got {mat['E']}")
    if not -1.0 < mat["nu"] < 0.5:
        bad("material.nu", f"must lie in (-1, 0.5), got {mat['nu']}")
    chis = mat["chi"] if isinstance(mat["chi"], list) else [mat["chi"]]
    for i, chi in enumerate(chis):
        if chi < 0:
            path = f"material.chi[{i}]" if isinstance(mat["chi"], list) else "material.chi"
            bad(path, f"must be nonnegative, got {chi}")

    if not adh["kappa_n"] > 0:
        bad("adhesive.kappa_n", f"must be positive, got {adh['kappa_n']}")
    if adh["kappa_t"] < 0:
        bad("adhesive.kappa_t", f"must be nonnegative, got {adh['kappa_t']}")
    if not adh["a_I"] > 0:
        bad("adhesive.a_I", f"must be positive, got {adh['a_I']}")
    if not 0.0 <= adh["lambda"] < 1.0:
        bad("adhesive.lambda", f"must lie in [0, 1), got {adh['lambda']}")
    if adh["eps_reg"] < 0:
        bad("adhesive.eps_reg", f"must be nonnegative, got {adh['eps_reg']}")

    if load["speed"] < 0:
        bad("loading.speed", f"must be nonnegative, got {load['speed']}")
    if load["normalize_direction"] and math.hypot(*load["direction"]) == 0.0:
        bad("loading.direction", "cannot normalize the zero vector")

    if tim["T"] < 0:
        bad("time.T", f"must be nonnegative, got {tim['T']}")
    if not tim["tau"] > 0:
        bad("time.tau", f"must be positive, got {tim['tau']}")
    if tim["stop_after_full_debond"] is not None and tim["stop_after_full_debond"] < 0:
        bad("time.stop_after_full_debond", "must be nonnegative when set")

    if not 0 < sol["qp_tol"] < 1e-2:
        bad("solver.qp_tol", f"must lie in (0, 1e-2), got {sol['qp_tol']}")
    if sol["qp_max_iter"] is not None and sol["qp_max_iter"] < 1:
        bad("solver.qp_max_iter", "must be >= 1 when set")
    if not sol["energy_tol_factor"] > 0:
        bad("solver.energy_tol_factor", "must be positive")
    if sol["seed"] < 0:
        bad("solver.seed", "must be nonnegative")
    if outp["snapshot_times"] is not None:
        for i, s in enumerate(outp["snapshot_times"]):
            if s < 0:
                bad(f"outputs.snapshot_times[{i}]", "must be nonnegative")
    if problems:
        raise ConfigError(problems)

    chi_sweep = tuple(float(c) for c in mat["chi"]) if isinstance(mat["chi"], list) else None
    canonical = {
        section: {k: list(v) if isinstance(v, (list, tuple)) else v for k, v in sorted(out.items())}
        for section, out in values.items()
    }
    typed = {
        section: _SECTION_TYPES[section](
            **{_FIELD_NAMES.get(k, k): _cast(v, _SCHEMA[section][k][2]) for k, v in out.items()}
        )
        for section, out in values.items()
    }
    return SimulationConfig(
        **typed,
        chi_sweep=chi_sweep,
        defaults_applied=tuple(defaults),
        canonical=canonical,
    )


def load_config(path) -> SimulationConfig:
    """Parse a configuration from a JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError([f"{path}: cannot read ({err})"]) from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"{path}: not valid JSON ({err})"]) from err
    return parse_config(doc)


def config_hash(config: SimulationConfig) -> str:
    """Stable hash of the canonical (defaults-filled) configuration."""
    blob = json.dumps(config.canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
