"""Run configuration: JSON schema, validation, defaults, and hashing.

A configuration document has sections geometry, material, adhesive,
loading, and time (required), plus outputs (optional).
Each setting is declared once, as a row of the schema table: whether it
is required, its default, its kind and the rule its values must keep.
Parsing applies the defaults, records which ones fired, checks every
value against its kind (a number must be a double, held exactly) and
its rule, and reports all problems at once with paths like
``material.nu``.  The
canonical echo (defaults filled in, keys sorted) is hashed so output
files can state exactly what produced them.  The echo, the checks and
the typed section dataclasses themselves all come from the table, with
no per-field code.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path

__all__ = [
    "ConfigError",
    "GeometryConfig",
    "MaterialConfig",
    "AdhesiveConfig",
    "LoadingConfig",
    "TimeConfig",
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
class SimulationConfig:
    geometry: GeometryConfig
    material: MaterialConfig
    adhesive: AdhesiveConfig
    loading: LoadingConfig
    time: TimeConfig
    outputs: OutputConfig
    chi_sweep: tuple[float, ...] | None
    defaults_applied: tuple[str, ...]
    canonical: dict = field(repr=False)


_SCHEMA: dict[str, dict[str, tuple]] = {
    # section -> key -> (required, default, kind, rule); the one home of each
    # setting.  A rule is an interval, written with open or closed ends, that
    # every number of the setting must lie in, or the tuple of allowed strings.
    # A section whose keys all have defaults may be left out.
    "geometry": {
        "L": (True, None, "number", "(0, inf)"),
        "H": (False, "L/10", "number", "(0, inf)"),
        "n_interface": (True, None, "int", "[1, inf)"),
        "glued_fraction": (False, 0.9, "number", "(0, 1]"),
        "glued_from": (False, "left", "str", ("left", "right")),
        "foundation": (False, "rigid", "str", ("rigid", "two_body")),
    },
    "material": {
        "E": (True, None, "number", "(0, inf)"),
        "nu": (True, None, "number", "(-1, 0.5)"),
        "chi": (True, None, "number_or_list", "[0, inf)"),
    },
    "adhesive": {
        "kappa_n": (True, None, "number", "(0, inf)"),
        "kappa_t": (True, None, "number", "[0, inf)"),
        "a_I": (True, None, "number", "(0, inf)"),
        "lambda": (True, None, "number", "[0, 1)"),
        "eps_reg": (False, 0.0, "number", "[0, inf)"),
    },
    "loading": {
        "speed": (True, None, "number", "[0, inf)"),
        "direction": (True, None, "vec2", None),  # of finite nonzero length when normalized
        "normalize_direction": (False, True, "bool", None),
    },
    "time": {
        "T": (True, None, "number", "[0, inf)"),
        "tau": (True, None, "number", "(0, inf)"),
        "stop_after_full_debond": (False, None, "number_or_null", "[0, inf)"),
    },
    "outputs": {
        "directory": (False, "results", "str", None),
        "snapshot_times": (False, None, "list_or_null", "[0, inf)"),
    },
}

# JSON keys whose dataclass field has another name
_FIELD_NAMES = {"lambda": "mode_sensitivity"}


def _number(v) -> bool:
    """A JSON number that a double holds exactly: finite, and not a bool.
    An integer the nearest double would round (2**53 + 1) is refused, so
    the echo and the hash state the value the run uses."""
    if isinstance(v, float):
        return abs(v) <= sys.float_info.max
    return _int(v) and abs(v) <= sys.float_info.max and float(v) == v


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


def _floats(v) -> tuple[float, ...]:
    return tuple(map(float, v))


# kind -> (field type, accepts a JSON value, the field value of an accepted
# one other than null, which stays None); a chi list gives its first member
_KINDS = {
    "number": ("float", _number, float),
    "int": ("int", _int, int),
    "str": ("str", lambda v: isinstance(v, str), str),
    "bool": ("bool", lambda v: isinstance(v, bool), bool),
    "vec2": (
        "tuple[float, float]",
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and _numbers(list(v)),
        _floats,
    ),
    "number_or_null": ("float | None", lambda v: v is None or _number(v), float),
    "number_or_list": (
        "float",
        lambda v: _number(v) or (_numbers(v) and len(v) > 0),
        lambda v: float(v[0] if isinstance(v, list) else v),
    ),
    "list_or_null": ("tuple[float, ...] | None", lambda v: v is None or _numbers(v), _floats),
}


def _breach(rule, value) -> str | None:
    """Why a well-typed value breaks its setting's rule, or None if it keeps it."""
    if isinstance(rule, tuple):  # the allowed strings
        return None if value in rule else f"must be {' or '.join(map(repr, rule))}, got {value!r}"
    low, high = rule[1:-1].split(", ")
    above = float(low) < value or (rule[0] == "[" and float(low) == value)
    below = value < float(high) or (rule[-1] == "]" and float(high) == value)
    if above and below:
        return None
    if rule in ("(0, inf)", "[0, inf)"):
        phrase = "be positive" if rule[0] == "(" else "be nonnegative"
    elif rule == f"[{low}, inf)":
        phrase = f"be >= {low}"
    else:
        phrase = f"lie in {rule}"
    return f"must {phrase}, got {value}"


def _unit_direction(self) -> tuple[float, float]:
    dx, dy = self.direction
    if not self.normalize_direction:
        return dx, dy
    norm = math.hypot(dx, dy)
    return dx / norm, dy / norm


def _section_class(section: str) -> type:
    """The frozen dataclass of a section, with one field per _SCHEMA row, in
    order, named as SimulationConfig's annotation of the section."""
    rows = _SCHEMA[section].items()
    cls = make_dataclass(
        SimulationConfig.__annotations__[section],
        [(_FIELD_NAMES.get(key, key), _KINDS[row[2]][0]) for key, row in rows],
        namespace={"unit_direction": _unit_direction} if section == "loading" else {},
        frozen=True,
    )
    cls.__module__ = __name__  # so that a parsed configuration pickles
    return cls


_SECTION_TYPES = tuple(map(_section_class, _SCHEMA))
(
    GeometryConfig,
    MaterialConfig,
    AdhesiveConfig,
    LoadingConfig,
    TimeConfig,
    OutputConfig,
) = _SECTION_TYPES


def parse_config(doc: dict) -> SimulationConfig:
    """Validate a configuration document and fill in defaults.

    Raises ConfigError carrying every problem found: missing keys,
    unknown keys, wrong types, and values outside their rule, each tagged
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
            if not any(row[0] for row in keys.values()):
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
        for key, (required, default, kind, _) in keys.items():
            if key in raw:
                if _KINDS[kind][1](raw[key]):
                    out[key] = raw[key]
                else:
                    problems.append(f"{section}.{key}: expected {kind}, got {raw[key]!r}")
            elif required:
                problems.append(f"{section}.{key}: missing required key")
            else:
                out[key] = default
                defaults.append(f"{section}.{key}")
        values[section] = out
    if problems:
        raise ConfigError(problems)

    geometry, loading = values["geometry"], values["loading"]
    if geometry["H"] == "L/10":
        geometry["H"] = geometry["L"] / 10.0
    for section, out in values.items():
        for key, value in out.items():
            rule = _SCHEMA[section][key][3]
            if rule is None or value is None:
                continue
            path = f"{section}.{key}"
            if isinstance(value, list):  # each member under its own path
                members = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
            else:
                members = [(path, value)]
            for path, member in members:
                breach = _breach(rule, member)
                if breach is not None:
                    problems.append(f"{path}: {breach}")
    if loading["normalize_direction"]:
        length = math.hypot(*loading["direction"])
        if not 0.0 < length < math.inf:  # x / 0 or x / inf: no drive
            problems.append(f"loading.direction: cannot normalize a vector of length {length}")
    elif not math.isfinite(loading["speed"] * max(map(abs, loading["direction"]))):
        rate = f"{loading['speed']} * {list(loading['direction'])}"
        problems.append(f"loading.speed: the drive rate must be finite, got {rate}")
    # the run and its snapshots round t / tau to a step index, an int
    tau, snapshots = values["time"]["tau"], values["outputs"]["snapshot_times"] or ()
    instants = [("time.T", values["time"]["T"])]
    instants += [(f"outputs.snapshot_times[{i}]", t) for i, t in enumerate(snapshots)]
    for path, t in instants:
        if tau > 0.0 and t / tau == math.inf:
            problems.append(f"{path}: must be a finite number of steps, got {t} / {tau} = inf")
    if problems:
        raise ConfigError(problems)

    chi = values["material"]["chi"]
    canonical = {
        section: {k: list(v) if isinstance(v, (list, tuple)) else v for k, v in sorted(out.items())}
        for section, out in values.items()
    }
    typed = {}
    for cls, (section, out) in zip(_SECTION_TYPES, values.items()):
        casts = {k: _KINDS[row[2]][2] for k, row in _SCHEMA[section].items()}
        typed[section] = cls(
            **{_FIELD_NAMES.get(k, k): v if v is None else casts[k](v) for k, v in out.items()}
        )
    return SimulationConfig(
        **typed,
        chi_sweep=_floats(chi) if isinstance(chi, list) else None,
        defaults_applied=tuple(defaults),
        canonical=canonical,
    )


def load_config(path) -> SimulationConfig:
    """Parse a configuration from a JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError([f"{path}: cannot read ({err})"]) from err
    except UnicodeDecodeError as err:
        raise ConfigError([f"{path}: not UTF-8 text ({err})"]) from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"{path}: not valid JSON ({err})"]) from err
    return parse_config(doc)


def config_hash(config: SimulationConfig) -> str:
    """Stable hash of the canonical (defaults-filled) configuration."""
    blob = json.dumps(config.canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
