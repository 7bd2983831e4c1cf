"""Configuration parsing, result directories, refinement ladder, and CLI.

Output files are asserted against their documented formats (config-hash
header line, exact column order, repr-formatted floats) so a change in
the on-disk contract shows up here rather than in downstream scripts.
"""

import dataclasses
import io
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import types
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, force_bond_increase, force_nan_drive, force_qp_budget, make_doc

import delam2d
from delam2d import cli, stepper
from delam2d import (
    ConfigError,
    HarnessError,
    config_hash,
    load_config,
    mixity_histogram,
    momentum_residual,
    parse_config,
    run_chi_sweep,
    run_convergence,
    run_single,
)
from delam2d.cli import main
from delam2d.config import _FIELD_NAMES, _KINDS, _SCHEMA, SimulationConfig
from delam2d.harness import (
    CURVE_SET,
    _curve_distance,
    _level_config,
    _SnapshotWriter,
    _write_table,
    build_simulation,
)
from delam2d.mesh import _bottom_cell_counts
from delam2d.qp import QpNonconvergenceError
from delam2d.stepper import State
from references import ledger_scale

# Pull-off run on a 6x1-cell bar: 10 steps, well under a second.
TINY = {"geometry": {"n_interface": 5}, "time": {"T": 0.5, "tau": 0.05}}


def tiny_doc(**overrides):
    merged = {k: dict(v) for k, v in TINY.items()}
    for section, fields in overrides.items():
        merged.setdefault(section, {}).update(fields)
    return make_doc(**merged)


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_last_state_snapshot(out, k, t):
    """The only snapshot of a run that died at step k + 1 or at k's check is step k's,
    written for the instants the run never reached, and it parses."""
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [f"snapshot_{k:05d}.csv"]
    lines = (out / "snapshots" / f"snapshot_{k:05d}.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == f"# t={t!r}"
    at = lines.index("interface")
    for row in lines[4:at] + lines[at + 2 :]:
        [float(v) for v in row.split(",")]


def read_csv(path):
    """Split a result CSV into (hash, column names, string rows)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config_hash=")
    digest = lines[0].split("=", 1)[1]
    return digest, lines[1].split(","), [ln.split(",") for ln in lines[2:]]


class TestParseConfig:
    def test_empty_doc_lists_every_required_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config({})
        for section in ("geometry", "material", "adhesive", "loading", "time"):
            assert f"{section}: missing required section" in err.value.problems
        # optional sections are defaulted, not demanded
        assert not any(p.startswith("outputs") for p in err.value.problems)

    def test_error_message_format(self):
        with pytest.raises(ConfigError) as err:
            parse_config({})
        text = str(err.value)
        assert text.startswith("invalid configuration:\n  ")
        for problem in err.value.problems:
            assert f"\n  {problem}" in "\n  " + text.split(":\n  ", 1)[1]

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError) as err:
            parse_config([1, 2, 3])
        assert err.value.problems == ["top level: expected a JSON object"]

    def test_unknown_section_and_key(self):
        doc = make_doc(geometry={"bogus": 1})
        doc["extra"] = {}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "extra: unknown section" in err.value.problems
        assert "geometry.bogus: unknown key" in err.value.problems

    def test_wrong_type_reports_path_and_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config(make_doc(geometry={"L": "wide"}))
        assert any(p.startswith("geometry.L: expected number") for p in err.value.problems)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config(make_doc(material={"E": True}))
        assert any(p.startswith("material.E:") for p in err.value.problems)

    def test_missing_required_key(self):
        doc = make_doc()
        del doc["adhesive"]["a_I"]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "adhesive.a_I: missing required key" in err.value.problems

    @pytest.mark.parametrize(
        "path,overrides",
        [
            ("material.nu", {"material": {"nu": 0.5}}),
            ("geometry.L", {"geometry": {"L": -1.0}}),
            ("geometry.glued_fraction", {"geometry": {"glued_fraction": 0.0}}),
            ("geometry.glued_from", {"geometry": {"glued_from": "middle"}}),
            ("adhesive.kappa_n", {"adhesive": {"kappa_n": 0.0}}),
            ("adhesive.lambda", {"adhesive": {"lambda": 1.0}}),
            ("adhesive.eps_reg", {"adhesive": {"eps_reg": -1.0}}),
            ("loading.speed", {"loading": {"speed": -3e-4}}),
            ("loading.direction", {"loading": {"direction": [0.0, 0.0]}}),
            ("time.tau", {"time": {"tau": 0.0}}),
            ("time.T", {"time": {"T": -1.0}}),
        ],
    )
    def test_value_problems_carry_dotted_paths(self, path, overrides):
        with pytest.raises(ConfigError) as err:
            parse_config(make_doc(**overrides))
        assert any(p.startswith(path + ":") for p in err.value.problems)

    def test_all_value_problems_collected_at_once(self):
        doc = make_doc(
            material={"nu": 0.5},
            time={"tau": 0.0},
            adhesive={"lambda": 1.0},
            geometry={"glued_fraction": 0.0},
        )
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        prefixes = {p.split(":", 1)[0] for p in err.value.problems}
        assert {
            "material.nu",
            "time.tau",
            "adhesive.lambda",
            "geometry.glued_fraction",
        } <= prefixes

    def test_defaults_recorded(self):
        config = parse_config(make_doc())
        applied = set(config.defaults_applied)
        assert {"outputs", "geometry.glued_fraction", "adhesive.eps_reg"} <= applied
        assert "material.E" not in applied
        assert config.outputs.directory == "results"
        assert config.outputs.snapshot_times is None

    def test_defaults_applied_in_schema_order(self):
        assert parse_config(make_doc()).defaults_applied == (
            "geometry.glued_fraction",
            "geometry.glued_from",
            "geometry.foundation",
            "adhesive.eps_reg",
            "loading.normalize_direction",
            "time.stop_after_full_debond",
            "outputs",
            "outputs.directory",
            "outputs.snapshot_times",
        )

    def test_height_defaults_to_tenth_of_length(self):
        doc = make_doc()
        del doc["geometry"]["H"]
        config = parse_config(doc)
        assert config.geometry.H == doc["geometry"]["L"] / 10.0
        assert "geometry.H" in config.defaults_applied
        assert "geometry.H" not in parse_config(make_doc()).defaults_applied

    def test_chi_list_becomes_sweep(self):
        config = parse_config(make_doc(material={"chi": [1e-3, 1e-2]}))
        assert config.chi_sweep == (1e-3, 1e-2)
        assert config.material.chi == 1e-3
        assert parse_config(make_doc()).chi_sweep is None

    @pytest.mark.parametrize("solver", [{}, {"seed": 0}, {"qp_tol": 1e-10}])
    def test_solver_is_an_unknown_section(self, solver):
        # the step's QP tolerance and budget are the stepper's, not settings
        with pytest.raises(ConfigError) as err:
            parse_config(make_doc(solver=solver))
        assert err.value.problems == ["solver: unknown section"]

    @pytest.mark.parametrize(
        "overrides,problem",
        [
            (
                {"time": {"T": 1e300, "tau": 1e-10}},
                "time.T: must be a finite number of steps, got 1e+300 / 1e-10 = inf",
            ),
            (
                {"outputs": {"snapshot_times": [0.5, 1e300]}, "time": {"tau": 1e-10}},
                "outputs.snapshot_times[1]: "
                "must be a finite number of steps, got 1e+300 / 1e-10 = inf",
            ),
        ],
    )
    def test_step_count_must_be_finite(self, overrides, problem):
        # round(t / tau) of an infinite ratio cannot give a step index
        with pytest.raises(ConfigError) as err:
            parse_config(make_doc(**overrides))
        assert err.value.problems == [problem]

    @pytest.mark.parametrize(
        "direction,length", [([0.0, -0.0], "0.0"), ([1.5e308, 1.5e308], "inf")]
    )
    def test_direction_without_finite_nonzero_length_rejected(self, direction, length):
        # x / 0, or x / inf where hypot overflows though each member is finite:
        # either would leave no drive
        doc = make_doc(loading={"direction": direction})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.problems == [
            f"loading.direction: cannot normalize a vector of length {length}"
        ]
        doc["loading"]["normalize_direction"] = False
        assert parse_config(doc).loading.unit_direction() == tuple(direction)

    def test_drive_rate_must_be_finite(self):
        # an unnormalized direction is used as given, so speed times it may
        # overflow, and the drive at t = 0 would be inf * 0 = NaN
        doc = make_doc(
            loading={"speed": 1e300, "direction": [1e300, 1.0], "normalize_direction": False}
        )
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.problems == [
            "loading.speed: the drive rate must be finite, got 1e+300 * [1e+300, 1.0]"
        ]
        doc["loading"]["normalize_direction"] = True
        assert parse_config(doc).loading.unit_direction() == (1.0, 1e-300)

    def test_chi_empty_list_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(make_doc(material={"chi": []}))
        assert any(p.startswith("material.chi:") for p in err.value.problems)

    def test_direction_is_normalized_by_default(self):
        config = parse_config(make_doc())
        ux, uy = config.loading.unit_direction()
        assert math.hypot(ux, uy) == pytest.approx(1.0, rel=1e-15)
        assert ux / uy == pytest.approx(1.0 / 0.6, rel=1e-15)
        wide = parse_config(make_doc(loading={"direction": [1.5e308, 0.0]}))
        assert wide.loading.unit_direction() == (1.0, 0.0)

    def test_direction_kept_raw_when_normalization_off(self):
        config = parse_config(
            make_doc(loading={"direction": [2.0, 0.0], "normalize_direction": False})
        )
        assert config.loading.unit_direction() == (2.0, 0.0)


# Every setting of the schema as (section, key, kind, rule).
SETTINGS = [(s, k, row[2], row[3]) for s, keys in _SCHEMA.items() for k, row in keys.items()]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# integers no double holds: the nearest one would be used in their place
INEXACT = st.sampled_from([2**53 + 1, -(2**53) - 1, 2**62 - 1, 10**400])


def interval(rule: str) -> tuple[float, float, bool, bool]:
    """(low, high, low end open, high end open) of a rule written like "(0, 1]"."""
    low, high = (float(b) for b in rule[1:-1].split(", "))
    return low, high, rule[0] == "(", rule[-1] == ")"


def member_inside(kind, rule):
    """One number or string that keeps the rule."""
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    low, high, low_open, high_open = interval(rule)
    if kind.startswith("int"):
        assert high == math.inf and not low_open, rule
        return st.integers(min_value=int(low), max_value=2**62)
    floats = st.floats(
        min_value=low,
        max_value=high if high < math.inf else None,
        exclude_min=low_open,
        exclude_max=high_open and high < math.inf,
        allow_nan=False,
        allow_infinity=False,
    )
    if high < math.inf:
        return floats
    # every integer up to 2**53 is a double; above, INEXACT ones are refused
    return floats | st.integers(min_value=int(low) + low_open, max_value=2**53)


def member_outside(kind, rule):
    """One finite number or string of the setting's kind that breaks the rule."""
    if isinstance(rule, tuple):
        return st.text().filter(lambda v: v not in rule)
    low, high, low_open, high_open = interval(rule)
    if kind.startswith("int"):
        return st.integers(max_value=int(low) - 1)
    below = FINITE.filter(lambda v: v < low or (low_open and v == low))
    if high == math.inf:
        return below
    return below | FINITE.filter(lambda v: v > high or (high_open and v == high))


def inside(kind, rule):
    """A value of the setting that parses."""
    if kind == "bool":
        return st.booleans()
    if kind == "vec2":  # normalized by default, so of finite nonzero length
        return st.lists(FINITE, min_size=2, max_size=2).filter(
            lambda v: 0.0 < math.hypot(*v) < math.inf
        )
    if rule is None:
        return st.text()
    member = member_inside(kind, rule)
    if kind == "number_or_list":
        return member | st.lists(member, min_size=1, max_size=4)
    if kind == "list_or_null":
        return st.none() | st.lists(member, max_size=4)
    if kind.endswith("_or_null"):
        return st.none() | member
    return member


def outside(kind, rule):
    """(value, index): a value the setting refuses, and the index of the list
    member that the refusal names, or None when it names the setting itself."""

    def setting(values):
        return st.tuples(values, st.none())

    def among_good(bad, names_member):
        def place(drawn):
            good, member, i = drawn
            i = min(i, len(good))
            return good[:i] + [member] + good[i:], i if names_member else None

        good = st.lists(member_inside(kind, rule), max_size=3)
        return st.tuples(good, bad, st.integers(0, 3)).map(place)

    if kind == "bool":
        return setting(st.sampled_from([0, 1, "true", None]))
    if kind == "vec2":
        refused = [[0.0, 0.0], [-0.0, 0.0], [1.5e308, 1.5e308]]  # no finite nonzero length
        refused += [[1.0], [1.0, 2.0, 3.0], [True, 1.0], "x"]
        bad_member = NON_FINITE | INEXACT
        return setting(st.sampled_from(refused) | st.tuples(FINITE, bad_member).map(list))
    if rule is None:
        return setting(st.sampled_from([1, 1.5, None, True, ["x"]]))
    if kind == "str":
        return setting(member_outside(kind, rule) | st.sampled_from([1, None, True]))
    wrong = [math.nan, "1", True, False, {}, [True], ["x"]]
    if kind in ("number_or_list", "list_or_null"):
        # a non-finite or mistyped member is the setting's kind error, a
        # finite one out of range its own member's
        bad_kind = among_good(NON_FINITE | INEXACT | st.sampled_from(["x", True, None]), False)
        bad_member = among_good(member_outside(kind, rule), True)
        scalars = NON_FINITE | INEXACT
        scalars |= st.sampled_from(wrong + ([1.0] if kind == "list_or_null" else [[]]))
        if kind == "number_or_list":
            scalars |= member_outside(kind, rule)
        return bad_kind | bad_member | setting(scalars)
    scalars = NON_FINITE | member_outside(kind, rule) | st.sampled_from(wrong + [[1]])
    if kind.startswith("int"):
        scalars |= st.sampled_from([1.5, 1.0])
    else:
        scalars |= INEXACT
    if not kind.endswith("_or_null"):
        scalars |= st.none()
    return setting(scalars)


def schema_doc(section, key, value):
    """make_doc() with value at section.key, and T = 0 and tau = 1 unless
    value replaces one: then no finite T, tau or snapshot instant makes an
    infinite step count, the one rule that joins settings of two sections."""
    doc = make_doc(time={"T": 0.0, "tau": 1.0})
    doc.setdefault(section, {})[key] = value
    return doc


def conforms(value, hint) -> bool:
    """value is an instance of a field annotation such as float | None or tuple[float, ...]."""
    if isinstance(hint, types.UnionType):
        return any(conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(type(v) is float for v in value)
    return type(value) is hint


class TestSchemaSpace:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(setting=st.sampled_from(SETTINGS), data=st.data())
    def test_every_setting_keeps_its_rule(self, setting, data):
        section, key, kind, rule = setting
        path = f"{section}.{key}"
        value = data.draw(inside(kind, rule), label="inside")
        config = parse_config(schema_doc(section, key, value))

        # the section dataclass holds one field per schema row, in order,
        # typed after the kind, and the value lands in its own field
        assert [f.name for f in fields(SimulationConfig)][: len(_SCHEMA)] == list(_SCHEMA)
        part = getattr(config, section)
        assert [f.name for f in fields(part)] == [_FIELD_NAMES.get(k, k) for k in _SCHEMA[section]]
        hints = typing.get_type_hints(type(part))
        assert all(conforms(getattr(part, name), hint) for name, hint in hints.items())
        held = getattr(part, _FIELD_NAMES.get(key, key))
        if kind == "number_or_list" and isinstance(value, list):
            assert (held, config.chi_sweep) == (value[0], tuple(value))
        else:
            assert held == (tuple(value) if isinstance(value, list) else value)

        # its canonical echo parses to the same configuration, and it pickles
        again = parse_config(json.loads(json.dumps(config.canonical)))
        assert config_hash(again) == config_hash(config)
        assert dataclasses.replace(again, defaults_applied=config.defaults_applied) == config
        assert pickle.loads(pickle.dumps(config)) == config

        bad, index = data.draw(outside(kind, rule), label="outside")
        with pytest.raises(ConfigError) as err:
            parse_config(schema_doc(section, key, bad))
        named = path if index is None else f"{path}[{index}]"
        assert [p.split(": ", 1)[0] for p in err.value.problems] == [named]

    def test_every_kind_is_used(self):
        # a kind that no setting has is code that nothing runs
        assert {kind for _, _, kind, _ in SETTINGS} == set(_KINDS)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_json_non_finite_numbers_are_refused(self, tmp_path, value):
        # Python's JSON reader takes these literals; no setting does
        text = json.dumps(make_doc()).replace('"speed": 0.0003', f'"speed": {value}')
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == [f"loading.speed: expected number, got {float(value)!r}"]

    def test_an_integer_no_double_holds_is_refused(self):
        # 2**53 + 1 would run as 2**53 under a hash of its own
        assert parse_config(make_doc(geometry={"L": 2**53})).geometry.L == 2**53
        with pytest.raises(ConfigError) as err:
            parse_config(make_doc(geometry={"L": 2**53 + 1}))
        assert err.value.problems == ["geometry.L: expected number, got 9007199254740993"]

    def test_every_setting_is_in_the_readme_table(self):
        # one row per setting, whose rule cell quotes the schema's rule
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in table.splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if line.startswith("| `"):
                rows[cells[0].strip("`")] = cells[2]
        assert list(rows) == [f"{s}.{k}" for s, k, _, _ in SETTINGS]
        for section, key, _, rule in SETTINGS:
            if rule is not None:
                strings = " or ".join(f'`"{v}"`' for v in rule)
                quoted = f"`{rule}`" if isinstance(rule, str) else strings
                assert rows[f"{section}.{key}"] == quoted, (section, key)


class TestConfigHash:
    def test_stable_across_reparses(self):
        a = config_hash(parse_config(make_doc()))
        b = config_hash(parse_config(make_doc()))
        assert a == b
        assert re.fullmatch(r"[0-9a-f]{64}", a)

    def test_benchmark_digest_is_pinned(self):
        # every result file of benchmark.json carries this digest
        assert config_hash(load_config(REPO_ROOT / "benchmark.json")) == (
            "bd96d0d859c830145f4de1a24a5e13e3dbe8e40300b26964277de159355a38b4"
        )

    def test_sensitive_to_values(self):
        a = config_hash(parse_config(make_doc()))
        b = config_hash(parse_config(make_doc(time={"tau": 0.021})))
        assert a != b

    def test_explicit_defaults_hash_like_omitted_ones(self):
        # the hash covers the canonical, defaults-filled form
        implicit = config_hash(parse_config(make_doc()))
        explicit = config_hash(
            parse_config(
                make_doc(
                    geometry={"glued_fraction": 0.9, "glued_from": "left", "foundation": "rigid"},
                    time={"stop_after_full_debond": None},
                    outputs={"directory": "results"},
                )
            )
        )
        assert implicit == explicit


class TestLoadConfig:
    def test_file_round_trip(self, tmp_path):
        path = write_doc(tmp_path, make_doc())
        assert config_hash(load_config(path)) == config_hash(parse_config(make_doc()))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


class TestRunSingleOutputs:
    def test_directory_contents(self, small_result):
        names = {p.name for p in small_result.out_dir.iterdir()}
        assert {"energies.csv", "forces.csv", "mixity.csv", "meta.json", "snapshots"} <= names

    def test_energies_csv_matches_ledger(self, small_result):
        digest, cols, rows = read_csv(small_result.out_dir / "energies.csv")
        assert digest == config_hash(small_result.config)
        assert cols == ["t", *CURVE_SET[:-1], "total", "external_work", "gap"]
        ledger = small_result.ledger
        assert len(rows) == len(ledger.t)
        data = np.array([[float(v) for v in row] for row in rows])
        # repr round-trips doubles exactly, so the file is bit-faithful
        series = {name: getattr(ledger, name) for name in CURVE_SET}
        series["t"] = ledger.t
        series["total"] = ledger.total_energy()
        series["gap"] = ledger.gap
        for j, name in enumerate(cols):
            assert np.array_equal(data[:, j], series[name]), name

    def test_forces_csv(self, small_result, small_states):
        _, cols, rows = read_csv(small_result.out_dir / "forces.csv")
        assert cols == ["t", "reaction_x", "reaction_y", "bonded_length", "min_gap"]
        traj = small_result.trajectory
        assert len(rows) == traj.n_steps
        data = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(data[:, 0], np.array(traj.times[1:]))
        lengths = small_result.ops.mesh.seg_length
        expected_bl = np.array([float(s.z @ lengths) for s in small_states[1:]])
        assert np.array_equal(data[:, 3], expected_bl)
        assert data[:, 4].min() >= -1e-8

    def test_mixity_csv(self, small_result):
        _, cols, rows = read_csv(small_result.out_dir / "mixity.csv")
        assert cols == [
            "segment",
            "x_mid",
            "debonded",
            "debond_time",
            "mixity_angle",
            "dissipated_density",
            "ratio",
        ]
        mix = mixity_histogram(small_result.ops, small_result.trajectory)
        assert len(rows) == len(mix.segment)
        for e, row in enumerate(rows):
            assert int(row[0]) == e
            assert float(row[1]) == mix.x_mid[e]
            assert int(row[2]) == int(mix.debonded[e])
            assert float(row[3]) == mix.debond_time[e]
            assert float(row[6]) == mix.ratio[e]
        # the small run fully debonds, so every segment carries a record
        assert all(row[2] == "1" for row in rows)

    def test_snapshot_files(self, small_result):
        snaps = sorted((small_result.out_dir / "snapshots").iterdir())
        assert snaps, "no snapshots written"
        ks = []
        for p in snaps:
            m = re.fullmatch(r"snapshot_(\d{5})\.csv", p.name)
            assert m, p.name
            ks.append(int(m.group(1)))
        assert ks == sorted(ks)
        traj = small_result.trajectory
        assert ks[-1] == traj.n_steps  # final instant is always sampled
        text = snaps[-1].read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == f"# config_hash={config_hash(small_result.config)}"
        assert lines[1] == f"# t={float(traj.times[ks[-1]])!r}"
        mesh = small_result.ops.mesh
        node_rows = lines.index("interface") - lines.index("nodes") - 2
        assert node_rows == mesh.n_nodes
        assert len(lines) - lines.index("interface") - 2 == len(mesh.seg_length)

    def test_snapshot_round_trip(self, small_result, small_states):
        # every float of a snapshot parses back to the state's value exactly
        snaps = sorted((small_result.out_dir / "snapshots").iterdir())
        ops = small_result.ops
        for path in (snaps[0], snaps[-1]):
            state = small_states[int(path.stem.split("_")[1])]
            lines = path.read_text(encoding="utf-8").splitlines()
            assert float(lines[1].removeprefix("# t=")) == state.t
            at = lines.index("interface")
            assert lines[3] == "id,x,y,ux,uy" and lines[at + 1] == "id,x_mid,z"
            nodes = np.array([[float(v) for v in row.split(",")] for row in lines[4:at]])
            segs = np.array([[float(v) for v in row.split(",")] for row in lines[at + 2 :]])
            assert np.array_equal(nodes[:, 0], np.arange(ops.mesh.n_nodes))
            assert np.array_equal(nodes[:, 1:3], ops.mesh.nodes)
            assert np.array_equal(nodes[:, 3:].ravel(), state.u)
            assert np.array_equal(segs[:, 0], np.arange(len(ops.seg_x_mid)))
            assert np.array_equal(segs[:, 1], ops.seg_x_mid)
            assert np.array_equal(segs[:, 2], state.z)

    def test_snapshot_writer_matches_the_table_writer(self, small_result, tmp_path):
        # The writer process gets the mesh columns formatted once per run and
        # u and z as raw doubles; its file must be the text _write_table
        # gives for all columns of a state, here a random one with a partly
        # released bond field and u spanning 1e-20 to 1e5.
        ops, digest = small_result.ops, config_hash(small_result.config)
        rng = np.random.default_rng(19)
        state = State(
            t=float(rng.uniform()),
            u=rng.normal(size=ops.mesh.n_dofs) * 10.0 ** rng.uniform(-20, 5, size=ops.mesh.n_dofs),
            z=(rng.random(size=ops.n_segments) < 0.5).astype(float),
        )
        path = tmp_path / "snapshot.csv"
        writer = _SnapshotWriter(digest, ops)
        writer.write(path, state)
        assert writer.close() is None
        nodes = ops.mesh.nodes
        expected = io.StringIO()
        expected.write(f"# config_hash={digest}\n# t={state.t!r}\nnodes\n")
        _write_table(
            expected,
            {
                "id": np.arange(len(nodes)),
                "x": nodes[:, 0],
                "y": nodes[:, 1],
                "ux": state.u[0::2],
                "uy": state.u[1::2],
            },
        )
        expected.write("interface\n")
        _write_table(
            expected, {"id": np.arange(len(ops.seg_x_mid)), "x_mid": ops.seg_x_mid, "z": state.z}
        )
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_meta_json(self, small_result):
        meta = json.loads((small_result.out_dir / "meta.json").read_text(encoding="utf-8"))
        assert set(meta) == {
            "package",
            "versions",
            "config_hash",
            "config",
            "defaults_applied",
            "chi_effective",
            "runtime_s",
            "n_steps",
            "t_end",
            "t_full_debond",
            "bonded_length_final",
            "external_work_final",
            "energy_gap_final",
            "norms",
        }
        assert meta["package"] == "delam2d"
        assert meta["versions"]["delam2d"] == delam2d.__version__
        assert set(meta["versions"]) == {"delam2d", "numpy", "scipy"}
        assert meta["config_hash"] == config_hash(small_result.config)
        assert meta["config"] == small_result.config.canonical
        assert meta["chi_effective"] == small_result.config.material.chi
        assert meta["runtime_s"] >= 0.0
        assert meta["n_steps"] == small_result.trajectory.n_steps
        assert meta["t_full_debond"] == small_result.trajectory.t_full_debond
        assert meta["bonded_length_final"] == 0.0
        assert set(meta["norms"]) == set(small_result.norms)

    def test_rerun_is_bitwise_identical(self, small_result, tmp_path):
        rerun = run_single(small_result.config, tmp_path / "again")
        assert rerun.trajectory.times == small_result.trajectory.times
        for name in ("energies.csv", "forces.csv", "mixity.csv"):
            ours = (tmp_path / "again" / name).read_bytes()
            theirs = (small_result.out_dir / name).read_bytes()
            assert ours == theirs, name
        # meta.json matches too, up to the wall-clock runtime field
        ours = json.loads((tmp_path / "again" / "meta.json").read_text(encoding="utf-8"))
        theirs = json.loads((small_result.out_dir / "meta.json").read_text(encoding="utf-8"))
        ours.pop("runtime_s")
        theirs.pop("runtime_s")
        assert ours == theirs

    def test_snapshot_times_override(self, tmp_path):
        config = parse_config(tiny_doc(outputs={"snapshot_times": [0.0, 0.1]}))
        run_single(config, tmp_path / "out")
        names = sorted(p.name for p in (tmp_path / "out" / "snapshots").iterdir())
        # tau = 0.05, so t = 0.0 and 0.1 land on steps 0 and 2
        assert names == ["snapshot_00000.csv", "snapshot_00002.csv"]

    def test_solver_failure_preserves_partial_outputs(self, tmp_path, monkeypatch):
        # the first contact step blows a zero-iteration budget, so the
        # run dies with only the initial state; that state must still be
        # on disk for post-mortem inspection
        config = parse_config(
            tiny_doc(geometry={"n_interface": 9}, loading={"direction": [-1.0, -0.6]})
        )
        force_qp_budget(monkeypatch, 1)
        out = tmp_path / "dead"
        with pytest.raises(QpNonconvergenceError, match="step 1"):
            run_single(config, out)
        digest, cols, rows = read_csv(out / "energies.csv")
        assert digest == config_hash(config)
        assert len(rows) == 1 and float(rows[0][0]) == 0.0
        _, _, force_rows = read_csv(out / "forces.csv")
        assert force_rows == []
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        assert meta["n_steps"] == 0 and meta["t_full_debond"] is None
        names = sorted(p.name for p in (out / "snapshots").iterdir())
        assert names == ["snapshot_00000.csv"]


def held_bytes(obj, seen=None) -> int:
    """Bytes of the numpy arrays reachable from obj through dataclass fields,
    lists, tuples and dict values, each array counted once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    else:
        return 0
    return sum(held_bytes(child, seen) for child in children)


class TestBoundedMemory:
    """A run holds a fixed number of displacement vectors, whatever its step count."""

    @staticmethod
    def config(n_steps):
        config = _level_config(load_config(REPO_ROOT / "benchmark.json"), 27)
        return dataclasses.replace(
            config, time=dataclasses.replace(config.time, T=n_steps * config.time.tau)
        )

    def test_run_result_grows_by_less_than_a_displacement_per_step(self, tmp_path):
        short, long = (run_single(self.config(n), tmp_path / str(n)) for n in (30, 120))
        assert (short.trajectory.n_steps, long.trajectory.n_steps) == (30, 120)
        assert np.isfinite(long.trajectory.release_time).any()
        per_step = (held_bytes(long) - held_bytes(short)) / 90
        assert per_step < 8 * long.ops.mesh.n_dofs, per_step

    def test_trajectory_without_on_step_grows_by_less_than_a_displacement_per_step(self):
        ops = build_simulation(self.config(120))[1]
        tau = self.config(120).time.tau
        short, long = (stepper.run(ops, tau=tau, t_end=n * tau) for n in (30, 120))
        per_step = (held_bytes(long) - held_bytes(short)) / 90
        assert per_step < 8 * ops.mesh.n_dofs, per_step


class TestProvenance:
    def test_same_config_can_rewrite_in_place(self, tmp_path):
        config = parse_config(tiny_doc())
        run_single(config, tmp_path)
        run_single(config, tmp_path)  # same hash: allowed to overwrite

    def test_refuses_directory_of_another_config(self, tmp_path):
        (tmp_path / "meta.json").write_text(
            json.dumps({"config_hash": "0" * 64}), encoding="utf-8"
        )
        with pytest.raises(HarnessError, match="refusing to mix"):
            run_single(parse_config(tiny_doc()), tmp_path)

    def test_refuses_foreign_csv_without_meta(self, tmp_path):
        (tmp_path / "energies.csv").write_text(
            "# config_hash=" + "f" * 64 + "\nt\n", encoding="utf-8"
        )
        with pytest.raises(HarnessError, match="refusing to mix"):
            run_single(parse_config(tiny_doc()), tmp_path)

    def test_refuses_snapshots_of_another_config_without_meta(self, tmp_path):
        # a killed run leaves only its snapshots; they carry its config hash
        first = parse_config(tiny_doc())
        run_single(first, tmp_path)
        for path in tmp_path.glob("*.*"):
            path.unlink()
        assert [p.name for p in tmp_path.iterdir()] == ["snapshots"]
        foreign = r"snapshots/snapshot_\d{5}\.csv: written by a different configuration"
        with pytest.raises(HarnessError, match=foreign):
            run_single(parse_config(tiny_doc(adhesive={"a_I": 200.0})), tmp_path)
        run_single(first, tmp_path)  # its own snapshots do not stop it

    def test_unreadable_meta_is_an_error(self, tmp_path):
        (tmp_path / "meta.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(HarnessError, match="unreadable metadata"):
            run_single(parse_config(tiny_doc()), tmp_path)

    @pytest.mark.parametrize("doc", ["[]", '"x"'])
    def test_meta_that_is_not_an_object_exits_1_with_one_line(self, tmp_path, capsys, doc):
        out = tmp_path / "o"
        out.mkdir()
        (out / "meta.json").write_text(doc, encoding="utf-8")
        assert main(["run", "--config", write_doc(tmp_path, tiny_doc()), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"delam2d: {out / 'meta.json'}: unreadable metadata (not a JSON object)\n"

    @pytest.mark.parametrize(
        "name, message", [("meta.json", "unreadable metadata"), ("junk.csv", "cannot read")]
    )
    def test_a_file_not_utf8_exits_1_with_one_line(self, tmp_path, capsys, name, message):
        out = tmp_path / "o"
        out.mkdir()
        (out / name).write_bytes(b"\xff\xfe\x00\x01")
        assert main(["run", "--config", write_doc(tmp_path, tiny_doc()), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"delam2d: {out / name}: {message} (")
        assert err.count("\n") == 1


SWEEP_CHIS = [1e-3, 1e-2]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The sweep's outputs, plus one run_single per chi given as a scalar."""
    config = parse_config(tiny_doc(material={"chi": SWEEP_CHIS}))
    out = tmp_path_factory.mktemp("sweep")
    scalar = tmp_path_factory.mktemp("scalar")
    singles = [
        run_single(parse_config(tiny_doc(material={"chi": chi})), scalar / f"chi_{chi:g}")
        for chi in SWEEP_CHIS
    ]
    return out, run_chi_sweep(config, out), singles


@pytest.fixture(scope="module")
def ladder(small_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder")
    report = run_convergence(small_config, out, levels=(9, 18))
    return out, report


class TestChiSweep:
    def test_one_directory_per_viscosity(self, sweep):
        out, results, _ = sweep
        assert [r.out_dir.name for r in results] == ["chi_0.001", "chi_0.01"]
        for r, chi in zip(results, (1e-3, 1e-2)):
            meta = json.loads((r.out_dir / "meta.json").read_text(encoding="utf-8"))
            assert meta["chi_effective"] == chi

    def test_summary_file(self, sweep):
        out, results, _ = sweep
        summary = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert set(summary) == {"config_hash", "runs"}
        assert summary["config_hash"] == config_hash(results[0].config)
        assert [run["chi"] for run in summary["runs"]] == [1e-3, 1e-2]
        assert [run["directory"] for run in summary["runs"]] == ["chi_0.001", "chi_0.01"]
        for run, result in zip(summary["runs"], results):
            assert run["viscous_dissipated_final"] == result.ledger.viscous_dissipated[-1]

    def test_more_viscosity_dissipates_more(self, sweep):
        _, results, _ = sweep
        lo, hi = (r.ledger.viscous_dissipated[-1] for r in results)
        assert hi > lo > 0.0

    def test_members_match_scalar_runs(self, sweep):
        # a member is the document with that chi as a scalar, stamped with
        # the sweep's hash
        _, results, singles = sweep
        digest = config_hash(parse_config(tiny_doc(material={"chi": SWEEP_CHIS})))
        for member, single in zip(results, singles):
            for name in ("energies.csv", "forces.csv", "mixity.csv"):
                member_hash, *member_data = read_csv(member.out_dir / name)
                _, *single_data = read_csv(single.out_dir / name)
                assert member_hash == digest, name
                assert member_data == single_data, name

    def test_scalar_chi_writes_no_summary(self, tmp_path):
        results = run_chi_sweep(parse_config(tiny_doc()), tmp_path)
        assert len(results) == 1
        assert results[0].out_dir == tmp_path / "chi_0.001"
        assert not (tmp_path / "sweep.json").exists()


def test_vanishing_viscosity_limit(tmp_path):
    """chi -> 0 at ladder level 27 (tau = 1/150, 150 steps) of benchmark.json.

    The bounds were set from a sweep measured before this test was written
    (chi = 1e-3, 1e-4, 1e-5, 0: viscous 4.690, 0.5254, 0.05320, 0;
    work 156.814, 156.702, 156.691, 156.690; gap 35.26, 39.41, 39.88,
    39.94 J/m; full debond at 0.7867 s for every member):
    - viscous dissipation falls by a factor in [8, 12] per decade of chi;
    - |W(chi) - W(0)| <= 150 chi J/m, an O(chi) approach of the work;
    - gap + viscous dissipation spans at most 0.05 J/m over the sweep;
    - the full-debond step is the same for every member;
    - at chi = 0 the run passes the stepper's invariants, its ledger gap
      is >= 0 and nondecreasing, and the momentum check passes.
    """
    doc = json.loads((REPO_ROOT / "benchmark.json").read_text(encoding="utf-8"))
    doc["geometry"]["n_interface"] = 27
    doc["time"]["tau"] = 1.0 / 150.0
    doc["material"]["chi"] = [1e-3, 1e-4, 1e-5, 0.0]
    with pytest.warns(UserWarning, match="chi = 0"):
        results = run_chi_sweep(parse_config(doc), tmp_path)
    chis = [r.config.material.chi for r in results]
    viscous = np.array([r.ledger.viscous_dissipated[-1] for r in results])
    work = np.array([r.ledger.external_work[-1] for r in results])
    gap = np.array([r.ledger.gap[-1] for r in results])

    assert chis == [1e-3, 1e-4, 1e-5, 0.0]
    assert viscous[-1] == 0.0
    decade = viscous[:-2] / viscous[1:-1]
    assert np.all((decade >= 8.0) & (decade <= 12.0)), decade
    assert np.all(np.abs(work[:-1] - work[-1]) <= 150.0 * np.array(chis[:-1])), work
    assert float(np.ptp(gap + viscous)) <= 0.05, gap + viscous
    assert len({r.trajectory.t_full_debond for r in results}) == 1
    assert results[0].trajectory.t_full_debond is not None

    limit = results[-1]
    traj, ledger = limit.trajectory, limit.ledger
    assert traj.n_steps == 150
    tol = stepper.ENERGY_TOL_FACTOR * ledger_scale(ledger)
    assert np.all(ledger.gap >= -tol)
    assert np.all(np.diff(ledger.gap) >= -tol[1:])
    assert min(rep.min_gap for rep in traj.reports) >= -1e-10
    assert [state.t for _, state in limit.momentum_pairs] == [traj.times[75], traj.times[150]]
    for prev, state in limit.momentum_pairs:
        assert momentum_residual(limit.ops, prev, state) <= 1e-6


class TestLevelLadder:
    def test_level_config_scales_tau_with_cell_size(self, small_config):
        level = _level_config(small_config, 18)
        assert level.geometry.n_interface == 18
        nx_ref, _ = _bottom_cell_counts(9, 0.9)
        nx_new, _ = _bottom_cell_counts(18, 0.9)
        assert level.time.tau == small_config.time.tau * (nx_ref / nx_new)
        assert level.time.tau == 0.01

    def test_tau_over_h_is_fixed_across_levels(self, small_config):
        base_ratio = small_config.time.tau / (0.25 / 10)
        for n in (18, 27, 36):
            level = _level_config(small_config, n)
            nx, _ = _bottom_cell_counts(n, 0.9)
            assert level.time.tau / (0.25 / nx) == pytest.approx(base_ratio, rel=1e-12)

    def test_level_config_touches_nothing_else(self, small_config):
        level = _level_config(small_config, 18)
        a = json.loads(json.dumps(small_config.canonical))
        b = json.loads(json.dumps(level.canonical))
        a["geometry"].pop("n_interface"), b["geometry"].pop("n_interface")
        a["time"].pop("tau"), b["time"].pop("tau")
        assert a == b

    def test_curve_distance_zero_for_identical_curves(self):
        t = [0.0, 0.5, 1.0]
        f = [1.0, 2.0, 0.5]
        assert _curve_distance(t, t, f, t, f) == 0.0

    def test_curve_distance_constant_offset(self):
        # unit offset over [0, 1]: sqrt(integral of 1) = 1
        t = [0.0, 1.0]
        assert _curve_distance(t, t, [0.0, 0.0], t, [1.0, 1.0]) == pytest.approx(1.0)
        # offset c over [0, 2] with trapezoid weights 0.5, 1, 0.5
        t3 = [0.0, 1.0, 2.0]
        d = _curve_distance(t3, t3, [0.0] * 3, t3, [3.0] * 3)
        assert d == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-15)

    def test_curve_distance_single_point_grid(self):
        d = _curve_distance([0.5], [0.0, 1.0], [0.0, 2.0], [0.0, 1.0], [0.0, 0.0])
        assert d == pytest.approx(1.0)

    def test_curve_distance_exact_for_shared_linear_curve(self):
        # linear interpolation reproduces a linear curve on any grid
        d = _curve_distance(
            [0.0, 0.25, 0.75, 1.0],
            [0.0, 1.0],
            [0.0, 2.0],
            [0.0, 0.5, 1.0],
            [0.0, 1.0, 2.0],
        )
        assert d == 0.0


class TestRunConvergence:
    def test_needs_two_levels(self, small_config, tmp_path):
        with pytest.raises(HarnessError, match="at least two levels"):
            run_convergence(small_config, tmp_path, levels=(9,))

    def test_levels_must_increase(self, small_config, tmp_path):
        with pytest.raises(HarnessError, match="must increase"):
            run_convergence(small_config, tmp_path, levels=(18, 9))

    def test_level_directories(self, ladder):
        out, _ = ladder
        for name, n in (("level_009", 9), ("level_018", 18)):
            meta = json.loads((out / name / "meta.json").read_text(encoding="utf-8"))
            assert meta["config"]["geometry"]["n_interface"] == n

    def test_convergence_csv(self, ladder, small_config):
        out, report = ladder
        digest, cols, rows = read_csv(out / "convergence.csv")
        assert digest == config_hash(small_config)
        assert cols == ["curve", "pair", "distance_l2"]
        assert len(rows) == len(CURVE_SET) + 1  # one pair per curve plus aggregate
        assert {row[1] for row in rows} == {"009_018"}
        by_curve = {row[0]: float(row[2]) for row in rows}
        assert set(by_curve) == set(CURVE_SET) | {"aggregate"}
        assert by_curve["aggregate"] == report["aggregate"][0]

    def test_report_json(self, ladder, small_config):
        out, report = ladder
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(doc) == {
            "config_hash",
            "levels",
            "distances",
            "aggregate",
            "distances_decrease",
            "norms",
            "norm_ratios",
            "norm_ratio_max",
        }
        assert doc["config_hash"] == config_hash(small_config)
        assert [lvl["n_interface"] for lvl in doc["levels"]] == [9, 18]
        assert set(doc["levels"][0]) == {
            "n_interface",
            "n_total",
            "h",
            "tau",
            "n_steps",
            "t_full_debond",
        }
        assert doc == json.loads(json.dumps(report))  # the returned report is the file
        assert set(doc["norms"]) == {"9", "18"}
        assert doc["norm_ratio_max"] == max(doc["norm_ratios"].values())

    def test_aggregate_combines_per_curve_distances(self, ladder):
        _, report = ladder
        total = sum(report["distances"][name][0] ** 2 for name in CURVE_SET)
        assert report["aggregate"][0] == pytest.approx(math.sqrt(total), rel=1e-15)
        assert report["aggregate"][0] > 0.0

    def test_norm_ratios_are_bounded(self, ladder):
        _, report = ladder
        # refinement must not blow the trajectory norms up
        for key, ratio in report["norm_ratios"].items():
            assert 1.0 <= ratio < 2.0, key

    def test_parallel_levels_match_serial(self, ladder, small_config, tmp_path):
        out, _ = ladder
        run_convergence(small_config, tmp_path, levels=(9, 18), threads=2)
        serial = (out / "report.json").read_text(encoding="utf-8")
        parallel = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert serial == parallel


class TestCli:
    def test_validate_config_ok(self, tmp_path, capsys):
        path = write_doc(tmp_path, make_doc())
        assert main(["validate-config", "--config", path]) == 0
        out = capsys.readouterr().out
        config = parse_config(make_doc())
        assert out.splitlines()[0] == f"ok  config_hash={config_hash(config)}"
        assert "defaults applied: " in out
        echoed = json.loads(out[out.index("{") :])
        assert echoed == config.canonical

    def test_validate_config_takes_no_positional_path(self, tmp_path, capsys):
        # one way to name the file: a path beside --config would be a second
        path = write_doc(tmp_path, make_doc())
        other = write_doc(tmp_path, make_doc(material={"nu": 0.3}), "other.json")
        assert main(["validate-config", "--config", path, other]) == 1
        assert capsys.readouterr().err == (
            f"delam2d: unrecognized arguments: {other} (see delam2d --help)\n"
        )

    def test_validate_config_requires_a_path(self, capsys):
        assert main(["validate-config"]) == 1
        assert capsys.readouterr().err == (
            "delam2d: the following arguments are required: --config "
            "(see delam2d validate-config --help)\n"
        )

    def test_validate_config_reports_field_paths(self, tmp_path, capsys):
        path = write_doc(tmp_path, make_doc(material={"nu": 0.9}))
        assert main(["validate-config", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "material.nu" in err and "delam2d:" in err

    def test_validate_config_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_validate_config_missing_file(self, tmp_path, capsys):
        assert main(["validate-config", "--config", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_validate_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(make_doc()).encode("utf-16-le"))
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("delam2d:")] == [
            "delam2d: invalid configuration:"
        ]
        assert f"  {path}: not UTF-8 text (" in err

    def test_run_with_an_unwritable_output_file_exits_1(self, tmp_path, capsys):
        # the snapshot writer's own failure reads the same way (TestSnapshotWriterProcess)
        out = tmp_path / "o"
        (out / "energies.csv").mkdir(parents=True)
        assert main(["run", "--config", write_doc(tmp_path, tiny_doc()), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"delam2d: {out / 'energies.csv'}: cannot write (Is a directory)\n"
        )

    def test_run_writes_result_directory(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "res"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"run: {out}  steps=10  t_end=0.5")
        assert lines[-1].startswith("momentum check: worst normalized KKT defect")
        assert (out / "meta.json").exists()

    def test_run_default_directory_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_doc(tmp_path, tiny_doc(outputs={"directory": "from_config"}))
        assert main(["run", "--config", path]) == 0
        assert (tmp_path / "from_config" / "meta.json").exists()

    def test_run_expands_chi_sweep(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc(material={"chi": [1e-3, 1e-2]}))
        out = tmp_path / "sweep"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("run: ") == 2
        assert (out / "sweep.json").exists()

    def test_run_refuses_mixed_directory(self, tmp_path, capsys):
        out = tmp_path / "shared"
        first = write_doc(tmp_path, tiny_doc(), "a.json")
        assert main(["run", "--config", first, "--out", str(out)]) == 0
        second = write_doc(tmp_path, tiny_doc(time={"tau": 0.025}), "b.json")
        assert main(["run", "--config", second, "--out", str(out)]) == 1
        assert "refusing to mix" in capsys.readouterr().err

    def test_converge_cli(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc(geometry={"n_interface": 9}))
        out = tmp_path / "conv"
        rc = main(["converge", "--config", path, "--out", str(out), "--levels", "9,18"])
        assert rc == 0
        # every printed value is the report's, formatted
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert capsys.readouterr().out.splitlines() == [
            f"levels 9->18: aggregate energy-curve distance {report['aggregate'][0]:.6e}",
            f"distances decrease: {report['distances_decrease']}",
            f"norm ratio max/min: {report['norm_ratio_max']:.4f}",
            f"report: {out / 'report.json'}",
        ]
        assert report["distances_decrease"] is True

    def test_converge_rejects_single_level(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        assert main(["converge", "--config", path, "--out", str(tmp_path / "c"), "--levels", "9"]) == 1
        assert "at least two levels" in capsys.readouterr().err

    def test_converge_rejects_repeated_levels(self, tmp_path, capsys):
        # two runs of one level would share level_009/
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out), "--levels", "9,9"]) == 1
        assert "must increase strictly" in capsys.readouterr().err
        assert not out.exists()

    def test_run_rejects_chi_values_sharing_a_directory(self, tmp_path, capsys):
        # both print as chi_0.001; the second member would overwrite the first
        path = write_doc(tmp_path, tiny_doc(material={"chi": [1e-3, 1.0000001e-3]}))
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert "share member directories" in capsys.readouterr().err
        assert not out.exists()

    def test_mesh_dump_cli(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "mesh.csv"
        assert main(["mesh-dump", "--config", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("mesh: ")
        assert "interface segments" in stdout and str(out) in stdout
        text = out.read_text(encoding="utf-8")
        assert text.startswith("nodes\nid,x,y\n")
        assert "\ntriangles\n" in text and "\ninterface\n" in text

    def test_mesh_dump_makes_missing_directories(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "missing" / "x" / "mesh.csv"
        assert main(["mesh-dump", "--config", path, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("nodes\nid,x,y\n")

    @pytest.mark.parametrize("command", ["run", "converge", "mesh-dump"])
    def test_unusable_output_path_exits_1_with_one_line(self, command, tmp_path, capsys):
        # an existing file where the output directory should go
        path = write_doc(tmp_path, tiny_doc())
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "mesh.csv" if command == "mesh-dump" else blocker
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"delam2d: {out}: cannot ") and err.count("\n") == 1
        assert blocker.read_text(encoding="utf-8") == ""

    def test_seed_flag_is_unknown(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out), "--seed", "3"]) == 1
        assert capsys.readouterr().err.startswith("delam2d: unrecognized arguments: --seed 3")
        assert not out.exists()
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "--seed" not in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_1_exit_1_before_the_run(self, threads, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out), "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err.startswith("delam2d: argument --threads: invalid ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("loading", "speed", math.nan),
            ("material", "chi", math.nan),
            ("material", "E", math.inf),
            ("adhesive", "kappa_t", math.nan),
            ("adhesive", "eps_reg", math.nan),
            ("time", "T", math.inf),
            ("material", "chi", [1e-3, -math.inf]),
            ("outputs", "snapshot_times", [0.1, math.nan]),
        ],
    )
    def test_non_finite_number_exits_1_with_one_line(self, section, key, value, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc(**{section: {key: value}}))  # json writes NaN, Infinity
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"delam2d: invalid configuration:\n  {section}.{key}: expected " + (
            f"{_SCHEMA[section][key][2]}, got {value!r}\n"
        )
        assert not out.exists()

    def test_config_solver_section_exits_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc(solver={"qp_tol": 1e-10}))
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "delam2d: invalid configuration:\n  solver: unknown section\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [{"time": {"T": 1e300, "tau": 1e-10}}, {"outputs": {"snapshot_times": [1e300]}}],
    )
    def test_overflowing_step_count_exits_1_with_one_line(self, overrides, tmp_path, capsys):
        doc = tiny_doc(**overrides)
        doc["time"]["tau"] = 1e-10
        path = write_doc(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("delam2d: invalid configuration:\n  ") and err.count("\n") == 2
        assert "must be a finite number of steps" in err
        assert not out.exists()

    def test_direction_of_overflowing_length_exits_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc(loading={"direction": [1.5e308, 1.5e308]}))
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "delam2d: invalid configuration:\n"
            "  loading.direction: cannot normalize a vector of length inf\n"
        )
        assert not out.exists()

    def test_overflowing_drive_rate_exits_1(self, tmp_path, capsys):
        loading = {"speed": 1e300, "direction": [1e300, 1.0], "normalize_direction": False}
        path = write_doc(tmp_path, tiny_doc(loading=loading))
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "delam2d: invalid configuration:\n"
            "  loading.speed: the drive rate must be finite, got 1e+300 * [1e+300, 1.0]\n"
        )
        assert not out.exists()

    def test_missing_required_option_exits_1(self, capsys):
        # 2 is the exit status of solver nonconvergence, not of usage errors
        assert main(["run"]) == 1
        assert capsys.readouterr().err == (
            "delam2d: the following arguments are required: --config (see delam2d run --help)\n"
        )

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("delam2d: argument command: invalid choice: 'bogus'")

    def test_malformed_levels_exit_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out), "--levels", "27,abc"]) == 1
        assert capsys.readouterr().err.startswith("delam2d: argument --levels: invalid ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: delam2d")

    @staticmethod
    def spy_momentum_checks(monkeypatch):
        """The (prev.t, state.t) of every pair the CLI's momentum check reads."""
        seen = []
        check = cli.momentum_residual

        def spy(ops, prev, state):
            seen.append((prev.t, state.t))
            return check(ops, prev, state)

        monkeypatch.setattr(cli, "momentum_residual", spy)
        return seen

    def test_momentum_check_reads_the_midpoint_and_last_steps(
        self, tmp_path, capsys, monkeypatch
    ):
        seen = self.spy_momentum_checks(monkeypatch)
        path = write_doc(tmp_path, tiny_doc())
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert seen == [(4 * 0.05, 5 * 0.05), (9 * 0.05, 10 * 0.05)]
        assert "momentum check: worst normalized KKT defect" in capsys.readouterr().out

    def test_a_run_stopped_before_its_midpoint_checks_its_last_step_only(
        self, tmp_path, capsys, monkeypatch
    ):
        # 200 planned steps, midpoint t = 2.0; the bar is free well before
        seen = self.spy_momentum_checks(monkeypatch)
        doc = make_doc(time={"T": 4.0, "stop_after_full_debond": 0.0})
        path = write_doc(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
        meta = json.loads((tmp_path / "o" / "meta.json").read_text(encoding="utf-8"))
        t_end, n = meta["t_end"], meta["n_steps"]
        assert t_end == meta["t_full_debond"] and n < 100
        assert seen == [((n - 1) * 0.02, n * 0.02)] and seen[0][1] == t_end
        assert "momentum check: worst normalized KKT defect" in capsys.readouterr().out

    def test_solver_budget_exhaustion_exits_2(self, tmp_path, capsys, monkeypatch):
        # compression activates contact; a budget of zero active-set
        # iterations cannot settle the working set, so the step must give up
        doc = tiny_doc(
            geometry={"n_interface": 9}, loading={"direction": [-1.0, -0.6]}, time={"T": 0.2}
        )
        path = write_doc(tmp_path, doc)
        force_qp_budget(monkeypatch, 1)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("delam2d: solver failed: step 1")

    def test_solver_budget_exhaustion_in_a_converge_worker_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # the worker processes, forked, inherit the patch: each one's first QP
        # gets no iterations, and its error must reach the parent whole and
        # exit 2 with one line, as a serial run does
        doc = tiny_doc(loading={"direction": [-1.0, -0.6]}, time={"T": 0.2})
        path = write_doc(tmp_path, doc)
        force_qp_budget(monkeypatch, 1)
        argv = ["converge", "--config", path, "--levels", "9,18", "--threads", "2"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("delam2d: solver failed: step 1 (t=") and err.count("\n") == 1

    def test_prescribed_penetration_exits_3(self, tmp_path, capsys):
        # with 5 requested segments the rounded bottom row is glued end to
        # end, so the driven corner node is pushed into the foundation
        doc = tiny_doc(loading={"direction": [-1.0, -0.6]}, time={"T": 0.2})
        path = write_doc(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("delam2d: invariant violation: ")
        assert "penetrate" in err

    def test_step_invariant_violation_leaves_outputs(self, tmp_path, capsys):
        # fully glued bar pulled down at the driven corner: the first step's
        # solve refuses the prescribed penetration before any step completes
        doc = make_doc(
            geometry={"glued_fraction": 1.0},
            loading={"direction": [1.0, -0.6]},
            time={"T": 0.2},
        )
        path = write_doc(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("delam2d: invariant violation: step 1 (t=0.02): ")
        assert "penetrate" in err

        digest = config_hash(parse_config(doc))
        energies = read_csv(out / "energies.csv")
        assert energies[0] == digest
        assert energies[1][:2] == ["t", "bulk_elastic"]
        assert [[float(x) for x in row] for row in energies[2]] == [[0.0] * 8]  # the t = 0 row
        forces = read_csv(out / "forces.csv")
        assert forces == (digest, ["t", "reaction_x", "reaction_y", "bonded_length", "min_gap"], [])
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        assert meta["config_hash"] == digest
        assert meta["n_steps"] == 0

    def test_qp_budget_exhausted_after_step_1_leaves_outputs(self, tmp_path, capsys, monkeypatch):
        # the QP of step 3 gets no iterations: the run dies after two
        # completed steps, which land on disk with the initial state
        force_qp_budget(monkeypatch, 3)
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "delam2d: solver failed: step 3 (t=0.15): "
            "active-set method did not converge within 0 iterations\n"
        )
        digest = config_hash(parse_config(tiny_doc()))
        energies = read_csv(out / "energies.csv")
        assert energies[0] == digest
        assert [float(row[0]) for row in energies[2]] == [k * 0.05 for k in range(3)]
        forces = read_csv(out / "forces.csv")
        assert [float(row[0]) for row in forces[2]] == [k * 0.05 for k in range(1, 3)]
        _, cols, rows = read_csv(out / "mixity.csv")
        assert rows and all(len(row) == len(cols) for row in rows)
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        assert meta["config_hash"] == digest and meta["n_steps"] == 2
        assert_last_state_snapshot(out, 2, 0.1)

    def test_step_check_failure_leaves_outputs(self, tmp_path, capsys, monkeypatch):
        # the bond update of step 3 raises a bond: the step's check fails
        # after the step is recorded, and its outputs land with the others
        force_bond_increase(monkeypatch, 3)
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "delam2d: invariant violation: step 3 (t=0.15): bond fraction increased somewhere\n"
        )
        digest = config_hash(parse_config(tiny_doc()))
        energies = read_csv(out / "energies.csv")
        assert energies[0] == digest
        assert [float(row[0]) for row in energies[2]] == [k * 0.05 for k in range(4)]
        forces = read_csv(out / "forces.csv")
        assert [float(row[0]) for row in forces[2]] == [k * 0.05 for k in range(1, 4)]
        _, cols, rows = read_csv(out / "mixity.csv")
        assert rows and all(len(row) == len(cols) for row in rows)
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        assert meta["config_hash"] == digest and meta["n_steps"] == 3
        assert_last_state_snapshot(out, 3, 0.15000000000000002)


    def test_nan_drive_exits_3_with_the_step_named(self, tmp_path, capsys, monkeypatch):
        # no comparison with a NaN holds: the step's checks must fail on it
        force_nan_drive(monkeypatch, 3)
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "delam2d: invariant violation: step 3 (t=0.15): "
            "per-step energy inequality violated by nan"
        )
        assert json.loads((out / "meta.json").read_text(encoding="utf-8"))["n_steps"] == 3

    def test_nan_momentum_defect_exits_3(self, tmp_path, capsys, monkeypatch):
        defects = iter([math.nan, 1e-9])  # a later finite defect must not hide the NaN
        monkeypatch.setattr(cli, "momentum_residual", lambda *args: next(defects))
        path = write_doc(tmp_path, tiny_doc())
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        assert "momentum check: worst normalized KKT defect nan" in captured.out
        assert captured.err == "delam2d: invariant violation: momentum KKT defect nan above 1e-06\n"

    def test_a_corrupted_momentum_pair_exits_3(self, tmp_path, capsys, monkeypatch):
        # the last pair's state moved by 1 um at one free dof: no longer a
        # minimizer of its step, whatever the rest of the run did
        def corrupted(config, out_dir):
            result = run_single(config, out_dir)
            *kept, (prev, state) = result.momentum_pairs
            u = state.u.copy()
            u[result.ops.dofmap.free[0]] += 1e-6
            bad = (prev, State(state.t, u, state.z))
            return dataclasses.replace(result, momentum_pairs=(*kept, bad))

        monkeypatch.setattr(cli, "run_single", corrupted)
        path = write_doc(tmp_path, tiny_doc())
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        worst = float(captured.out.splitlines()[-1].rsplit(" ", 1)[1])
        assert worst > 1e-6
        assert captured.err == (
            f"delam2d: invariant violation: momentum KKT defect {worst:.3e} above 1e-06\n"
        )

    def test_two_runs_print_the_same_momentum_line(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        lines = []
        for out in ("a", "b"):
            assert main(["run", "--config", path, "--out", str(tmp_path / out)]) == 0
            lines.append(capsys.readouterr().out.splitlines()[-1])
        assert lines[0] == lines[1]
        assert lines[0].startswith("momentum check: worst normalized KKT defect ")


class TestSnapshotWriterProcess:
    """Snapshots go through one helper process per run, which no path outlives."""

    @staticmethod
    def writers_in(cwd: Path) -> list[int]:
        """Pids of the snapshot writers running with cwd as working directory."""
        pids = []
        for proc in Path("/proc").iterdir():
            try:
                cmdline = (proc / "cmdline").read_bytes()
                if b"snapshot_writer.py" in cmdline and Path(os.readlink(proc / "cwd")) == cwd:
                    pids.append(int(proc.name))
            except (OSError, ValueError):
                continue  # not a process, gone, or not ours to read
        return pids

    def test_unwritable_snapshot_exits_1_after_every_other_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, tiny_doc())
        out = tmp_path / "o"
        blocked = out / "snapshots" / "snapshot_00010.csv"  # the last step's
        blocked.mkdir(parents=True)
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"delam2d: {blocked}: cannot write the snapshot (Is a directory)\n"
        )
        assert {p.name for p in out.iterdir()} == {
            "energies.csv", "forces.csv", "mixity.csv", "meta.json", "snapshots"
        }
        assert json.loads((out / "meta.json").read_text(encoding="utf-8"))["n_steps"] == 10
        snaps = sorted(p.name for p in (out / "snapshots").iterdir() if p.is_file())
        assert snaps == ["snapshot_00004.csv", "snapshot_00006.csv", "snapshot_00008.csv",
                         "snapshot_00009.csv"]

    @pytest.mark.parametrize("path_taken", ["success", "exit 2", "exit 3", "writer failure"])
    def test_no_child_process_outlives_the_run(self, path_taken, tmp_path, capsys, monkeypatch):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # none before the run either
        out = tmp_path / "o"
        code = {"success": 0, "exit 2": 2, "exit 3": 3, "writer failure": 1}[path_taken]
        if path_taken == "exit 2":
            force_qp_budget(monkeypatch, 3)
        elif path_taken == "exit 3":
            force_bond_increase(monkeypatch, 3)
        elif path_taken == "writer failure":
            (out / "snapshots" / "snapshot_00010.csv").mkdir(parents=True)
        assert main(["run", "--config", write_doc(tmp_path, tiny_doc()), "--out", str(out)]) == code
        assert any(p.is_file() for p in (out / "snapshots").iterdir())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not Path("/proc/self/cwd").exists(), reason="needs /proc")
    def test_a_killed_run_keeps_the_snapshots_it_handed_over(self, tmp_path):
        # Every step is a snapshot instant, and each step sleeps 0.1 s, so the
        # run is killed mid-way; the writer must finish what it was handed,
        # write nothing half-handed, and exit once its input closes.
        doc = tiny_doc(outputs={"snapshot_times": [k * 0.05 for k in range(11)]})
        config_path = write_doc(tmp_path, doc)
        reference = run_single(parse_config(doc), tmp_path / "whole").out_dir / "snapshots"
        cwd = (tmp_path / "killed").resolve()
        cwd.mkdir()
        out = cwd / "o"
        slow_run = (
            "import sys, time\n"
            "from delam2d import cli, stepper\n"
            "step = stepper.delamination_step\n"
            "def slow(*args):\n"
            "    time.sleep(0.1)\n"
            "    return step(*args)\n"
            "stepper.delamination_step = slow\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.Popen(
            [sys.executable, "-c", slow_run, "run", "--config", config_path, "--out", str(out)],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not (out / "snapshots").is_dir() or not any((out / "snapshots").iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline, "no snapshot appeared"
                time.sleep(0.002)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        while self.writers_in(cwd):
            assert time.monotonic() < deadline, "the snapshot writer outlived its run by 10 s"
            time.sleep(0.01)
        present = sorted(p.name for p in (out / "snapshots").iterdir())
        assert present and len(present) < 11, present
        for name in present:
            assert (out / "snapshots" / name).read_bytes() == (reference / name).read_bytes(), name
