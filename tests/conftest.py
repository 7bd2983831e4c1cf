import copy
import json
from pathlib import Path

import numpy as np
import pytest

from delam2d import harness, load_config, parse_config, run_single, stepper

REPO_ROOT = Path(__file__).resolve().parents[1]

# Small bar with the benchmark's material data: 10 x 1 cells, 9 glued
# segments, coarse steps.  Fully debonds within T and runs in well under
# a second, so integration tests can afford fresh runs.
SMALL_DOC = {
    "geometry": {"L": 0.25, "H": 0.025, "n_interface": 9},
    "material": {"E": 70e9, "nu": 0.35, "chi": 1e-3},
    "adhesive": {"kappa_n": 150e9, "kappa_t": 75e9, "a_I": 187.5, "lambda": 0.333},
    "loading": {"speed": 3e-4, "direction": [1.0, 0.6]},
    "time": {"T": 1.2, "tau": 0.02},
}


def make_doc(**section_overrides) -> dict:
    doc = copy.deepcopy(SMALL_DOC)
    for section, fields in section_overrides.items():
        doc.setdefault(section, {}).update(fields)
    return doc


def force_bond_increase(monkeypatch, step: int) -> None:
    """Make the bond update of the given step raise segment 0's bond by one
    ulp, so that step's check fails: "bond fraction increased somewhere"."""
    release = stepper.delamination_step
    calls = []

    def raised(ops, u_next, z_prev):
        z_next, *rest = release(ops, u_next, z_prev)
        calls.append(None)
        if len(calls) == step:
            z_next = z_next.copy()
            z_next[0] = np.nextafter(z_prev[0], np.inf)
        return (z_next, *rest)

    monkeypatch.setattr(stepper, "delamination_step", raised)


def force_nan_drive(monkeypatch, step: int) -> None:
    """Make the bond update of the given step return a NaN drive on segment 0,
    with the bonds it would have given; nothing compares true with NaN, so
    only a check written to fail on NaN stops that step."""
    release = stepper.delamination_step
    calls = []

    def poisoned(ops, u_next, z_prev):
        z_next, drive, *rest = release(ops, u_next, z_prev)
        calls.append(None)
        if len(calls) == step:
            drive = drive.copy()
            drive[0] = np.nan
        return (z_next, drive, *rest)

    monkeypatch.setattr(stepper, "delamination_step", poisoned)


def force_qp_budget(monkeypatch, step: int) -> None:
    """Give the QP of the given step a budget of zero iterations, so that
    step's solve raises QpNonconvergenceError."""
    solve = stepper.qp.solve_qp
    calls = []

    def budgeted(*args, **kwargs):
        calls.append(None)
        if len(calls) == step:
            kwargs["max_iter"] = 0
        return solve(*args, **kwargs)

    monkeypatch.setattr(stepper.qp, "solve_qp", budgeted)


def tap_states(run, states: list):
    """run, also appending every state it hands to on_step to states."""

    def tapped(*args, on_step=None, **kwargs):
        def record(state, report):
            states.append(state)
            if on_step is not None:
                on_step(state, report)

        return run(*args, on_step=record, **kwargs)

    return tapped


def run_with_states(ops, **kwargs):
    """stepper.run(ops, **kwargs) and the list of its states, the first one first.

    A run keeps only its first and last states; tests that read the others
    collect them here, through on_step."""
    states = []
    traj = tap_states(stepper.run, states)(ops, **kwargs)
    return traj, [traj.first, *states]


def run_single_with_states(config, out_dir):
    """run_single(config, out_dir) and the list of its run's states, the first one first."""
    states = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run", tap_states(harness.run, states))
        result = run_single(config, out_dir)
    return result, [result.trajectory.first, *states]


@pytest.fixture(scope="session")
def small_config():
    return parse_config(make_doc())


@pytest.fixture(scope="session")
def small_run(small_config, tmp_path_factory):
    """One completed small run with full debonding and its states, shared read-only."""
    out = tmp_path_factory.mktemp("small_run")
    result, states = run_single_with_states(small_config, out)
    assert result.trajectory.t_full_debond is not None
    return result, states


@pytest.fixture(scope="session")
def small_result(small_run):
    return small_run[0]


@pytest.fixture(scope="session")
def small_states(small_run):
    return small_run[1]


@pytest.fixture(scope="session")
def benchmark_config():
    return load_config(REPO_ROOT / "benchmark.json")


@pytest.fixture(scope="session")
def benchmark_run(benchmark_config, tmp_path_factory):
    """The full 81-segment benchmark run and its states; shared by the acceptance tests."""
    out = tmp_path_factory.mktemp("benchmark_run")
    return run_single_with_states(benchmark_config, out)


@pytest.fixture(scope="session")
def benchmark_result(benchmark_run):
    return benchmark_run[0]


@pytest.fixture(scope="session")
def benchmark_states(benchmark_run):
    return benchmark_run[1]
