"""The names perfbench's tracer patches must exist in delam2d.

perfbench/spans.py wraps public functions of the delam2d modules by name
(PATCH_POINTS) and wraps the `solve` method of every object that
`qp.factorize` returns.  A name dropped from src would otherwise only
show up as a crash of `perfbench/run.py --trace 1`.
"""

import collections
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from delam2d import assembly, cli, energetics, harness, load_config, qp, stepper
from delam2d.harness import _level_config, build_simulation

from conftest import REPO_ROOT, make_doc, run_with_states

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    points = _spans_module().PATCH_POINTS
    assert points
    for module, attr, name in points:
        mod = importlib.import_module(f"delam2d.{module}")
        assert callable(getattr(mod, attr, None)), f"{name}: delam2d.{module}.{attr} is missing"


def test_factorize_returns_an_object_with_solve():
    factor = qp.factorize(sp.csc_matrix(2.0 * np.eye(3)), sp.csr_matrix((0, 3)))
    assert callable(factor.solve)
    assert np.allclose(factor.solve(np.ones(3)), 0.5)


def test_cached_columns_leave_one_wrapped_solve_per_repeat():
    # perfbench counts linear solves by wrapping `solve` on the factor, as
    # below; the columns H^{-1} B_i^T must be computed through that
    # attribute, so a repeat of a solved problem makes exactly one solve,
    # the unconstrained minimizer.
    probe = _spans_module().Probe(tracing=True)
    g, c = -np.ones(3), np.full(3, 0.25)
    factor = qp.factorize(sp.csc_matrix(2.0 * np.eye(3)), sp.csr_matrix(-np.eye(3)))
    factor.solve = probe.span("qp.linear_solve", factor.solve)
    first = qp.solve_qp(factor, g, c)
    assert len(first.active_set) == 3 and len(probe.spans) == 4
    probe.spans.clear()
    second = qp.solve_qp(factor, g, c)
    assert len(probe.spans) == 1
    assert np.array_equal(first.x, second.x)


def traced_superlu_calls(ops, t_end, tau):
    """Run to t_end under a traced probe: (span names, SuperLU calls of each span).

    Each SuperLU call is filed under the innermost span open when it is made,
    with the number of columns of its right-hand side."""
    probe = _spans_module().Probe(tracing=True)
    calls = collections.defaultdict(list)
    splu = qp.spla.splu

    class Spy:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, rhs):
            calls[probe._open[-1]].append(1 if rhs.ndim == 1 else rhs.shape[1])
            return self.lu.solve(rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            qp, "factorize", probe.span("qp.factorize", qp.factorize, probe._factorize_value)
        )
        patch.setattr(qp.spla, "splu", lambda A: Spy(splu(A)))
        run_with_states(ops, tau=tau, t_end=t_end)
    return [span[0] for span in probe.spans], calls


def test_every_superlu_solve_goes_through_a_wrapped_solve():
    # The era factors' column solves, their Z columns and the corrected
    # step solves all call SuperLU through `solve` of an object that
    # `qp.factorize` returned, so perfbench's qp.linear_solves counts them
    # all: two calls per refined solve, of one column, and one per Z pass,
    # the one unrefined solve, of all of a lowering's new columns.
    config = _level_config(load_config(REPO_ROOT / "benchmark.json"), 27)
    ops = build_simulation(config)[1]
    _, states = run_with_states(ops, tau=config.time.tau, t_end=config.time.T)
    changed = [not np.array_equal(a.z, b.z) for a, b in zip(states[:-1], states[1:])]
    names, calls = traced_superlu_calls(ops, config.time.T, config.time.tau)
    assert 2 <= names.count("qp.factorize") < sum(changed)  # eras, most releases lowered
    assert all(span >= 0 and names[span] == "qp.linear_solve" for span in calls)
    assert len(calls) == names.count("qp.linear_solve")
    z_passes = [cols for cols in calls.values() if cols != [1, 1]]
    assert all(len(cols) == 1 for cols in z_passes)  # one unrefined call each
    assert any(cols[0] > 1 for cols in z_passes)  # multi-column

    # A run that ends before the first release, as fine162 does, lowers no
    # factor: every solve is a refined pair.
    t_end = states[changed.index(True)].t
    names, calls = traced_superlu_calls(ops, t_end, config.time.tau)
    assert names.count("qp.factorize") == 1
    assert len(calls) == names.count("qp.linear_solve") > 0
    assert all(span >= 0 and names[span] == "qp.linear_solve" for span in calls)
    assert all(cols == [1, 1] for cols in calls.values())


def test_the_untraced_probe_stamps_every_step(monkeypatch, tmp_path):
    # perfbench's end-to-end metrics all come from an untraced probe: set-up
    # ends when build_simulation returns, and the step latencies are the gaps
    # between the stamps it takes at the run's start and through on_step.
    for attr in ("build_simulation", "run"):
        monkeypatch.setattr(harness, attr, getattr(harness, attr))  # restored after the test
    probe = _spans_module().Probe(tracing=False)
    probe.install(
        {"assembly": assembly, "cli": cli, "energetics": energetics,
         "harness": harness, "qp": qp, "stepper": stepper}
    )
    config = tmp_path / "small.json"
    config.write_text(json.dumps(make_doc()), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    n_steps = json.loads((out / "meta.json").read_text(encoding="utf-8"))["n_steps"]
    assert n_steps > 0
    assert len(probe.step_stamps) == n_steps + 1
    assert probe.setup_done is not None
