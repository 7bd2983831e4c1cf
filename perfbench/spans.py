"""Timestamps and spans taken from outside the simulator.

A Probe replaces public functions of delam2d's modules with thin
wrappers.  Each wrapper is installed under the name the caller looks
up, so it sees every call: `harness.run` is stepper.run as the harness
module calls it, `qp.solve_qp` is looked up on the qp module by the
stepper, and so on.  The object `qp.factorize` returns gets its `solve`
method wrapped too, which counts every linear solve.

Untraced, a probe only notes when `harness.build_simulation` returns
and one timestamp per step through the run's on_step hook.  Traced, it
also keeps one span per wrapped call in memory:
(name, start, end, parent span index, value), where value is a count
read off the call (QP iterations, released segments) or None.
"""

from __future__ import annotations

import functools
import time

# (module of delam2d, attribute as its callers look it up, span name)
PATCH_POINTS = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "run_single", "harness.run_single"),
    ("cli", "momentum_residual", "energetics.momentum_residual"),
    ("harness", "build_simulation", "harness.build_simulation"),
    ("harness", "build_benchmark_mesh", "mesh.build_benchmark_mesh"),
    ("harness", "build_two_body_mesh", "mesh.build_two_body_mesh"),
    ("harness", "run", "stepper.run"),
    ("harness", "build_ledger", "energetics.build_ledger"),
    ("harness", "trajectory_norms", "energetics.trajectory_norms"),
    ("harness", "mixity_histogram", "energetics.mixity_histogram"),
    ("stepper", "displacement_step", "stepper.displacement_step"),
    ("stepper", "delamination_step", "stepper.delamination_step"),
    ("assembly", "assemble_stiffness", "assembly.assemble_stiffness"),
    ("assembly", "constraint_matrix", "assembly.constraint_matrix"),
    ("assembly", "assemble_interface", "assembly.assemble_interface"),
    ("qp", "solve_qp", "qp.solve_qp"),
    ("qp", "factorize", "qp.factorize"),
    ("qp", "project_feasible", "qp.project_feasible"),
    ("energetics", "project_feasible", "qp.project_feasible"),
)

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux


class Probe:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[list] = []
        self._open = [-1]  # indices of the spans enclosing the current call
        self.setup_done: float | None = None
        self.step_stamps: list[float] = []

    def span(self, name: str, fn, value=None):
        """fn wrapped to record one span per call; value(result, args) sets its value."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1], None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if value is not None:
                rec[4] = value(out, args)
            return out

        return wrapper

    def _build_simulation(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.setup_done = clock()
            return out

        return wrapper

    def _run(self, fn):
        stamps = self.step_stamps

        @functools.wraps(fn)
        def wrapper(*args, on_step=None, **kwargs):
            def stamp(state, report):
                stamps.append(clock())
                if on_step is not None:
                    on_step(state, report)

            stamps.append(clock())
            return fn(*args, on_step=stamp, **kwargs)

        return wrapper

    def _factorize_value(self, factor, args):
        factor.solve = self.span("qp.linear_solve", factor.solve)

    def install(self, modules: dict) -> None:
        """Patch the delam2d modules given by short name ("cli", "qp", ...)."""
        harness = modules["harness"]
        harness.build_simulation = self._build_simulation(harness.build_simulation)
        harness.run = self._run(harness.run)
        if not self.tracing:
            return
        values = {
            "qp.solve_qp": lambda sol, args: sol.iterations,
            "stepper.delamination_step": lambda out, args: int((out[0] < args[2]).sum()),
            "qp.factorize": self._factorize_value,
        }
        for module, attr, name in PATCH_POINTS:
            mod = modules[module]
            setattr(mod, attr, self.span(name, getattr(mod, attr), values.get(name)))
