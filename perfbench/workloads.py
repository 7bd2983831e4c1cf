"""Seeded workload generator.

Each workload is a `delam2d run` configuration derived from the
repository's `benchmark.json`.  Seed 0 gives the unperturbed
configuration; any other seed rotates the drive direction and scales the
mode-I toughness a_I by a small amount drawn from the seed, small enough
that every workload keeps its expected debond outcome.  The simulator
receives only the generated configuration.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass

# Largest drive rotation (rad) and relative a_I change a seed may apply.
MAX_ROTATION = 0.01
MAX_TOUGHNESS_SCALE = 0.01

# Time step times bottom cell count, fixed along the refinement ladder
# (benchmark.json: tau = 1/450 with 90 bottom cells at level 81).
LADDER_TAU_CELLS = 90 / 450


@dataclass(frozen=True)
class Workload:
    name: str
    full_debond: bool  # expected outcome: full release (True) or none at all (False)


WORKLOADS = {
    w.name: w
    for w in (
        # benchmark.json: level 81, rigid, 450 steps, full release.  The
        # active-set QP takes about 80% of the wall time: 1,222
        # iterations, 4,634 factor solves and 45 factorizations, the first
        # and one per bond change.  A cross-step column cache or a bound-constrained
        # QP shows here.
        Workload("bench81", full_debond=True),
        # Level 162 (6,878 dofs), 100 steps, ending before the first release
        # at t = 0.32.  Sparse solves take most of the time and no bond
        # changes, so condensation onto the interface shows while a change
        # to the refactor-per-debond path should predict no change.
        Workload("fine162", full_debond=False),
        # Two-body level 27 at a tenth of the ladder time step: 1,500
        # steps, full release.  Linear algebra is only about a fifth of the
        # time; per-step Python work, the bond update, the whole-trajectory
        # ledger and norm passes and output writing dominate.  Constraint
        # rows couple two nodes, so a rigid-only bounds specialisation is
        # bypassed.
        Workload("twobody_long", full_debond=True),
    )
}

FINE162_STEPS = 100


def _bottom_cells(n_interface: int, glued_fraction: float) -> int:
    # Same rule as the mesh generator: nearest integer to n / fraction.
    return max(n_interface, round(n_interface / glued_fraction))


def _at_level(doc: dict, n_interface: int, tau_scale: float = 1.0) -> dict:
    """The configuration at another interface resolution, tau/h held at the ladder's."""
    out = copy.deepcopy(doc)
    out["geometry"]["n_interface"] = n_interface
    nx = _bottom_cells(n_interface, out["geometry"]["glued_fraction"])
    out["time"]["tau"] = LADDER_TAU_CELLS / nx * tau_scale
    return out


def _perturb(doc: dict, seed: int) -> dict:
    if seed == 0:
        return doc
    rng = random.Random(seed)
    angle = rng.uniform(-MAX_ROTATION, MAX_ROTATION)
    dx, dy = doc["loading"]["direction"]
    c, s = math.cos(angle), math.sin(angle)
    doc["loading"]["direction"] = [c * dx - s * dy, s * dx + c * dy]
    doc["adhesive"]["a_I"] *= 1.0 + rng.uniform(-MAX_TOUGHNESS_SCALE, MAX_TOUGHNESS_SCALE)
    return doc


def generate(name: str, seed: int, benchmark_doc: dict) -> dict:
    """Configuration document of workload `name` for `seed`."""
    doc = copy.deepcopy(benchmark_doc)
    if name == "fine162":
        doc = _at_level(doc, 162)
        doc["time"]["T"] = FINE162_STEPS * doc["time"]["tau"]
    elif name == "twobody_long":
        doc = _at_level(doc, 27, tau_scale=0.1)
        doc["geometry"]["foundation"] = "two_body"
    doc["outputs"] = {"directory": f"results/{name}"}
    return _perturb(doc, seed)


def write(name: str, seed: int, benchmark_path, out_path) -> None:
    with open(benchmark_path, encoding="utf-8") as f:
        doc = generate(name, seed, json.load(f))
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
