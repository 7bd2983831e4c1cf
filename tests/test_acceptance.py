"""Acceptance battery for the benchmark configuration.

Each test checks one release criterion at its stated tolerance and
prints a single PASS/FAIL line with the measured value, so a verbose
(or -s) run reads as a checklist.  The heavy fixtures (the full
benchmark run and the 27/54/81 refinement ladder) are shared across
tests.

Two checks are red on this parameter set, deliberately: with the
benchmark's literal mode sensitivity lambda = 0.333 the Mode II / Mode I
toughness ratio is 4.007266..., which misses both the nominal 4.005
+/- 1e-3 window and the [1, 4] mixity-ratio band that hold for
lambda = 1/3 exactly.  The checks keep their nominal tolerances instead
of widening them to fit; see README for the analysis.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import REPO_ROOT
from delam2d import (
    config_hash,
    mixity_histogram,
    run_convergence,
    run_single,
)
from delam2d.constitutive import AdhesiveLaw
from delam2d.harness import CURVE_SET, _level_config
from delam2d.stepper import ENERGY_TOL_FACTOR
from test_assembly import (
    UNIT_MATERIAL,
    boundary_node_set,
    generator_meshes,
    linear_field,
)
from references import ledger_scale, semistability_check
from test_qp import assert_matches_oracle, random_instance

import scipy.sparse.linalg as spla

from delam2d.assembly import assemble_stiffness, make_dofmap

BASELINE_DIR = Path(__file__).parent / "baselines"


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def toughness_ratio(mode_sensitivity: float) -> float:
    law = AdhesiveLaw(
        kappa_n=150e9,
        kappa_t=75e9,
        mode1_toughness=187.5,
        mode_sensitivity=mode_sensitivity,
    )
    return float(law.threshold(math.pi / 2)) / float(law.threshold(0.0))


@pytest.fixture(scope="module")
def ladder(benchmark_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_ladder")
    return out, run_convergence(benchmark_config, out, levels=(27, 54, 81))


def test_01_mode_toughness_ratio_exact_third():
    ratio = toughness_ratio(1.0 / 3.0)
    err = abs(ratio - 4.0)
    verdict(
        "mode toughness ratio, lambda = 1/3",
        err <= 1e-9,
        f"a(pi/2)/a(0) = {ratio!r}, |ratio - 4| = {err:.3e} (tol 1e-9)",
    )


def test_01b_mode_toughness_ratio_benchmark_lambda():
    # red by design: the exact ratio at lambda = 0.333 is 4.0072661783,
    # 2.27e-3 away from the nominal 4.005 target
    ratio = toughness_ratio(0.333)
    err = abs(ratio - 4.005)
    verdict(
        "mode toughness ratio, lambda = 0.333",
        err <= 1e-3,
        f"a(pi/2)/a(0) = {ratio!r}, |ratio - 4.005| = {err:.3e} (tol 1e-3)",
    )


def test_02_qp_solver_matches_bruteforce_oracle():
    rng = np.random.default_rng(20260817)
    worst_active_mismatch = 0
    for k in range(1000):
        problem = random_instance(rng, max_dofs=12, max_cons=6)
        try:
            assert_matches_oracle(problem, tol=1e-10)
        except AssertionError as err:
            worst_active_mismatch += 1
            verdict("QP oracle equivalence", False, f"instance {k}: {err}")
    verdict(
        "QP oracle equivalence",
        worst_active_mismatch == 0,
        "1000/1000 random instances (<= 12 dofs, <= 6 constraints) match "
        "the exhaustive active-set oracle within 1e-10 scaled",
    )


def test_03_linear_patch_fields_on_every_generator_mesh():
    fields = [
        (np.array([[0.31, -0.12], [0.07, 0.23]]), np.array([0.05, -0.4])),
        (np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([-1.0, 2.0])),
    ]
    worst = 0.0
    for name, mesh in generator_meshes():
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        dofmap = make_dofmap(mesh, boundary_node_set(mesh), np.zeros(2))
        free, presc = dofmap.free, dofmap.prescribed
        lu = spla.splu(K[free][:, free].tocsc())
        for gradient, offset in fields:
            exact = linear_field(mesh, gradient, offset)
            u = np.zeros(mesh.n_dofs)
            u[presc] = exact[presc]
            u[free] = lu.solve(-(K[free][:, presc] @ exact[presc]))
            err = np.abs(u - exact).max() / max(1.0, np.abs(exact).max())
            worst = max(worst, err)
            assert err <= 1e-10, f"{name}: {err:.3e}"
    verdict(
        "linear patch test",
        worst <= 1e-10,
        f"{len(generator_meshes())} generator meshes x {len(fields)} linear "
        f"fields, worst scaled error {worst:.3e} (tol 1e-10)",
    )


def test_04_per_step_energy_inequality(benchmark_result):
    traj, ledger = benchmark_result.trajectory, benchmark_result.ledger
    residuals = np.array([rep.energy.inequality_residual for rep in traj.reports])
    tol = ENERGY_TOL_FACTOR * ledger_scale(ledger)[1:]
    violations = int((residuals < -tol).sum())
    verdict(
        "per-step energy inequality",
        violations == 0,
        f"{violations} violations over {traj.n_steps} steps; worst margin "
        f"{(residuals + tol).min():.3e} (tol -{ENERGY_TOL_FACTOR:g} x running energy scale)",
    )


def test_05_semistability_zero_violations(benchmark_result, benchmark_states):
    ops = benchmark_result.ops
    violations = 0
    worst = math.inf
    for state in benchmark_states:
        for _, ok, margin in semistability_check(ops, state):
            violations += 0 if ok else 1
            if math.isfinite(margin):
                worst = min(worst, margin)
    n_checks = len(benchmark_states) * ops.n_segments
    verdict(
        "semistability",
        violations == 0,
        f"{violations} violations over {n_checks} segment-step checks; "
        f"worst finite margin {worst:.3e}",
    )


def test_06_bond_monotone_and_no_penetration(benchmark_result, benchmark_states):
    ops, states = benchmark_result.ops, benchmark_states
    monotone = all(np.all(b.z <= a.z) for a, b in zip(states[:-1], states[1:]))
    min_gap = min(float(ops.constraint.gaps(s.u).min()) for s in states)
    verdict(
        "unidirectionality and feasibility",
        monotone and min_gap >= -1e-10,
        f"z componentwise nonincreasing: {monotone}; recomputed min interface "
        f"gap {min_gap:.3e} m (tol -1e-10)",
    )


def test_07_energy_gap_nonnegative_and_nondecreasing(benchmark_result):
    ledger = benchmark_result.ledger
    tol = ENERGY_TOL_FACTOR * ledger_scale(ledger)
    nonneg = bool((ledger.gap >= -tol).all())
    worst_drop = float(np.diff(ledger.gap).min())
    nondecreasing = bool((np.diff(ledger.gap) >= -tol[1:]).all())
    grows = ledger.gap[-1] > 0.0
    verdict(
        "work-minus-energy gap",
        nonneg and nondecreasing and grows,
        f"gap in [{ledger.gap.min():.3e}, {ledger.gap[-1]:.3e}] J/m, "
        f"worst step decrease {worst_drop:.3e}, final value positive: {grows}",
    )


def test_08a_complete_delamination(benchmark_result):
    traj = benchmark_result.trajectory
    t_full = traj.t_full_debond
    fully = t_full is not None and not traj.last.z.any()
    verdict(
        "complete delamination",
        fully,
        f"t_full_debond = {t_full}, final bonded fraction "
        f"{float(traj.last.z.mean()):.3f}",
    )


def test_08b_mixity_ratios_within_mode_bounds(benchmark_result):
    # red by design: at lambda = 0.333 the pure-shear ceiling is
    # 4.0072661783, so late Mode II segments land just above 4
    mix = mixity_histogram(benchmark_result.ops, benchmark_result.trajectory)
    deb = mix.debonded.astype(bool)
    lo, hi = float(mix.ratio[deb].min()), float(mix.ratio[deb].max())
    verdict(
        "mixity ratio range",
        1.0 - 1e-12 <= lo and hi <= 4.0 + 1e-12,
        f"dissipation ratios span [{lo:.6f}, {hi:.6f}] (band [1, 4])",
    )


def test_08c_mode_mix_shifts_from_opening_to_shear(benchmark_result):
    # the front starts near the loaded edge close to Mode I and moves
    # inward toward Mode II, so positional group means must be ordered
    mix = mixity_histogram(benchmark_result.ops, benchmark_result.trajectory)
    deb = mix.debonded.astype(bool)
    x, ratio, t_deb = mix.x_mid[deb], mix.ratio[deb], mix.debond_time[deb]
    glue_end = x.max()
    near_load = x >= 0.75 * glue_end
    mid_bar = (x >= 0.35 * glue_end) & (x <= 0.65 * glue_end)
    ratio_ordered = ratio[near_load].mean() < ratio[mid_bar].mean()
    time_ordered = t_deb[near_load].mean() < t_deb[mid_bar].mean()
    verdict(
        "mode mix drifts toward shear",
        ratio_ordered and time_ordered,
        f"near-load mean ratio {ratio[near_load].mean():.3f} (debonds first, "
        f"t = {t_deb[near_load].mean():.3f}) vs mid-bar {ratio[mid_bar].mean():.3f} "
        f"(t = {t_deb[mid_bar].mean():.3f})",
    )


def test_09_energy_curves_cauchy_and_norms_bounded(ladder):
    _, report = ladder
    decreasing, ratio_max = report["distances_decrease"], report["norm_ratio_max"]
    verdict(
        "refinement ladder 27/54/81",
        decreasing and ratio_max < 2.0,
        f"aggregate energy-curve distances {[f'{d:.4f}' for d in report['aggregate']]} "
        f"decreasing: {decreasing}; trajectory-norm max/min ratio {ratio_max:.4f} (< 2)",
    )


def test_10_bitwise_deterministic_reruns(benchmark_result, ladder):
    # the ladder's finest level re-runs the benchmark configuration in a
    # separate directory, so the two runs must agree byte for byte on
    # every CSV (meta.json differs in recorded input provenance only)
    out, _ = ladder
    other = out / "level_081"
    level_cfg = _level_config(benchmark_result.config, 81)
    assert config_hash(level_cfg) == config_hash(benchmark_result.config)
    mismatched = []
    for name in ("energies.csv", "forces.csv", "mixity.csv"):
        a = (benchmark_result.out_dir / name).read_bytes()
        b = (other / name).read_bytes()
        if a != b:
            mismatched.append(name)
    snaps_a = sorted(p.name for p in (benchmark_result.out_dir / "snapshots").iterdir())
    snaps_b = sorted(p.name for p in (other / "snapshots").iterdir())
    if snaps_a != snaps_b:
        mismatched.append("snapshots/")
    else:
        mismatched.extend(
            f"snapshots/{n}"
            for n in snaps_a
            if (benchmark_result.out_dir / "snapshots" / n).read_bytes()
            != (other / "snapshots" / n).read_bytes()
        )
    verdict(
        "bitwise determinism",
        not mismatched,
        "two single-threaded benchmark runs wrote identical CSV bytes"
        if not mismatched
        else f"files differ: {mismatched}",
    )


def test_11_curves_match_committed_baseline(benchmark_config, tmp_path):
    config = _level_config(benchmark_config, 27)
    run_single(config, tmp_path / "fresh")
    worst = 0.0
    for name in ("energies", "forces"):
        fresh = (tmp_path / "fresh" / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        frozen = (
            (BASELINE_DIR / f"level27_{name}.csv").read_text(encoding="utf-8").splitlines()
        )
        assert fresh[0] == frozen[0], f"{name}: baseline is for a different configuration"
        assert fresh[1] == frozen[1], f"{name}: column set changed"
        a = np.array([[float(v) for v in ln.split(",")] for ln in fresh[2:]])
        b = np.array([[float(v) for v in ln.split(",")] for ln in frozen[2:]])
        assert a.shape == b.shape, f"{name}: row count changed"
        scale = np.maximum(1e-12, np.abs(b).max(axis=0))
        worst = max(worst, float((np.abs(a - b) / scale).max()))
    verdict(
        "committed baseline regression",
        worst <= 1e-9,
        f"energy and force curves match the committed 27-segment baseline; "
        f"worst column-scaled deviation {worst:.3e} (tol 1e-9)",
    )
