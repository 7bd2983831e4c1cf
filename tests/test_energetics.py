import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from delam2d import parse_config, stepper
from delam2d.assembly import assemble_interface
from delam2d.constitutive import (
    AdhesiveLaw,
    IsotropicElasticity,
    ViscosityLaw,
    elasticity_tensor,
)
from delam2d.energetics import (
    build_ledger,
    mixity_histogram,
    momentum_residual,
    trajectory_norms,
)
from delam2d.harness import build_simulation
from delam2d.mesh import build_benchmark_mesh
from delam2d.qp import QpProblem, solve_qp
from delam2d.stepper import (
    State,
    Trajectory,
    _StepOperator,
    build_operators,
    init_state,
    run,
    segment_energies,
)

from conftest import make_doc, run_single_with_states, run_with_states
from references import (
    energy_inequality_residual,
    ledger_from_states,
    norms_from_states,
    semistability_check,
    stored_energy,
)
from test_stepper import level27_case, level27_config

# toughness ratio a(pi/2)/a_I of the benchmark law (lambda = 0.333)
MODE2_RATIO = 4.007266178288704


@pytest.fixture(scope="module")
def small_ops():
    return build_simulation(parse_config(make_doc()))[1]


@pytest.fixture(scope="module")
def small_stepper_run(small_ops):
    return run_with_states(small_ops, tau=0.02, t_end=1.2)


@pytest.fixture(scope="module")
def small_traj(small_stepper_run):
    return small_stepper_run[0]


@pytest.fixture(scope="module")
def small_states(small_stepper_run):
    return small_stepper_run[1]


def rest_trajectory(state):
    """The trajectory of a run that took no step from state."""
    return Trajectory(times=[state.t], reports=[], first=state, last=state)


def summed_norms(ops, states):
    """trajectory_norms summed over states, as run_single sums them."""
    norms = trajectory_norms(ops, states[0])
    for state in states[1:]:
        norms.add(state)
    return norms.values()


@pytest.fixture(scope="module")
def small_ledger(small_ops, small_traj):
    return build_ledger(small_ops, small_traj)


@pytest.fixture(scope="module")
def toy_ops():
    mesh = build_benchmark_mesh(L=1.0, H=0.25, n_interface=4, glued_fraction=0.8)
    return build_operators(
        mesh,
        IsotropicElasticity(E=1.0, nu=0.3),
        ViscosityLaw(chi=1e-3),
        AdhesiveLaw(
            kappa_n=2.0,
            kappa_t=1.0,
            mode1_toughness=1.0,
            mode_sensitivity=0.0,
            mixity_regularization=0.0,
        ),
        np.zeros(2),
    )


class TestStoredEnergy:
    def test_rest_is_zero(self, toy_ops):
        ok, phi = stored_energy(toy_ops, init_state(toy_ops))
        assert ok
        assert phi == 0.0

    def test_uniform_strain_closed_form(self, toy_ops):
        G = np.array([[0.31, -0.12], [0.2, 0.23]])
        u = (toy_ops.mesh.nodes @ G.T).ravel()
        z = np.zeros(toy_ops.n_segments)
        ok, phi = stored_energy(toy_ops, State(t=0.0, u=u, z=z))
        assert ok
        voigt = np.array([G[0, 0], G[1, 1], G[0, 1] + G[1, 0]])
        C = elasticity_tensor(toy_ops.elasticity)
        area = 1.0 * 0.25
        expected = 0.5 * float(voigt @ C @ voigt) * area
        assert phi == pytest.approx(expected, rel=1e-12)

    def test_penetration_flagged_infinite(self, toy_ops):
        u = np.zeros(toy_ops.mesh.n_dofs)
        node = toy_ops.mesh.seg_plus[0, 0]
        u[2 * node + 1] = -1e-3
        ok, phi = stored_energy(toy_ops, State(t=0.0, u=u, z=np.ones(toy_ops.n_segments)))
        assert not ok
        assert phi == math.inf

    def test_bond_outside_box_flagged(self, toy_ops):
        u = np.zeros(toy_ops.mesh.n_dofs)
        z = np.full(toy_ops.n_segments, 1.5)
        ok, phi = stored_energy(toy_ops, State(t=0.0, u=u, z=z))
        assert not ok
        assert phi == math.inf

    def test_interface_term_scales_with_bond(self, toy_ops):
        u = np.zeros(toy_ops.mesh.n_dofs)
        u[2 * toy_ops.mesh.seg_plus + 1] = 0.3
        _, phi_full = stored_energy(toy_ops, State(0.0, u, np.ones(toy_ops.n_segments)))
        _, phi_half = stored_energy(toy_ops, State(0.0, u, np.full(toy_ops.n_segments, 0.5)))
        _, phi_none = stored_energy(toy_ops, State(0.0, u, np.zeros(toy_ops.n_segments)))
        assert phi_half == pytest.approx(0.5 * (phi_full + phi_none), rel=1e-12)
        assert phi_none < phi_half < phi_full


class TestLedger:
    def test_dissipations_nondecreasing(self, small_ledger):
        assert small_ledger.viscous_dissipated[0] == 0.0
        assert small_ledger.interface_dissipated[0] == 0.0
        assert np.all(np.diff(small_ledger.viscous_dissipated) >= 0.0)
        assert np.all(np.diff(small_ledger.interface_dissipated) >= 0.0)

    def test_gap_nonnegative_and_nondecreasing(self, small_ledger):
        tol = 1e-8 * small_ledger.scale()
        assert np.all(small_ledger.gap >= -tol)
        assert np.all(np.diff(small_ledger.gap) >= -tol[1:])

    def test_gap_increments_match_step_records(self, small_traj, small_ledger):
        # ledger recomputes stored energies from states; its gap increments
        # must reproduce the stepper's per-step inequality residuals
        dgap = np.diff(small_ledger.gap)
        recorded = np.array(
            [rep.energy.inequality_residual for rep in small_traj.reports]
        )
        scale = small_ledger.scale()[1:]
        assert np.all(np.abs(dgap - recorded) <= 1e-10 * scale)

    def test_stored_matches_states(self, small_ops, small_states, small_ledger):
        for k in (0, len(small_states) // 2, -1):
            _, phi = stored_energy(small_ops, small_states[k])
            assert small_ledger.total_stored()[k] == pytest.approx(phi, rel=1e-12, abs=1e-30)

    def test_debond_dissipation_settles_after_full_release(self, small_traj, small_ledger):
        k = small_traj.times.index(small_traj.t_full_debond)
        tail = small_ledger.interface_dissipated[k:]
        assert np.all(tail == tail[0])
        assert tail[0] > 0.0

    def test_interface_dissipation_equals_released_density(
        self, small_ops, small_traj, small_ledger
    ):
        record = mixity_histogram(small_ops, small_traj)
        total = float(
            np.sum(
                record.dissipated_density[record.debonded]
                * small_ops.mesh.seg_length[record.debonded]
            )
        )
        assert small_ledger.interface_dissipated[-1] == pytest.approx(total, rel=1e-12)


class TestEnergyInequality:
    def test_degenerate_interval_is_zero(self, small_ops, small_traj):
        assert energy_inequality_residual(small_traj, 0.4, 0.4) == 0.0

    def test_full_interval_equals_final_gap(self, small_ops, small_traj, small_ledger):
        res = energy_inequality_residual(small_traj, 0.0, small_traj.times[-1])
        scale = float(small_ledger.scale()[-1])
        assert abs(res - small_ledger.gap[-1]) <= 1e-10 * scale

    def test_all_grid_pairs_nonnegative(self, small_ops, small_traj, small_ledger):
        times = small_traj.times
        tol = 1e-8 * float(small_ledger.scale()[-1])
        for i in range(0, len(times), 3):
            for j in range(i, len(times), 3):
                assert energy_inequality_residual(small_traj, times[i], times[j]) >= -tol

    def test_reversed_interval_rejected(self, small_ops, small_traj):
        with pytest.raises(ValueError, match="t1 <= t2"):
            energy_inequality_residual(small_traj, 0.5, 0.2)


class TestSemistability:
    def test_rest_state_passes(self, toy_ops):
        results = semistability_check(toy_ops, init_state(toy_ops))
        assert all(ok for _, ok, _ in results)

    def test_every_step_of_a_run_passes(self, small_ops, small_states):
        for k, state in enumerate(small_states):
            results = semistability_check(small_ops, state)
            assert all(ok for _, ok, _ in results), f"failure at index {k}"

    def test_debonded_segment_passes_vacuously(self, small_ops, small_traj, small_states):
        k = small_traj.times.index(small_traj.t_full_debond)
        results = semistability_check(small_ops, small_states[k])
        assert all(ok and margin == math.inf for _, ok, margin in results)

    def test_constructed_violation_reported(self, toy_ops):
        u = np.zeros(toy_ops.mesh.n_dofs)
        u[2 * toy_ops.mesh.seg_plus + 1] = 50.0
        results = semistability_check(toy_ops, State(0.0, u, np.ones(toy_ops.n_segments)))
        assert all(not ok for _, ok, _ in results)
        assert all(margin < 0 for _, ok, margin in results)


# Worst KKT defect a healthy step may show: roundoff, with a wide margin.
CERTIFICATE_TOL = 1e-12


def solve_step(ops, prev, t, B, c):
    """The state at t after prev, minimizing the step's energy under rows B x + c >= 0
    over the free dofs x in place of the run's own rows."""
    tau = t - prev.t
    free, presc = ops.dofmap.free, ops.dofmap.prescribed
    C = (ops.K + assemble_interface(ops.jump, ops.adhesive, prev.z) + ops.V / tau).tocsr()
    values = ops.dofmap.prescribed_values(t)
    g = C[free][:, presc] @ values - (ops.V @ prev.u)[free] / tau
    x = solve_qp(QpProblem(H=C[free][:, free].tocsc(), g=g, B=B, c=c)).x
    return State(t, ops.dofmap.scatter(x, values), prev.z)


def worst_defect(ops, states):
    """The certificate's worst value over every step of a run's states."""
    return max(momentum_residual(ops, a, b) for a, b in zip(states[:-1], states[1:]))


def mutated_run(monkeypatch, case, mutate):
    """The ops and states of a level-27 case run with the stepper changed by mutate(monkeypatch)."""
    mutate(monkeypatch)
    config = level27_config(case)
    ops = build_simulation(config)[1]
    return ops, run_with_states(ops, tau=config.time.tau, t_end=config.time.T)[1]


def viscous_divisor_doubled(monkeypatch):
    # g's viscous term divided by 2 tau, while the factored H keeps V / tau
    solve = _StepOperator.solve

    def mutant(self, *args):
        self.tau *= 2.0
        try:
            return solve(self, *args)
        finally:
            self.tau /= 2.0

    monkeypatch.setattr(_StepOperator, "solve", mutant)


def glue_decrement_scaled(monkeypatch):
    # set_bonds lowers the factor by the block of (1 + 1e-6) Delta
    block = stepper.assembly.glue_block
    monkeypatch.setattr(
        stepper.assembly, "glue_block", lambda jump, law, dz: block(jump, law, dz * (1.0 + 1e-6))
    )


def glue_correction_of_g_dropped(monkeypatch):
    # g misses the glue decrement's prescribed columns
    solve = _StepOperator.solve

    def mutant(self, *args):
        glue = self.glue
        if glue is not None:
            at, cols, *rest = glue
            self.glue = (at, 0.0 * cols, *rest)
        try:
            return solve(self, *args)
        finally:
            self.glue = glue

    monkeypatch.setattr(_StepOperator, "solve", mutant)


class TestMomentumResidual:
    """momentum_residual is the step's exact KKT certificate: roundoff on every
    healthy step, and far above it where the step solved another problem."""

    def test_roundoff_along_the_run(self, small_ops, small_states):
        assert worst_defect(small_ops, small_states) <= CERTIFICATE_TOL

    @pytest.mark.parametrize("case", ["rigid", "two_body", "right_glued", "lambda_0", "eps_reg"])
    def test_every_step_of_the_level27_cases_is_certified(self, case):
        ops, _, _, states = level27_case(case)
        assert worst_defect(ops, states) <= CERTIFICATE_TOL

    def test_every_step_is_certified_without_viscosity(self):
        doc = json.loads(json.dumps(level27_config("rigid").canonical))
        doc["material"]["chi"] = 0.0
        config = parse_config(doc)
        with pytest.warns(UserWarning, match="chi = 0"):
            ops = build_simulation(config)[1]
        _, states = run_with_states(ops, tau=config.time.tau, t_end=config.time.T)
        assert worst_defect(ops, states) <= CERTIFICATE_TOL

    @pytest.mark.parametrize(
        "case,mutate",
        [
            ("rigid", viscous_divisor_doubled),
            ("two_body", glue_decrement_scaled),
            ("right_glued", glue_correction_of_g_dropped),
        ],
    )
    def test_a_mutated_step_solve_is_flagged(self, case, mutate, monkeypatch):
        ops, states = mutated_run(monkeypatch, case, mutate)
        assert worst_defect(ops, states) > 100.0 * CERTIFICATE_TOL

    def test_a_pulled_down_node_shows_a_negative_multiplier(self, small_ops, small_states):
        # row i reversed (gap <= 0) holds down a node that would open: the
        # state is stationary and closes its gap, but its multiplier is < 0
        ops, prev, t = small_ops, small_states[4], small_states[5].t
        B, c = ops.constraint.rows, ops.constraint.offset(t)
        healthy = solve_step(ops, prev, t, B, c)
        assert momentum_residual(ops, prev, healthy) <= CERTIFICATE_TOL
        i = int(np.argmax(ops.constraint.gaps(healthy.u)))
        sign = np.where(np.arange(len(c)) == i, -1.0, 1.0)
        pulled = solve_step(ops, prev, t, sp.diags(sign) @ B, sign * c)
        assert ops.constraint.gaps(pulled.u)[i] == pytest.approx(0.0, abs=1e-15)
        assert momentum_residual(ops, prev, pulled) > 1e-6

    def test_a_pushed_up_node_breaks_complementarity(self, small_ops, small_states):
        # row i held at a gap above its free one: the state is stationary with
        # mu >= 0, but mu_i > 0 on a gap > 0
        ops, prev, t = small_ops, small_states[4], small_states[5].t
        B, c = ops.constraint.rows, ops.constraint.offset(t)
        gaps = ops.constraint.gaps(solve_step(ops, prev, t, B, c).u)
        i = int(np.argmax(gaps))
        lifted = c.copy()
        lifted[i] -= 2.0 * gaps[i]
        pushed = solve_step(ops, prev, t, B, lifted)
        assert ops.constraint.gaps(pushed.u)[i] == pytest.approx(2.0 * gaps[i], rel=1e-9)
        assert momentum_residual(ops, prev, pushed) > 1e-6

    def test_nan_comes_out(self, small_ops, small_states):
        prev, state = small_states[4:6]
        u = state.u.copy()
        u[small_ops.dofmap.free[0]] = np.nan
        assert math.isnan(momentum_residual(small_ops, prev, State(state.t, u, state.z)))

    def test_initial_index_rejected(self, small_ops, small_states):
        # the initial state paired with itself is no step
        with pytest.raises(ValueError, match="needs a step"):
            momentum_residual(small_ops, small_states[0], small_states[0])


class TestMixityHistogram:
    def test_full_run_all_released(self, small_ops, small_traj):
        record = mixity_histogram(small_ops, small_traj)
        assert record.debonded.all()
        assert np.all(np.isfinite(record.debond_time))
        assert np.all(record.ratio >= 1.0 - 1e-12)
        assert np.all(record.ratio <= MODE2_RATIO + 1e-12)
        assert np.all((record.mixity_angle >= 0.0) & (record.mixity_angle <= np.pi / 2))
        a_I = small_ops.adhesive.mode1_toughness
        assert np.allclose(record.dissipated_density, record.ratio * a_I, rtol=1e-12)

    def test_times_match_reports(self, small_ops, small_traj, small_states):
        record = mixity_histogram(small_ops, small_traj)
        for rep, state in zip(small_traj.reports, small_states[1:], strict=True):
            _, psi = segment_energies(small_ops, state.u)
            for e in rep.debonded:
                assert record.debond_time[e] == rep.t
                assert record.mixity_angle[e] == psi[e]

    def test_partial_run_leaves_nans(self, small_ops, small_traj):
        t_half = 0.5 * small_traj.t_full_debond
        traj = run(small_ops, tau=0.02, t_end=t_half)
        record = mixity_histogram(small_ops, traj)
        assert not record.debonded.all()
        intact = ~record.debonded
        assert np.all(np.isnan(record.debond_time[intact]))
        assert np.all(np.isnan(record.ratio[intact]))
        released = record.debonded
        assert np.all(np.isfinite(record.ratio[released]))

    def test_x_mid_matches_mesh(self, small_ops):
        record = mixity_histogram(small_ops, rest_trajectory(init_state(small_ops)))
        for e, (a, b) in enumerate(small_ops.mesh.seg_plus):
            pa, pb = small_ops.mesh.nodes[a], small_ops.mesh.nodes[b]
            assert record.x_mid[e] == pytest.approx(0.5 * (pa[0] + pb[0]), rel=1e-15)


class TestScalingSanity:
    def test_doubling_toughness_never_hastens_release(self):
        doc = make_doc()
        times = {}
        for a_I in (187.5, 375.0):
            doc["adhesive"]["a_I"] = a_I
            config = parse_config(doc)
            ops = build_simulation(config)[1]
            traj = run(ops, tau=0.02, t_end=1.2)
            record = mixity_histogram(ops, traj)
            times[a_I] = (record.debond_time, traj.t_full_debond)
        weak_t, weak_full = times[187.5]
        strong_t, strong_full = times[375.0]
        both = np.isfinite(weak_t) & np.isfinite(strong_t)
        assert np.all(strong_t[both] >= weak_t[both])
        assert strong_full is None or weak_full is None or strong_full >= weak_full


class TestTrajectoryNorms:
    def test_norms_finite_positive(self, small_ops, small_states):
        norms = summed_norms(small_ops, small_states)
        assert set(norms) == {
            "displacement_sup_h1",
            "displacement_rate_h1",
            "bond_sup",
            "bond_variation_l1",
        }
        for name, value in norms.items():
            assert np.isfinite(value) and value > 0.0, name

    def test_bond_norms_closed_form(self, small_ops, small_states):
        norms = summed_norms(small_ops, small_states)
        assert norms["bond_sup"] == 1.0
        glued_length = float(small_ops.mesh.seg_length.sum())
        # initial L1 mass plus one full release of every segment
        assert norms["bond_variation_l1"] == pytest.approx(2.0 * glued_length, rel=1e-12)

    def test_h1_norms_match_per_triangle_quadrature(self, small_ops, small_states):
        mesh = small_ops.mesh

        def h1_sq(u):
            # area * |(e11, e22, 2 e12)|^2 plus the vertex-rule L2 term, per triangle
            total = 0.0
            for tri in mesh.triangles:
                (x0, y0), (x1, y1), (x2, y2) = mesh.nodes[tri]
                det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
                b = np.array([y1 - y2, y2 - y0, y0 - y1]) / det
                c = np.array([x2 - x1, x0 - x2, x1 - x0]) / det
                ux, uy = u[2 * tri], u[2 * tri + 1]
                strain = np.array([b @ ux, c @ uy, c @ ux + b @ uy])
                area = 0.5 * det
                total += area * (strain @ strain) + area * (ux @ ux + uy @ uy) / 3.0
            return total

        rng = np.random.default_rng(5)
        noisy = [
            State(t, rng.normal(size=mesh.n_dofs), small_states[0].z) for t in (0.0, 0.5, 1.25)
        ]
        for states in (small_states, noisy):
            times = [s.t for s in states]
            sup = max(math.sqrt(h1_sq(s.u)) for s in states)
            rate_sq = h1_sq(states[0].u) + sum(
                (times[k] - times[k - 1])
                * h1_sq((states[k].u - states[k - 1].u) / (times[k] - times[k - 1]))
                for k in range(1, len(states))
            )
            norms = summed_norms(small_ops, states)
            assert norms["displacement_sup_h1"] == pytest.approx(sup, rel=1e-11)
            assert norms["displacement_rate_h1"] == pytest.approx(math.sqrt(rate_sq), rel=1e-11)

    def test_rest_trajectory_norms_vanish(self, small_ops):
        norms = trajectory_norms(small_ops, init_state(small_ops, z0=0.0)).values()
        assert norms["displacement_sup_h1"] == 0.0
        assert norms["bond_sup"] == 0.0
        assert norms["bond_variation_l1"] == 0.0


class TestSumsMatchReferences:
    @pytest.mark.parametrize("case", ["rigid", "two_body", "right_glued", "lambda_0", "eps_reg"])
    def test_ledger_and_norms_equal_the_from_states_references(self, case, tmp_path):
        # run_single sums the ledger from the step reports and the norms as
        # the states pass; both must carry the bits of the recomputation
        # from every state of the run.
        result, states = run_single_with_states(level27_config(case), tmp_path)
        ops, traj = result.ops, result.trajectory
        assert len(states) == traj.n_steps + 1
        assert any(rep.debonded for rep in traj.reports)  # releases are covered
        reference = ledger_from_states(ops, traj, states)
        for name in reference.__dataclass_fields__:
            assert np.array_equal(getattr(result.ledger, name), getattr(reference, name)), name
        assert result.norms == norms_from_states(ops, states)
