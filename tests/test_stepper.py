import collections
import dataclasses
import functools
import gc
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from delam2d import assembly, load_config, qp, stepper
from delam2d.constitutive import AdhesiveLaw, IsotropicElasticity, ViscosityLaw
from delam2d.harness import _level_config, build_simulation
from delam2d.mesh import build_benchmark_mesh
from delam2d.qp import QpNonconvergenceError
from delam2d.stepper import (
    InvariantViolation,
    State,
    build_operators,
    delamination_step,
    displacement_step,
    init_state,
    run,
    segment_energies,
)

from conftest import (
    REPO_ROOT,
    force_bond_increase,
    force_nan_drive,
    force_qp_budget,
    make_doc,
    run_with_states,
)
from references import kkt_residuals, solve, step_problem

from delam2d import parse_config


@pytest.fixture(scope="module")
def small_ops():
    config = parse_config(make_doc())
    return build_simulation(config)[1]


@pytest.fixture(scope="module")
def small_stepper_run(small_ops):
    return run_with_states(small_ops, tau=0.02, t_end=1.2)


@pytest.fixture(scope="module")
def small_traj(small_stepper_run):
    return small_stepper_run[0]


@pytest.fixture(scope="module")
def small_states(small_stepper_run):
    return small_stepper_run[1]


def toy_adhesive(**overrides):
    params = dict(
        kappa_n=2.0,
        kappa_t=1.0,
        mode1_toughness=1.0,
        mode_sensitivity=0.5,
        mixity_regularization=0.0,
    )
    params.update(overrides)
    return AdhesiveLaw(**params)


@pytest.fixture(scope="module")
def toy_ops():
    """Unit-ish moduli so delamination thresholds have closed forms."""
    mesh = build_benchmark_mesh(L=1.0, H=0.25, n_interface=4, glued_fraction=0.8)
    return build_operators(
        mesh,
        IsotropicElasticity(E=1.0, nu=0.3),
        ViscosityLaw(chi=1e-3),
        toy_adhesive(),
        np.zeros(2),
    )


def opening_field(ops, j):
    """Uniform normal opening of size j of every interface plus node."""
    u = np.zeros(ops.mesh.n_dofs)
    u[2 * ops.mesh.seg_plus + 1] = j
    return u


class TestInitState:
    def test_default_rest_intact(self, small_ops):
        state = init_state(small_ops)
        assert state.t == 0.0
        assert not state.u.any()
        assert np.all(state.z == 1.0)
        assert len(state.z) == small_ops.n_segments

    def test_scalar_partial_bond(self, small_ops):
        state = init_state(small_ops, z0=0.5)
        assert np.all(state.z == 0.5)

    def test_wrong_displacement_shape(self, small_ops):
        with pytest.raises(ValueError, match="shape"):
            init_state(small_ops, u0=np.zeros(3))

    def test_wrong_bond_shape(self, small_ops):
        with pytest.raises(ValueError, match="shape"):
            init_state(small_ops, z0=np.ones(small_ops.n_segments + 1))

    def test_bond_out_of_range(self, small_ops):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            init_state(small_ops, z0=1.5)

    def test_penetrating_start_rejected(self, small_ops):
        u = np.zeros(small_ops.mesh.n_dofs)
        node = small_ops.mesh.seg_plus[0, 0]
        u[2 * node + 1] = -1e-3
        with pytest.raises(ValueError, match="penetrat"):
            init_state(small_ops, u0=u)

    def test_boundary_mismatch_rejected(self, small_ops):
        u = np.zeros(small_ops.mesh.n_dofs)
        u[small_ops.dofmap.prescribed[0]] = 0.1
        with pytest.raises(ValueError, match="boundary"):
            init_state(small_ops, u0=u)

    @pytest.mark.parametrize(
        "where", ["z0", "z0_one_segment", "u0_interface", "u0_prescribed", "u0_interior"]
    )
    def test_nan_rejected(self, small_ops, where):
        # nothing compares true with NaN, so each check must be written to fail on it
        u = np.zeros(small_ops.mesh.n_dofs)
        z = np.ones(small_ops.n_segments)
        dofmap = small_ops.dofmap
        touched = dofmap.free[small_ops.constraint.rows.indices]
        dof = {
            "u0_interface": 2 * small_ops.mesh.seg_plus[0, 0] + 1,
            "u0_prescribed": dofmap.prescribed[0],
            "u0_interior": np.setdiff1d(dofmap.free, touched)[0],
        }.get(where)
        if dof is not None:
            u[dof] = np.nan
        elif where == "z0_one_segment":
            z[0] = np.nan
        else:
            z = np.nan
        with pytest.raises(ValueError):
            init_state(small_ops, u0=u, z0=z)

    def test_nan_bond_fails_the_run_before_its_first_step(self, small_ops):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run(small_ops, tau=0.02, t_end=0.1, z0=np.nan)


class TestDisplacementStep:
    def test_zero_drive_stays_at_rest(self, toy_ops):
        state = init_state(toy_ops)
        u, sol = displacement_step(toy_ops, state, tau=0.1, t_next=0.1)
        assert not u.any()
        problem = step_problem(toy_ops, state, tau=0.1, t_next=0.1)
        assert max(kkt_residuals(problem, sol.x, sol.multipliers)) <= 1e-10

    def test_nonpositive_tau_rejected(self, small_ops):
        state = init_state(small_ops)
        with pytest.raises(ValueError, match="positive"):
            displacement_step(small_ops, state, tau=0.0, t_next=0.1)

    def test_first_step_feasible_with_certificate(self, small_ops):
        state = init_state(small_ops)
        u, sol = displacement_step(small_ops, state, tau=0.02, t_next=0.02)
        problem = step_problem(small_ops, state, tau=0.02, t_next=0.02)
        assert max(kkt_residuals(problem, sol.x, sol.multipliers)) <= 1e-8
        gaps = small_ops.constraint.gaps(u)
        assert float(gaps.min()) >= -1e-10
        presc = small_ops.dofmap.prescribed
        assert np.allclose(u[presc], small_ops.dofmap.prescribed_values(0.02))

    def test_large_tau_approaches_elastic_equilibrium(self):
        config = parse_config(make_doc())
        ops_visc = build_simulation(config)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            elastic = dataclasses.replace(
                config, material=dataclasses.replace(config.material, chi=0.0)
            )
            ops_elast = build_simulation(elastic)[1]
        t_next = 0.4
        state_v = init_state(ops_visc)
        state_e = init_state(ops_elast)
        u_e, _ = displacement_step(ops_elast, state_e, tau=1.0, t_next=t_next)
        scale = float(np.abs(u_e).max())
        errs = []
        for tau in (1e2, 1e6, 1e10):
            u_v, _ = displacement_step(ops_visc, state_v, tau=tau, t_next=t_next)
            errs.append(float(np.abs(u_v - u_e).max()) / scale)
        assert errs[2] <= 1e-8
        assert errs[0] >= errs[1] >= errs[2]

    def test_prescribed_penetration_detected(self):
        # fully glued bar: the bottom-right corner is both driven and an
        # interface node, so compressive drive penetrates the foundation
        mesh = build_benchmark_mesh(L=1.0, H=0.25, n_interface=4, glued_fraction=1.0)
        ops = build_operators(
            mesh,
            IsotropicElasticity(E=1.0, nu=0.3),
            ViscosityLaw(chi=1e-3),
            toy_adhesive(),
            np.array([0.0, -1.0]),
        )
        state = init_state(ops)
        with pytest.raises(InvariantViolation, match="penetrate"):
            displacement_step(ops, state, tau=0.1, t_next=0.1)

    def test_nan_prescribed_values_detected(self):
        # the same fully glued bar, driven at a NaN rate: no gap of its fixed
        # interface nodes compares true, and the solve must not go on
        mesh = build_benchmark_mesh(L=1.0, H=0.25, n_interface=4, glued_fraction=1.0)
        ops = build_operators(
            mesh,
            IsotropicElasticity(E=1.0, nu=0.3),
            ViscosityLaw(chi=1e-3),
            toy_adhesive(),
            np.array([0.0, np.nan]),
        )
        with pytest.raises(ValueError, match="boundary drive at t=0"):
            init_state(ops)  # the drive at t = 0 is NaN too
        rest = State(t=0.0, u=np.zeros(mesh.n_dofs), z=np.ones(ops.n_segments))
        with pytest.raises(InvariantViolation, match=r"penetrate .*\(worst gap nan\)"):
            displacement_step(ops, rest, tau=0.1, t_next=0.1)


class TestDelaminationStep:
    def test_rest_keeps_bond(self, toy_ops):
        z = np.ones(toy_ops.n_segments)
        z_next, drive, threshold, psi = delamination_step(
            toy_ops, np.zeros(toy_ops.mesh.n_dofs), z
        )
        assert np.all(z_next == z)
        assert not drive.any()
        assert np.all(threshold > 0.0)
        assert not psi.any()

    def test_uniform_opening_releases_above_threshold(self, toy_ops):
        # glue energy density (1/2) kappa_n j^2 = 2 a_I beats a(0) = a_I
        j = np.sqrt(4.0 * 1.0 / 2.0)
        z = np.ones(toy_ops.n_segments)
        z_next, drive, threshold, psi = delamination_step(
            toy_ops, opening_field(toy_ops, j), z
        )
        assert np.all(z_next == 0.0)
        assert np.all(drive > threshold)
        assert np.allclose(psi, 0.0)
        assert np.allclose(drive, 2.0 * toy_ops.mesh.seg_length, rtol=1e-12)

    def test_exact_tie_keeps_bond(self, toy_ops):
        # j = 1 makes the density (1/2)*2*1 exactly the toughness a_I = 1
        z = np.ones(toy_ops.n_segments)
        z_next, drive, threshold, _ = delamination_step(
            toy_ops, opening_field(toy_ops, 1.0), z
        )
        assert np.all(drive == threshold)
        assert np.all(z_next == 1.0)

    def test_below_threshold_keeps_bond(self, toy_ops):
        z = np.ones(toy_ops.n_segments)
        z_next, drive, threshold, _ = delamination_step(
            toy_ops, opening_field(toy_ops, 0.5), z
        )
        assert np.all(drive < threshold)
        assert np.all(z_next == 1.0)

    def test_sliding_pays_mode2_price(self, toy_ops):
        # pure sliding: psi = pi/2, threshold doubles at sensitivity 1/2
        u = np.zeros(toy_ops.mesh.n_dofs)
        u[2 * toy_ops.mesh.seg_plus] = 1.9
        z = np.ones(toy_ops.n_segments)
        z_next, drive, threshold, psi = delamination_step(toy_ops, u, z)
        assert np.allclose(psi, np.pi / 2)
        assert np.allclose(threshold, 2.0 * toy_ops.mesh.seg_length, rtol=1e-12)
        # density (1/2) kappa_t 1.9^2 = 1.805 < 2: survives where the same
        # energy in opening mode (threshold 1) would have released
        assert np.all(z_next == 1.0)
        assert np.all(drive > toy_ops.mesh.seg_length)

    def test_broken_segments_stay_broken(self, toy_ops):
        z = np.ones(toy_ops.n_segments)
        z[0] = 0.0
        z_next, *_ = delamination_step(toy_ops, opening_field(toy_ops, 10.0), z)
        assert z_next[0] == 0.0
        assert np.all(z_next <= z)


class TestRun:
    def test_zero_horizon_is_initial_state_only(self, small_ops):
        traj = run(small_ops, tau=0.02, t_end=0.0)
        assert traj.n_steps == 0
        assert traj.times == [0.0]
        assert traj.reports == []
        assert traj.t_full_debond is None

    def test_times_and_grid(self, small_traj):
        times = np.array(small_traj.times)
        assert np.all(np.diff(times) > 0)
        assert np.allclose(times, 0.02 * np.arange(len(times)))
        assert small_traj.times[-1] == pytest.approx(1.2)

    def test_bond_monotone_and_binary(self, small_states):
        for prev, state in zip(small_states, small_states[1:]):
            assert np.all(state.z <= prev.z)
            assert np.all((state.z == 0.0) | (state.z == 1.0))

    def test_full_debond_reached_and_flagged(self, small_traj, small_states):
        t_star = small_traj.t_full_debond
        assert t_star is not None
        k = small_traj.times.index(t_star)
        assert np.all(small_states[k].z == 0.0)
        assert small_states[k - 1].z.max() == 1.0

    def test_feasibility_throughout(self, small_traj):
        for report in small_traj.reports:
            assert report.min_gap >= -1e-10

    def test_reports_recompute(self, small_ops, small_traj, small_states):
        k = len(small_states) // 2
        report, state, prev = small_traj.reports[k - 1], small_states[k], small_states[k - 1]
        drive, _ = segment_energies(small_ops, state.u)
        assert report.t == state.t
        assert report.bonded_length == float(state.z @ small_ops.mesh.seg_length)
        energy, du = report.energy, state.u - prev.u
        assert energy.bulk_elastic == 0.5 * float(state.u @ (small_ops.K @ state.u))
        assert energy.interface_elastic == float(state.z @ drive)
        assert energy.viscous_increment == float(du @ (small_ops.V @ du)) / (state.t - prev.t)

    def test_release_record_recomputes(self, small_ops, small_traj, small_states):
        # each segment's release, recomputed from the states on either side of its step
        lengths = small_ops.mesh.seg_length
        released_ever = np.zeros(small_ops.n_segments, dtype=bool)
        for prev, state in zip(small_states, small_states[1:]):
            released = state.z < prev.z
            drive, psi = segment_energies(small_ops, state.u)
            threshold = small_ops.adhesive.threshold(psi) * lengths
            assert np.all(drive[released] > threshold[released])
            assert np.all(small_traj.release_time[released] == state.t)
            assert np.allclose(
                small_traj.release_mixity[released], psi[released], rtol=1e-12, atol=1e-15
            )
            assert np.array_equal(
                small_traj.release_density[released],
                threshold[released] / lengths[released] * prev.z[released],
            )
            released_ever |= released
        assert released_ever.all()  # the small run releases every segment

    def test_the_trajectory_keeps_only_the_first_and_last_states(self, small_traj, small_states):
        assert small_traj.first is small_states[0] and small_traj.last is small_states[-1]
        assert len(small_states) == small_traj.n_steps + 1

    def test_early_stop_at_full_debond(self, small_ops):
        traj = run(small_ops, tau=0.02, t_end=1.2, stop_after_full_debond=0.0)
        assert traj.t_full_debond is not None
        assert traj.times[-1] == traj.t_full_debond

    def test_early_stop_with_margin(self, small_ops):
        margin = 2 * 0.02
        traj = run(small_ops, tau=0.02, t_end=1.2, stop_after_full_debond=margin)
        assert traj.times[-1] == pytest.approx(traj.t_full_debond + margin)

    def test_deterministic_rerun(self, small_ops, small_traj, small_states):
        other, states = run_with_states(small_ops, tau=0.02, t_end=1.2)
        assert other.times == small_traj.times
        assert other.t_full_debond == small_traj.t_full_debond
        for a, b in zip(states, small_states, strict=True):
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(
                segment_energies(small_ops, a.u)[0], segment_energies(small_ops, b.u)[0]
            )
        for a, b in zip(other.reports, small_traj.reports, strict=True):
            assert np.array_equal(a.reaction, b.reaction)
            assert a.bonded_length == b.bonded_length
        for name in ("release_time", "release_mixity", "release_density"):
            assert np.array_equal(getattr(other, name), getattr(small_traj, name), equal_nan=True)

    def test_partial_start_debonds_earlier(self, small_ops, small_traj):
        traj = run(small_ops, tau=0.02, t_end=1.2, z0=0.5)
        assert traj.t_full_debond <= small_traj.t_full_debond

    def test_invalid_grid_rejected(self, small_ops):
        with pytest.raises(ValueError, match="positive"):
            run(small_ops, tau=-0.1, t_end=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            run(small_ops, tau=0.1, t_end=-1.0)

    def test_qp_budget_failure_names_the_step(self, monkeypatch):
        # compression drives the contact solve into an actual active-set
        # iteration, which a zero budget cannot finish
        config = parse_config(make_doc(loading={"direction": [-1.0, -0.6]}))
        ops = build_simulation(config)[1]
        force_qp_budget(monkeypatch, 1)
        with pytest.raises(QpNonconvergenceError, match=r"step 1 \(t="):
            run(ops, tau=0.02, t_end=0.2)

    def test_step_solve_is_held_to_the_feasibility_tolerance(self, small_ops, monkeypatch):
        # solve_qp's own tolerance is relative; the step passes the stepper's
        # 1e-10 m and leaves the iteration budget at solve_qp's default
        calls = []
        solve = qp.solve_qp

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(qp, "solve_qp", recorded)
        run(small_ops, tau=0.02, t_end=0.1)
        assert len(calls) == 5
        for kwargs in calls:
            assert kwargs["tol"] == stepper.FEASIBILITY_TOL == 1e-10
            assert "max_iter" not in kwargs

    @pytest.mark.parametrize(
        "source", ["qp_budget", "qp_budget_step_3", "prescribed_penetration", "step_check"]
    )
    def test_escaping_errors_carry_the_trajectory(self, source, monkeypatch):
        # Every error that escapes run names its step and carries the trajectory
        # so far: the completed steps, plus the failing one when its check failed.
        error, doc, step, n_states = {
            "qp_budget": (
                QpNonconvergenceError, make_doc(loading={"direction": [-1.0, -0.6]}), 1, 1
            ),
            "qp_budget_step_3": (QpNonconvergenceError, make_doc(), 3, 3),
            "prescribed_penetration": (
                InvariantViolation,
                make_doc(geometry={"glued_fraction": 1.0}, loading={"direction": [1.0, -0.6]}),
                1, 1,
            ),
            "step_check": (InvariantViolation, make_doc(), 3, 4),
        }[source]
        if source == "step_check":
            force_bond_increase(monkeypatch, step)
        if source.startswith("qp_budget"):
            force_qp_budget(monkeypatch, step)
        ops = build_simulation(parse_config(doc))[1]
        with pytest.raises(error) as info:
            run(ops, tau=0.02, t_end=0.2)
        assert str(info.value).startswith(f"step {step} (t={step * 0.02:.6g}): ")
        traj = info.value.trajectory
        assert len(traj.times) == len(traj.reports) + 1 == n_states
        assert traj.times == [k * 0.02 for k in range(n_states)]
        assert traj.first.t == 0.0 and traj.last.t == traj.times[-1]

    def test_a_nan_drive_fails_its_step(self, small_ops, monkeypatch):
        force_nan_drive(monkeypatch, 3)
        with pytest.raises(InvariantViolation, match=r"^step 3 \(t=0.06\): per-step energy"):
            run(small_ops, tau=0.02, t_end=0.2)

    @pytest.mark.parametrize(
        "entry", ["min_gap", "inequality_residual", "drive", "threshold", "z"]
    )
    def test_every_step_check_fails_on_nan(self, small_ops, entry):
        # the first step's check passes on its own inputs; a NaN in any of
        # them compares false everywhere and must fail the check all the same
        traj = run(small_ops, tau=0.02, t_end=0.02)
        old, new, report = traj.first, traj.last, traj.reports[0]
        _, drive, threshold, _ = delamination_step(small_ops, new.u, old.z)
        stepper._check_step(old, new, report, drive, threshold, 1.0)
        bonded = int(np.flatnonzero(new.z > 0.0)[0])
        if entry == "min_gap":
            report = dataclasses.replace(report, min_gap=np.nan)
        elif entry == "inequality_residual":
            energy = dataclasses.replace(report.energy, inequality_residual=np.nan)
            report = dataclasses.replace(report, energy=energy)
        elif entry == "z":
            z = new.z.copy()
            z[bonded] = np.nan
            new = State(t=new.t, u=new.u, z=z)
        else:
            values = {"drive": drive, "threshold": threshold}[entry].copy()
            values[bonded] = np.nan
            drive, threshold = (values, threshold) if entry == "drive" else (drive, values)
        with pytest.raises(InvariantViolation):
            stepper._check_step(old, new, report, drive, threshold, 1.0)

    @pytest.mark.parametrize("foundation", ["rigid", "two_body"])
    def test_reaction_is_the_driven_edge_force(self, foundation):
        # The device moves the driven edge by v * tau per step and nothing
        # else, so its work increment must equal reaction . (v * tau).  In
        # the two-body variant the lower body's clamped edge is prescribed
        # too; counting its reaction would cancel the driven edge's force.
        config = parse_config(make_doc(geometry={"foundation": foundation}))
        ops = build_simulation(config)[1]
        tau = config.time.tau
        traj = run(ops, tau=tau, t_end=10 * tau)
        step = config.loading.speed * np.array(config.loading.unit_direction()) * tau
        for rep in traj.reports:
            work = rep.energy.device_work_increment
            assert abs(work) > 0.0
            assert float(rep.reaction @ step) == pytest.approx(work, rel=1e-9)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"geometry": {"foundation": "two_body"}}, {"loading": {"direction": [-1.0, -0.6]}}],
        ids=["rigid", "two_body", "compressive"],
    )
    def test_step_slacks_are_the_gaps_of_the_expanded_solution(self, overrides, monkeypatch):
        # The step reads min_gap off the QP's slacks and expands x with the
        # prescribed values computed once per step; both must give the bits
        # of constraint.gaps and of scattering x with prescribed_values at
        # every step.
        ops = build_simulation(parse_config(make_doc(**overrides)))[1]
        seen = []
        step = stepper.displacement_step

        def spy(ops, state, tau, t_next, *args):
            u, sol = step(ops, state, tau, t_next, *args)
            seen.append((t_next, u, sol))
            return u, sol

        monkeypatch.setattr(stepper, "displacement_step", spy)
        traj = run(ops, tau=0.02, t_end=0.4)
        assert len(seen) == 20
        for (t, u, sol), report in zip(seen, traj.reports):
            gaps = ops.constraint.gaps(u)
            assert np.array_equal(sol.slacks, gaps)
            assert report.min_gap == float(gaps.min())
            assert np.array_equal(u, ops.dofmap.scatter(sol.x, ops.dofmap.prescribed_values(t)))


# The benchmark physics at level 27 with these overrides, across the
# configuration space the schema accepts.
LEVEL27_CASES = {
    "rigid": {},
    "two_body": {"geometry": {"foundation": "two_body"}},
    "right_glued": {"geometry": {"glued_from": "right"}},
    "lambda_0": {"adhesive": {"lambda": 0.0}},
    "eps_reg": {"adhesive": {"eps_reg": 1e-3}},
    "two_body_right_glued": {"geometry": {"foundation": "two_body", "glued_from": "right"}},
}


def level27_config(name):
    """The configuration of one of LEVEL27_CASES."""
    config = _level_config(load_config(REPO_ROOT / "benchmark.json"), 27)
    doc = json.loads(json.dumps(config.canonical))
    for section, fields in LEVEL27_CASES[name].items():
        doc[section].update(fields)
    return parse_config(doc)


@functools.lru_cache(maxsize=None)
def level27_case(name):
    """The operators, step, and full run and its states of one of LEVEL27_CASES."""
    config = level27_config(name)
    ops = build_simulation(config)[1]
    tau = config.time.tau
    return (ops, tau, *run_with_states(ops, tau=tau, t_end=config.time.T))


def bond_changes(states):
    """Whether each step of a run changed the bond field."""
    return [not np.array_equal(a.z, b.z) for a, b in zip(states[:-1], states[1:])]


@pytest.fixture(scope="module", params=["rigid", "two_body"])
def level27(request):
    """The benchmark physics at level 27 on either foundation, and a full run of it."""
    return level27_case(request.param)


def assert_lowered_solves_match_a_fresh_factor(ops, tau, states, steps):
    """Random release sets, grown one draw at a time from the intact bond
    field at each of the steps: every solve of the lowered factor must match
    a fresh factor of H(z) within 1e-12 of the solution's size, with the
    same active set, reaction and device work."""
    rng = np.random.default_rng(27)
    m = ops.n_segments
    compared = active = 0
    for k in steps:
        state = states[k]
        z = np.ones(m)
        op = stepper._StepOperator(ops, z, tau)
        for _ in range(3):
            z = z.copy()
            z[rng.choice(np.flatnonzero(z))] = 0.0
            op.set_bonds(z)
            if op.glue is None:
                break  # a new era: pinned bitwise in TestEraFactor
            fresh = stepper._StepOperator(ops, z, tau)
            t_next = state.t + tau
            u, sol = op.solve(state.u, t_next, None)
            u_ref, ref = fresh.solve(state.u, t_next, None)
            scale = np.abs(u_ref).max()
            assert np.abs(u - u_ref).max() <= 1e-12 * scale, (k, z)
            assert sol.active_set == ref.active_set, (k, z)
            r, w = op.boundary_work(state.u, u)
            r_ref, w_ref = fresh.boundary_work(state.u, u_ref)
            assert np.abs(r - r_ref).max() <= 1e-12 * np.abs(r_ref).max()
            assert w == pytest.approx(w_ref, rel=1e-11)
            compared += 1
            active += bool(sol.active_set)
    assert compared >= 4 and active >= 1


class TestEraFactor:
    """One factor per era: a release lowers the era's factor of H(z_b)."""

    @pytest.mark.parametrize("case", list(LEVEL27_CASES))
    def test_lowered_solves_match_a_fresh_factor(self, case):
        ops, tau, traj, states = level27_case(case)
        assert_lowered_solves_match_a_fresh_factor(ops, tau, states, (60, 110, 130))

    def test_lowered_solves_match_a_fresh_factor_at_the_benchmarks_level(self):
        # benchmark.json as it runs, at level 81
        config = _level_config(load_config(REPO_ROOT / "benchmark.json"), 81)
        ops, tau = build_simulation(config)[1], config.time.tau
        _, states = run_with_states(ops, tau=tau, t_end=330 * tau)
        assert_lowered_solves_match_a_fresh_factor(ops, tau, states, (150, 250, 330))

    def test_an_eras_own_bond_field_solves_with_the_plain_factor(self, level27):
        # At z == z_b the operator holds the factor of H(z) built as
        # (K + A(z) + V/tau) on the free dofs, unlowered, so x has the bits
        # of solve_qp with a plain factor; a new era begun by set_bonds has
        # the bits of an operator built afresh at its bond field.
        ops, tau, traj, states = level27
        state = states[100]
        z = np.ones(ops.n_segments)
        op = stepper._StepOperator(ops, z, tau)
        eras = 0
        while True:
            assert op.glue is None and op.factor._M is None
            plain = step_problem(ops, dataclasses.replace(state, z=z), tau, state.t + tau)
            assert (op.factor.base != plain.H).nnz == 0
            u, sol = op.solve(state.u, state.t + tau, None)
            ref = solve(plain)
            assert np.array_equal(sol.x, ref.x)
            u_new, _ = stepper._StepOperator(ops, z, tau).solve(state.u, state.t + tau, None)
            assert np.array_equal(u, u_new)
            eras += 1
            while z.any():  # release segments, left first, until a new era starts
                z = z.copy()
                z[np.flatnonzero(z)[0]] = 0.0
                op.set_bonds(z)
                if op.glue is None:
                    break
            else:
                break
        assert eras >= 2

    def test_releases_start_new_eras_within_the_factor_size(self, level27, monkeypatch):
        # Each bond change of a full run lowers the era's factor until its
        # dense block Z, one n-vector per dof touched by a release since the
        # era began, would hold more entries than the sparse factor; then a
        # new era starts.
        ops, tau, traj, states = level27
        seen = []
        set_bonds = stepper._StepOperator.set_bonds

        def spy(self, z):
            set_bonds(self, z)
            lu = self.factor._lu
            seen.append((self.factor, len(self.factor.dofs) * lu.shape[0], lu.nnz))

        monkeypatch.setattr(stepper._StepOperator, "set_bonds", spy)
        run(ops, tau=tau, t_end=traj.times[-1])
        changes = sum(bond_changes(states))
        assert len(seen) == changes
        eras = len(set(id(factor) for factor, _, _ in seen))  # all kept alive: ids differ
        assert 2 <= eras < changes
        assert all(entries <= nnz for _, entries, nnz in seen)


    def test_a_release_assembles_only_its_own_block(self, monkeypatch):
        # Over a full level-27 rigid run, each era assembles the interface
        # once, for its factorization, and each bond change builds one dense
        # glue block instead; a run that changes no bond builds none.
        ops, tau, traj, states = level27_case("rigid")
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in ((assembly, "assemble_interface"), (assembly, "glue_block"),
                             (qp, "factorize")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        run(ops, tau=tau, t_end=traj.times[-1])
        changed = bond_changes(states)
        assert calls["glue_block"] == sum(changed)
        assert calls["assemble_interface"] == calls["factorize"]
        assert 2 <= calls["factorize"] < sum(changed)

        calls.clear()
        run(ops, tau=tau, t_end=traj.times[changed.index(True)])  # ends before the first change
        assert calls == {"assemble_interface": 1, "factorize": 1}


def test_state_records_are_consistent(small_traj, small_states):
    for t, state in zip(small_traj.times, small_states, strict=True):
        assert state.t == t
        assert isinstance(state, State)


def test_the_per_step_record_does_not_grow_with_the_interface():
    # What a returned trajectory holds per step, before any release, at level
    # 81 (81 segments): the difference between runs of 40 and 20 steps, over
    # 20.  Scalar step reports hold about 620 B a step; reports that kept four
    # per-segment arrays held about 3,660 B.
    config = _level_config(load_config(REPO_ROOT / "benchmark.json"), 81)
    ops = build_simulation(config)[1]
    tau = config.time.tau

    def held(n_steps):
        tracemalloc.start()
        try:
            traj = run(ops, tau=tau, t_end=n_steps * tau)
            assert traj.n_steps == n_steps and traj.last.z.min() == 1.0  # no release yet
            gc.collect()
            with_traj = tracemalloc.get_traced_memory()[0]
            del traj
            gc.collect()
            return with_traj - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    per_step = (held(40) - held(20)) / 20
    assert 0 < per_step <= 1000, per_step
