import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from delam2d import qp
from delam2d.assembly import (
    GAUSS_2PT,
    assemble_interface,
    assemble_stiffness,
    assemble_viscosity,
    constraint_matrix,
    dirichlet_map,
    glue_block,
    jump_operator,
    make_dofmap,
    node_dofs,
    triangle_operators,
)
from delam2d.constitutive import (
    AdhesiveLaw,
    IsotropicElasticity,
    ViscosityLaw,
    elasticity_tensor,
)
from delam2d.mesh import build_benchmark_mesh, build_two_body_mesh
from delam2d.stepper import build_operators, segment_energies

UNIT_MATERIAL = elasticity_tensor(IsotropicElasticity(E=1.0, nu=0.3))
GLUE = AdhesiveLaw(kappa_n=150e9, kappa_t=75e9, mode1_toughness=187.5, mode_sensitivity=0.333)


def generator_meshes():
    # "refined": the same bar at half the cell size, as the converge ladder builds it
    return [
        ("rigid", build_benchmark_mesh(0.25, 0.025, 9, 0.9)),
        ("rigid_right", build_benchmark_mesh(0.25, 0.025, 9, 0.9, glued_from="right")),
        ("rigid_refined", build_benchmark_mesh(0.25, 0.025, 18, 0.9)),
        ("two_body", build_two_body_mesh(0.25, 0.025, 9, 0.9)),
        ("two_body_refined", build_two_body_mesh(0.25, 0.025, 18, 0.9)),
        ("fully_glued", build_benchmark_mesh(0.3, 0.1, 6, 1.0)),
    ]


def linear_field(mesh, gradient, offset):
    """Nodal dof vector of u(x) = offset + gradient @ x."""
    u = mesh.nodes @ np.asarray(gradient).T + np.asarray(offset)
    return u.ravel()


def _boundary_edges(triangles):
    """Edges used by exactly one triangle, as sorted node pairs."""
    count: dict[tuple[int, int], int] = {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (int(min(u, v)), int(max(u, v)))
            count[key] = count.get(key, 0) + 1
    return {e for e, k in count.items() if k == 1}


def boundary_node_set(mesh):
    out = set()
    for a, b in _boundary_edges(mesh.triangles):
        out.add(a)
        out.add(b)
    return out


class TestPatchTest:
    @pytest.mark.parametrize("name,mesh", generator_meshes(), ids=lambda v: v if isinstance(v, str) else "")
    def test_linear_field_reproduced(self, name, mesh):
        gradient = np.array([[0.31, -0.12], [0.07, 0.23]])
        offset = np.array([0.05, -0.4])
        exact = linear_field(mesh, gradient, offset)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        dofmap = make_dofmap(mesh, boundary_node_set(mesh), np.zeros(2))
        free, presc = dofmap.free, dofmap.prescribed
        rhs = -K[free][:, presc] @ exact[presc]
        u = np.zeros(mesh.n_dofs)
        u[presc] = exact[presc]
        u[free] = spla.spsolve(K[free][:, free].tocsc(), rhs)
        err = np.abs(u - exact).max()
        assert err <= 1e-10 * max(1.0, np.abs(exact).max()), f"{name}: {err:.3e}"

    def test_two_body_patch_with_glue(self):
        # A continuous linear field has zero jump across the seam, so the
        # glue term must not disturb the patch solution.
        mesh = build_two_body_mesh(0.25, 0.025, 9, 0.9)
        gradient = np.array([[0.2, 0.1], [-0.05, 0.3]])
        offset = np.array([0.0, 0.1])
        exact = linear_field(mesh, gradient, offset)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        A = assemble_interface(
            jump_operator(mesh), GLUE, np.ones(len(mesh.seg_length))
        )
        KA = (K + A).tocsr()
        dofmap = make_dofmap(mesh, boundary_node_set(mesh), np.zeros(2))
        free, presc = dofmap.free, dofmap.prescribed
        u = np.zeros(mesh.n_dofs)
        u[presc] = exact[presc]
        u[free] = spla.spsolve(
            KA[free][:, free].tocsc(), -KA[free][:, presc] @ exact[presc]
        )
        assert np.abs(u - exact).max() <= 1e-10


class TestStiffness:
    def test_symmetry(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        assert abs(K - K.T).max() <= 1e-14

    def test_rigid_modes_in_nullspace(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        scale = abs(K).max()
        tx = np.tile([1.0, 0.0], mesh.n_nodes)
        ty = np.tile([0.0, 1.0], mesh.n_nodes)
        rot = np.column_stack([-mesh.nodes[:, 1], mesh.nodes[:, 0]]).ravel()
        for mode in (tx, ty, rot):
            assert np.abs(K @ mode).max() <= 1e-12 * scale * max(1.0, np.abs(mode).max())

    def test_uniform_strain_energy(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        e = np.array([0.3, -0.1, 0.25])  # (e11, e22, 2 e12)
        gradient = np.array([[e[0], 0.5 * e[2]], [0.5 * e[2], e[1]]])
        u = linear_field(mesh, gradient, np.zeros(2))
        area = 0.25 * 0.025
        expected = 0.5 * float(e @ UNIT_MATERIAL @ e) * area
        assert 0.5 * float(u @ (K @ u)) == pytest.approx(expected, rel=1e-12)

    def test_positive_semidefinite_sample(self):
        mesh = build_benchmark_mesh(0.2, 0.1, 4, 1.0)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=mesh.n_dofs)
            assert float(v @ (K @ v)) >= -1e-12 * float(v @ v)


class TestViscosity:
    def test_exact_multiple_of_stiffness(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        V = assemble_viscosity(K, 1e-3)
        assert abs(V - 1e-3 * K).max() == 0.0

    def test_rejects_negative(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        K = assemble_stiffness(mesh, UNIT_MATERIAL)
        with pytest.raises(ValueError):
            assemble_viscosity(K, -1.0)


def trace(u, nodes, s):
    """P1 trace at barycentric position s of the segment with endpoint nodes."""
    ua = u[node_dofs(np.array([nodes[0]]))].ravel()
    ub = u[node_dofs(np.array([nodes[1]]))].ravel()
    return (1.0 - s) * ua + s * ub


def jump_vectors(mesh, u):
    """(segment, Gauss point, xy) jump vectors rebuilt from J's n/t components."""
    comp = jump_operator(mesh).values(u)
    n = mesh.seg_normal[:, None, :]
    t = np.stack([-n[..., 1], n[..., 0]], axis=-1)
    return comp[..., :1] * n + comp[..., 1:] * t


class TestJumpRows:
    def test_rigid_jump_is_negated_body_trace(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        rng = np.random.default_rng(3)
        u = rng.normal(size=mesh.n_dofs)
        jumps = jump_vectors(mesh, u)
        for e, plus in enumerate(mesh.seg_plus):
            for g, s in enumerate(GAUSS_2PT):
                expected = -trace(u, plus, s)
                assert np.allclose(jumps[e, g], expected, atol=1e-14)

    def test_two_body_jump_is_minus_minus_plus(self):
        mesh = build_two_body_mesh(0.25, 0.025, 9, 0.9)
        rng = np.random.default_rng(4)
        u = rng.normal(size=mesh.n_dofs)
        jumps = jump_vectors(mesh, u)
        for e, (plus, minus) in enumerate(zip(mesh.seg_plus, mesh.seg_minus)):
            for g, s in enumerate(GAUSS_2PT):
                expected = trace(u, minus, s) - trace(u, plus, s)
                assert np.allclose(jumps[e, g], expected, atol=1e-14)


class TestInterfaceAssembly:
    @pytest.mark.parametrize("builder", [build_benchmark_mesh, build_two_body_mesh])
    def test_quadratic_form_matches_direct_quadrature(self, builder):
        mesh = builder(0.25, 0.025, 9, 0.9)
        rng = np.random.default_rng(11)
        u = 1e-4 * rng.normal(size=mesh.n_dofs)
        z = rng.uniform(0.0, 1.0, size=len(mesh.seg_length))
        z[3] = 0.0
        A = assemble_interface(jump_operator(mesh), GLUE, z)
        total = 0.0
        for e, (plus, minus, n) in enumerate(zip(mesh.seg_plus, mesh.seg_minus, mesh.seg_normal)):
            t = np.array([-n[1], n[0]])
            for s in GAUSS_2PT:
                jump = -trace(u, plus, s)
                if mesh.foundation != "rigid":
                    jump += trace(u, minus, s)
                density = 0.5 * (
                    GLUE.kappa_n * float(jump @ n) ** 2
                    + GLUE.kappa_t * float(jump @ t) ** 2
                )
                total += 0.5 * mesh.seg_length[e] * z[e] * density
        assert 0.5 * float(u @ (A @ u)) == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("builder", [build_benchmark_mesh, build_two_body_mesh])
    def test_glue_energy_is_bond_weighted_drive(self, builder):
        mesh = builder(0.25, 0.025, 9, 0.9)
        ops = build_operators(
            mesh,
            IsotropicElasticity(E=1.0, nu=0.3),
            ViscosityLaw(chi=1e-3),
            GLUE,
            np.zeros(2),
        )
        rng = np.random.default_rng(12)
        u = 1e-4 * rng.normal(size=mesh.n_dofs)
        z = rng.uniform(0.0, 1.0, size=ops.n_segments)
        z[2] = 0.0
        A = assemble_interface(ops.jump, GLUE, z)
        drive, _ = segment_energies(ops, u)
        assert 0.5 * float(u @ (A @ u)) == pytest.approx(float(z @ drive), rel=1e-12)

    def test_debonded_segments_absent(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        A = assemble_interface(jump_operator(mesh), GLUE, np.zeros(9))
        assert A.nnz == 0

    def test_positive_semidefinite(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        A = assemble_interface(jump_operator(mesh), GLUE, np.ones(9))
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=mesh.n_dofs)
            assert float(v @ (A @ v)) >= -1e-9

    def test_wrong_bond_length_rejected(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        with pytest.raises(ValueError):
            assemble_interface(jump_operator(mesh), GLUE, np.ones(5))


GLUE_BLOCK_MESHES = {
    "rigid": build_benchmark_mesh(0.25, 0.025, 9, 0.9),
    "rigid_right": build_benchmark_mesh(0.25, 0.025, 9, 0.9, glued_from="right"),
    "two_body": build_two_body_mesh(0.25, 0.025, 9, 0.9),
}


class TestGlueBlock:
    @pytest.mark.parametrize("name", sorted(GLUE_BLOCK_MESHES))
    def test_segment_rows_are_the_jump_matrix(self, name):
        # seg_rows[e] is rows 4e..4e+3 of the jump matrix on seg_dofs[e],
        # which hold every nonzero of those rows; neither array is writable.
        jump = jump_operator(GLUE_BLOCK_MESHES[name])
        J = jump.matrix.toarray()
        for e, (rows, dofs) in enumerate(zip(jump.seg_rows, jump.seg_dofs)):
            block = J[4 * e : 4 * e + 4]
            assert np.array_equal(block[:, dofs], rows)
            assert np.count_nonzero(block) == np.count_nonzero(rows)
        for arr in (jump.seg_rows, jump.seg_dofs):
            with pytest.raises(ValueError):
                arr[0] = 0

    @given(
        name=st.sampled_from(sorted(GLUE_BLOCK_MESHES)),
        released=st.sets(st.integers(0, 8), min_size=1),
        partial=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_block_is_the_sparse_decrement_on_the_released_dofs(
        self, name, released, partial, seed
    ):
        # Full (dz = 1) or partial (dz in (0, 1]) decrements on a released
        # set: D holds exactly the dofs of the released segments' nodes, on
        # both sides across two bodies, and the block scattered onto D is
        # assemble_interface of dz to within 1e-15 of its largest entry.
        mesh = GLUE_BLOCK_MESHES[name]
        jump = jump_operator(mesh)
        seg = sorted(released)
        dz = np.zeros(len(mesh.seg_length))
        dz[seg] = np.random.default_rng(seed).uniform(1e-3, 1.0, len(seg)) if partial else 1.0
        D, block = glue_block(jump, GLUE, dz)
        nodes = [mesh.seg_plus[seg]] + ([mesh.seg_minus[seg]] if name == "two_body" else [])
        assert np.array_equal(D, np.unique(node_dofs(np.concatenate(nodes))))
        A = assemble_interface(jump, GLUE, dz).toarray()
        scattered = np.zeros_like(A)
        scattered[np.ix_(D, D)] = block
        assert np.abs(scattered - A).max() <= 1e-15 * np.abs(A).max()

    def test_wrong_decrement_length_rejected(self):
        with pytest.raises(ValueError):
            glue_block(jump_operator(GLUE_BLOCK_MESHES["rigid"]), GLUE, np.ones(5))


class TestDofMap:
    def test_expand_roundtrip(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        dofmap = dirichlet_map(mesh, np.array([0.1, -0.2]))
        u = dofmap.scatter(np.arange(dofmap.n_free, dtype=float), dofmap.prescribed_values(2.0))
        assert np.allclose(u[dofmap.free], np.arange(dofmap.n_free))
        assert np.allclose(u[dofmap.prescribed][0::2], 0.2)
        assert np.allclose(u[dofmap.prescribed][1::2], -0.4)

    def test_rigid_drives_every_node(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        dofmap = dirichlet_map(mesh, np.array([0.1, -0.2]))
        assert dofmap.driven.all() and len(dofmap.driven) == len(mesh.dirichlet_nodes)
        assert np.array_equal(dofmap.rate, np.tile([0.1, -0.2], len(mesh.dirichlet_nodes)))

    def test_two_body_drives_body_zero_only(self):
        mesh = build_two_body_mesh(0.25, 0.025, 9, 0.9)
        dofmap = dirichlet_map(mesh, np.array([0.1, 0.2]))
        nodes = dofmap.prescribed[0::2] // 2
        assert np.array_equal(dofmap.driven, mesh.node_body[nodes] == 0)
        assert 0 < dofmap.driven.sum() < len(nodes)
        assert not dofmap.rate.reshape(-1, 2)[~dofmap.driven].any()
        for arr in (dofmap.rate, dofmap.driven):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_clamped_entries_keep_the_sign_of_the_drive(self, t):
        # the values a per-node callable t -> driven * (velocity * t) gave:
        # the clamped nodes' y entries are -0.0 under a negative y velocity
        mesh = build_two_body_mesh(0.25, 0.025, 9, 0.9)
        velocity = np.array([1e-3, -6e-4])
        dofmap = make_dofmap(mesh, mesh.dirichlet_nodes, velocity)
        nodes = np.array(sorted(mesh.dirichlet_nodes))
        driven = (mesh.node_body[nodes] == 0).astype(float)[:, None]
        values = dofmap.prescribed_values(t)
        assert values.tobytes() == (driven * (velocity * t)).ravel().tobytes()
        clamped_y = values[1::2][~dofmap.driven]
        assert clamped_y.size and not clamped_y.any() and np.signbit(clamped_y).all()

    def test_no_dirichlet_nodes_rejected(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        bare = dataclasses.replace(mesh, dirichlet_nodes=frozenset())
        with pytest.raises(ValueError):
            dirichlet_map(bare, np.zeros(2))


class TestConstraintMatrix:
    def test_rigid_gap_is_vertical_displacement(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        dofmap = dirichlet_map(mesh, np.zeros(2))
        con = constraint_matrix(mesh, dofmap)
        rng = np.random.default_rng(5)
        u = rng.normal(size=mesh.n_dofs)
        gaps = con.gaps(u)
        ends, first = mesh.interface_ends()  # every row has a free dof here
        expected = np.array([u[2 * plus + 1] for plus, _ in ends[first]])
        assert np.allclose(gaps, expected, atol=1e-14)

    def test_two_body_gap_is_relative_normal_jump(self):
        mesh = build_two_body_mesh(0.25, 0.025, 9, 0.9)
        dofmap = dirichlet_map(mesh, np.zeros(2))
        con = constraint_matrix(mesh, dofmap)
        rng = np.random.default_rng(6)
        u = rng.normal(size=mesh.n_dofs)
        gaps = con.gaps(u)
        # normal (0,-1): jump.n = (u_minus - u_plus).(0,-1) = u_plus_y - u_minus_y
        ends, first = mesh.interface_ends()  # every row has a free dof here
        expected = np.array([u[2 * p + 1] - u[2 * m + 1] for p, m in ends[first]])
        assert np.allclose(gaps, expected, atol=1e-14)

    def test_offset_consistent_with_gaps(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        dofmap = dirichlet_map(mesh, np.array([1e-4, 2e-4]))
        con = constraint_matrix(mesh, dofmap)
        u_free = np.random.default_rng(8).normal(size=dofmap.n_free)
        t = 3.0
        full = dofmap.scatter(u_free, dofmap.prescribed_values(t))
        offset = con.prescribed_part @ dofmap.prescribed_values(t)
        assert np.allclose(con.gaps(full), con.rows @ u_free + offset, atol=1e-12)

    def test_row_count_matches_interface_nodes(self):
        mesh = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        dofmap = dirichlet_map(mesh, np.zeros(2))
        con = constraint_matrix(mesh, dofmap)
        _, first = mesh.interface_ends()
        assert con.rows.shape[0] == len(first)

    @pytest.mark.parametrize("glued_fraction", [0.9, 1.0])
    @pytest.mark.parametrize("glued_from", ["left", "right"])
    @pytest.mark.parametrize("builder", [build_benchmark_mesh, build_two_body_mesh])
    def test_rows_are_nonzero_with_disjoint_supports(self, builder, glued_from, glued_fraction):
        # the contract solve_qp and project_feasible check; a glued
        # fraction of 1 reaches the driven edge, whose prescribed dofs
        # leave two-body rows with one nonzero and drop rigid rows
        mesh = builder(0.25, 0.025, 9, glued_fraction, glued_from=glued_from)
        con = constraint_matrix(mesh, dirichlet_map(mesh, np.zeros(2)))
        assert con.rows.shape[0] > 0
        assert qp._nodal_rows(con.rows) is con.rows  # already canonical, nothing copied
        assert set(np.diff(con.rows.indptr)) <= {1, 2}
        if glued_fraction == 1.0:
            assert con.prescribed_part.nnz + con.fixed.nnz > 0
