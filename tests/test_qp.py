import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from delam2d import qp
from delam2d.qp import (
    QpNonconvergenceError,
    QpProblem,
    brute_force_qp,
    factorize,
    kkt_check,
    project_feasible,
    solve_qp,
)


def random_instance(rng, max_dofs=12, max_cons=6, scale_spread=2.0):
    """Feasible random strictly convex QP: x0 below is always admissible."""
    n = int(rng.integers(1, max_dofs + 1))
    m = int(rng.integers(0, max_cons + 1))
    A = rng.normal(size=(n, n))
    H = A @ A.T + (0.1 + rng.uniform()) * np.eye(n)
    H *= 10.0 ** rng.uniform(-scale_spread, scale_spread)
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-scale_spread, scale_spread)
    B = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    # mix of tight and slack constraints at the feasible anchor
    slack = rng.uniform(0.0, 1.0, size=m) * (rng.random(size=m) < 0.7)
    c = slack - B @ x0
    return QpProblem(H=H, g=g, B=B, c=c)


def assert_matches_oracle(problem, tol=1e-10):
    sol = solve_qp(problem, tol=tol)
    ref = brute_force_qp(problem, tol=tol)
    scale = 1.0 + float(np.abs(ref.x).max(initial=0.0))
    err = float(np.abs(sol.x - ref.x).max(initial=0.0))
    assert err <= 1e-10 * scale, f"minimizer off by {err:.3e} (scale {scale:.3e})"
    assert sol.active_set == ref.active_set, (
        f"active sets differ: {sol.active_set} vs {ref.active_set}"
    )
    return sol, ref


def assert_same_solution(a, b, label):
    assert np.array_equal(a.x, b.x), label
    assert np.array_equal(a.multipliers, b.multipliers), label
    assert a.active_set == b.active_set, label
    assert a.iterations == b.iterations, label


class TestOracleEquivalence:
    def test_thousand_seeded_instances(self):
        rng = np.random.default_rng(20240817)
        for k in range(1000):
            problem = random_instance(rng)
            try:
                assert_matches_oracle(problem)
            except AssertionError as err:
                raise AssertionError(f"instance {k}: {err}") from err

    def test_unconstrained(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            problem = random_instance(rng, max_cons=0)
            sol, ref = assert_matches_oracle(problem)
            assert sol.active_set == ()

    def test_duplicate_rows_degenerate(self):
        # Identical rows make the multipliers non-unique; the active set
        # read off the final slacks must still agree between solvers.
        rng = np.random.default_rng(2)
        for _ in range(50):
            base = random_instance(rng, max_dofs=6, max_cons=3)
            if base.m == 0:
                continue
            B = np.vstack([base.B, base.B[0]])
            c = np.concatenate([base.c, base.c[:1]])
            assert_matches_oracle(QpProblem(H=base.H, g=base.g, B=B, c=c))

    def test_all_constraints_active(self):
        H = np.eye(2)
        g = np.array([1.0, 1.0])  # pulls toward (-1, -1)
        B = np.eye(2)
        c = np.zeros(2)  # x >= 0
        sol, ref = assert_matches_oracle(QpProblem(H=H, g=g, B=B, c=c))
        assert np.allclose(sol.x, [0.0, 0.0], atol=1e-12)
        assert sol.active_set == (0, 1)

    def test_sparse_operands(self):
        # Dense and sparse copies of the same operands take one code path,
        # so they give bitwise-equal results, and both match the oracle.
        rng = np.random.default_rng(3)
        sizes = set()
        for k in range(40):
            dense = random_instance(rng, max_dofs=8, max_cons=4)
            sizes.add(dense.m)
            problem = QpProblem(
                H=sp.csc_matrix(dense.H),
                g=dense.g,
                B=sp.csr_matrix(dense.B),
                c=dense.c,
            )
            sol_d, sol_s = solve_qp(dense), solve_qp(problem)
            assert_same_solution(sol_d, sol_s, f"instance {k}")
            ref = brute_force_qp(dense)
            assert np.abs(sol_s.x - ref.x).max() <= 1e-10 * (1 + np.abs(ref.x).max())
            if dense.m:
                x0 = rng.normal(size=dense.n)
                assert np.array_equal(
                    project_feasible(dense.B, dense.c, x0),
                    project_feasible(problem.B, problem.c, x0),
                ), f"instance {k}"
        assert 0 in sizes and len(sizes) > 2  # unconstrained and constrained draws


class TestFactorColumnCache:
    def test_reused_factor_matches_fresh_factors(self):
        # One H and one B object over a sequence of right-hand sides, as in
        # the time steps of one bond field: the factor's cached columns must
        # give the bits of a fresh factorization per call.
        rng = np.random.default_rng(13)
        for k in range(40):
            base = random_instance(rng, max_dofs=10, max_cons=6)
            factor = factorize(base.H)
            warm_reused = warm_fresh = None
            for step in range(4):
                x0 = rng.normal(size=base.n)
                slack = rng.uniform(0.0, 1.0, size=base.m) * (rng.random(size=base.m) < 0.7)
                problem = QpProblem(
                    H=base.H, g=rng.normal(size=base.n), B=base.B, c=slack - base.B @ x0
                )
                reused = solve_qp(problem, warm_start=warm_reused, factor=factor)
                fresh = solve_qp(problem, warm_start=warm_fresh)
                assert_same_solution(reused, fresh, f"instance {k}, step {step}")
                warm_reused, warm_fresh = reused.active_set, fresh.active_set

    def test_another_B_object_clears_the_cache(self):
        # Same shape, other rows: columns cached by row index alone would
        # belong to the first B and give a wrong minimizer.
        rng = np.random.default_rng(14)
        cached = 0
        for k in range(40):
            first = random_instance(rng, max_dofs=6, max_cons=4)
            x0 = rng.normal(size=first.n)
            B = rng.normal(size=(first.m, first.n))
            second = QpProblem(H=first.H, g=first.g, B=B, c=-B @ x0)
            factor = factorize(first.H)
            solve_qp(first, factor=factor)
            cached += bool(factor.cols)
            assert_same_solution(
                solve_qp(second, factor=factor), solve_qp(second), f"instance {k}"
            )
        assert cached >= 10  # enough first solves left columns to go stale


class TestSolutionQuality:
    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            problem = random_instance(rng)
            sol = solve_qp(problem)
            assert sol.kkt.worst() <= 1e-8

    def test_feasibility(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            problem = random_instance(rng)
            sol = solve_qp(problem)
            if problem.m:
                c_scale = 1.0 + float(np.abs(problem.c).max())
                assert problem.slacks(sol.x).min() >= -1e-8 * c_scale

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            problem = random_instance(rng)
            sol = solve_qp(problem)
            for _ in range(5):
                v = rng.normal(size=problem.n)
                if problem.m:
                    v = project_feasible(problem.B, problem.c, v)
                assert sol.objective <= problem.objective(v) + 1e-8 * (
                    1.0 + abs(sol.objective)
                )

    def test_objective_trace_monotone(self):
        # Iterate k is the point a budget of k iterations stops at; the
        # objective must never rise from one iterate to the next.
        rng = np.random.default_rng(7)
        for _ in range(50):
            problem = random_instance(rng)
            sol = solve_qp(problem)
            trace = []
            for k in range(sol.iterations):
                with pytest.raises(QpNonconvergenceError) as err:
                    solve_qp(problem, max_iter=k)
                trace.append(problem.objective(err.value.x))
            trace.append(sol.objective)
            for a, b in zip(trace[:-1], trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))

    def test_multipliers_nonnegative_and_supported(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            problem = random_instance(rng)
            sol = solve_qp(problem)
            if problem.m:
                g_scale = 1.0 + float(np.abs(problem.g).max())
                assert sol.multipliers.min(initial=0.0) >= -1e-8 * g_scale
                off = np.setdiff1d(np.arange(problem.m), sol.active_set)
                assert np.all(sol.multipliers[off] == 0.0)


class TestWarmStart:
    def test_warm_start_reproduces_solution(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            problem = random_instance(rng)
            cold = solve_qp(problem)
            warm = solve_qp(problem, warm_start=cold.active_set)
            assert np.allclose(warm.x, cold.x, atol=1e-9 * (1 + np.abs(cold.x).max()))
            assert warm.active_set == cold.active_set
            assert warm.iterations <= cold.iterations + 1

    def test_bogus_warm_start_recovers(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            problem = random_instance(rng)
            if problem.m == 0:
                continue
            bogus = tuple(range(min(problem.m, problem.n)))
            cold = solve_qp(problem)
            warm = solve_qp(problem, warm_start=bogus)
            assert np.allclose(warm.x, cold.x, atol=1e-8 * (1 + np.abs(cold.x).max()))


class TestOneEqpPerWorkingSet:
    def test_warm_start_and_unblocked_step_reuse_their_solve(self, monkeypatch):
        # min 0.5 |x - (1, 1)|^2 with x0 <= 0.5 (row 0) and x1 >= 0 (row 1),
        # warm-started from both rows.  The seed's EQP minimizer (0.5, 0)
        # is feasible and accepted; its multiplier test drops row 1
        # (mu = -1); no row blocks the step to the minimizer (0.5, 1) of
        # {0}, whose multiplier test (mu = 0.5) ends the solve.  Two
        # nonempty working sets, so two Schur solves, in three iterations.
        sizes = []
        solve = qp.sla.solve

        def spy(S, rhs, **kwargs):
            sizes.append(len(rhs))
            return solve(S, rhs, **kwargs)

        monkeypatch.setattr(qp.sla, "solve", spy)
        problem = QpProblem(
            H=np.eye(2),
            g=-np.ones(2),
            B=np.array([[-1.0, 0.0], [0.0, 1.0]]),
            c=np.array([0.5, 0.0]),
        )
        sol = solve_qp(problem, warm_start=(0, 1))
        assert sizes == [2, 1]  # {0, 1}, then {0}
        assert sol.iterations == 3
        assert np.array_equal(sol.x, [0.5, 1.0])
        assert sol.active_set == (0,)


class TestTieRules:
    @pytest.mark.parametrize(
        "offsets, blocker",
        [
            ((0.0, 4e-16), 1),  # ratios a few ulps apart: the least one blocks
            ((4e-16, 0.0), 0),
            ((0.0, 4e-16, 1e-13), 2),
            ((0.0, 0.0), 0),  # an exact tie goes to the lower index
            ((0.0, 4e-16, 4e-16), 1),
        ],
    )
    def test_least_ratio_blocks_and_exact_ties_go_to_the_lower_index(self, offsets, blocker):
        # x <= 0.5 - offset per row, pulled toward x = 1: the first step is
        # blocked by rows whose ratios differ by a few ulps or not at all,
        # and the blocking row is the only one to carry a multiplier at the
        # solution
        m = len(offsets)
        problem = QpProblem(
            H=np.eye(1),
            g=np.array([-1.0]),
            B=-np.ones((m, 1)),
            c=0.5 - np.array(offsets),
        )
        sol = solve_qp(problem)
        assert sol.multipliers[blocker] > 0.0
        assert np.count_nonzero(sol.multipliers) == 1


class TestNonconvergence:
    def test_budget_exhaustion_raises_with_iterate(self):
        rng = np.random.default_rng(11)
        raised = 0
        for _ in range(200):
            problem = random_instance(rng)
            try:
                solve_qp(problem, max_iter=1)
            except QpNonconvergenceError as err:
                raised += 1
                assert err.x.shape == (problem.n,)
                assert err.iterations >= 1
        assert raised > 0  # budget of one cannot finish every instance

    def test_budget_allows_exactly_max_iter_iterations(self):
        # x <= 0.5 pulled toward x = 1: one iteration moves onto the bound,
        # a second certifies its multiplier
        problem = QpProblem(
            H=np.eye(1), g=np.array([-1.0]), B=-np.ones((1, 1)), c=np.array([0.5])
        )
        assert solve_qp(problem, max_iter=2).iterations == 2
        with pytest.raises(QpNonconvergenceError) as info:
            solve_qp(problem, max_iter=1)
        assert info.value.iterations == 1


class TestProjectFeasible:
    def test_projection_feasible(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            problem = random_instance(rng)
            if problem.m == 0:
                continue
            x = project_feasible(problem.B, problem.c, rng.normal(size=problem.n))
            c_scale = 1.0 + float(np.abs(problem.c).max())
            assert problem.slacks(x).min() >= -1e-10 * c_scale

    def test_disjoint_rows_in_one_sweep(self):
        # nodal rows touch disjoint dofs: one relaxed sweep settles both
        B = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
        c = np.array([-1.0, -4.0])
        x = project_feasible(B, c, np.zeros(3))
        slacks = B @ x + c
        assert slacks.min() >= 0.0
        assert slacks.max() <= 4.0  # no wild overshoot past the boundary

    def test_infeasible_raises(self):
        B = np.array([[1.0], [-1.0]])
        c = np.array([-1.0, -0.5])  # x >= 1 and x <= -0.5
        with pytest.raises(RuntimeError):
            project_feasible(B, c, np.array([0.0]))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            project_feasible(np.zeros((1, 2)), np.array([1.0]), np.zeros(2))


class TestKktCheck:
    def test_clean_point_reports_zero(self):
        H = np.eye(2)
        g = np.array([-1.0, 0.0])
        problem = QpProblem(H=H, g=g, B=np.zeros((0, 2)), c=np.zeros(0))
        res = kkt_check(problem, np.array([1.0, 0.0]), np.zeros(0))
        assert res.worst() <= 1e-15

    def test_detects_violations(self):
        H = np.eye(1)
        problem = QpProblem(
            H=H, g=np.array([0.0]), B=np.array([[1.0]]), c=np.array([-1.0])
        )
        res = kkt_check(problem, np.array([0.0]), np.array([0.0]))
        assert res.primal > 0.1  # x = 0 violates x >= 1


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_property_solver_agrees_with_oracle(seed):
    problem = random_instance(np.random.default_rng(seed))
    assert_matches_oracle(problem)
