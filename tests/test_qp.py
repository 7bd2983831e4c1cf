import itertools
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from delam2d import qp
from delam2d.qp import QpNonconvergenceError, factorize, project_feasible

from references import QpProblem, kkt_residuals, objective, solve


def nodal_rows(rng, m, n):
    """m x n rows of one or two random nonzeros each, on disjoint dofs (m <= n)."""
    two = rng.random(size=m) < 0.5
    two[np.cumsum(two) > n - m] = False  # the supports must fit in n dofs
    ends = np.cumsum(1 + two)
    dofs = rng.permutation(n)
    B = np.zeros((m, n))
    for i, (lo, hi) in enumerate(zip(ends - 1 - two, ends)):
        B[i, dofs[lo:hi]] = rng.normal(size=hi - lo)
    return B


def random_instance(rng, max_dofs=12, max_cons=6, scale_spread=2.0):
    """Feasible random strictly convex QP: x0 below is always admissible.

    Each row's support, of one or two dofs, comes from a disjoint
    partition of the dofs, as for nodal non-penetration rows.
    """
    n = int(rng.integers(1, max_dofs + 1))
    m = int(rng.integers(0, min(max_cons, n) + 1))
    A = rng.normal(size=(n, n))
    H = A @ A.T + (0.1 + rng.uniform()) * np.eye(n)
    H *= 10.0 ** rng.uniform(-scale_spread, scale_spread)
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-scale_spread, scale_spread)
    B = nodal_rows(rng, m, n)
    x0 = rng.normal(size=n)
    # mix of tight and slack constraints at the feasible anchor
    slack = rng.uniform(0.0, 1.0, size=m) * (rng.random(size=m) < 0.7)
    c = slack - B @ x0
    return QpProblem(H=H, g=g, B=B, c=c)


def brute_force_qp(problem, tol=1e-10):
    """Reference solve by enumerating all active subsets (m <= 20).

    For each subset the equality KKT system is solved; candidates must be
    primal feasible with nonnegative multipliers.  The minimizer is the
    feasible candidate of least objective.  Exponential cost, testing
    use only.
    """
    H, B = problem.H.toarray(), problem.B.toarray()
    g, c = problem.g, problem.c
    n, m = problem.n, problem.m
    if m > 20:
        raise ValueError(f"brute force supports at most 20 constraints, got {m}")

    cho = sla.cho_factor(H)
    x_unc = sla.cho_solve(cho, -g)
    x_unc += sla.cho_solve(cho, -g - H @ x_unc)
    g_scale = 1.0 + float(np.abs(g).max(initial=0.0)) + float(
        np.abs(H).max() * np.abs(x_unc).max(initial=0.0)
    )
    c_scale = 1.0 + float(np.abs(c).max(initial=0.0))

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            S = list(subset)
            if r:
                Bw = B[S]
                M = sla.cho_solve(cho, Bw.T)
                M += sla.cho_solve(cho, Bw.T - H @ M)
                schur = Bw @ M
                sv = sla.svdvals(schur)
                # dependent rows: some independent subset reaches the same
                # minimizer, so degenerate working sets can be skipped
                if sv[-1] <= 1e-12 * sv[0]:
                    continue
                try:
                    mu = sla.solve(schur, -(Bw @ x_unc + c[S]), assume_a="pos")
                except sla.LinAlgError:
                    continue
                x = x_unc + M @ mu
            else:
                x, mu = x_unc.copy(), np.zeros(0)
            if m and float((B @ x + c).min()) < -tol * c_scale:
                continue
            if r and float(mu.min()) < -tol * g_scale:
                continue
            obj = objective(problem, x)
            if best is None or obj < best[0]:
                mu_full = np.zeros(m)
                mu_full[S] = mu
                best = (obj, x, mu_full)
    if best is None:
        raise RuntimeError("no KKT candidate found; constraints look infeasible")
    _, x, mu = best
    return qp._build_solution(problem.B, problem.c, x, mu, 0, tol)


def assert_matches_oracle(problem, tol=1e-10):
    sol = solve(problem, tol=tol)
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

    def test_all_constraints_active(self):
        H = np.eye(2)
        g = np.array([1.0, 1.0])  # pulls toward (-1, -1)
        B = np.eye(2)
        c = np.zeros(2)  # x >= 0
        sol, ref = assert_matches_oracle(QpProblem(H=H, g=g, B=B, c=c))
        assert np.allclose(sol.x, [0.0, 0.0], atol=1e-12)
        assert sol.active_set == (0, 1)


def dense_projection(B, c, x0):
    """project_feasible on a dense B, one row and one entry at a time.

    Slacks sum each row's nonzeros in column order; squared row norms
    reduce the squared nonzeros with np.add.reduceat, as CSR row sums do.
    """
    x = np.array(x0, dtype=float)
    slacks = []
    for row, ci in zip(B, c):
        total = 0.0
        for b, xj in zip(row[row != 0.0].tolist(), x[row != 0.0].tolist()):
            total += b * xj
        slacks.append(total + ci)
    if min(slacks) >= -1e-12 * (1.0 + float(np.abs(c).max())):
        return x
    for row, s in zip(B, slacks):
        if s < 0.0:
            nz = row != 0.0
            norm2 = np.add.reduceat(row[nz] * row[nz], [0])[0]
            x[nz] -= 1.5 * (s / norm2) * row[nz]
    return x


class TestFactorColumnCache:
    def test_reused_factor_matches_fresh_factors(self):
        # One H and one B object over a sequence of right-hand sides, as in
        # the time steps of one bond field: the factor's cached columns must
        # give the bits of a fresh factorization per call.
        rng = np.random.default_rng(13)
        for k in range(40):
            base = random_instance(rng, max_dofs=10, max_cons=6)
            factor = factorize(base.H, base.B)
            warm_reused = warm_fresh = None
            for step in range(4):
                x0 = rng.normal(size=base.n)
                slack = rng.uniform(0.0, 1.0, size=base.m) * (rng.random(size=base.m) < 0.7)
                problem = QpProblem(
                    H=base.H, g=rng.normal(size=base.n), B=base.B, c=slack - base.B @ x0
                )
                reused = solve(problem, factor=factor, warm_start=warm_reused)
                fresh = solve(problem, warm_start=warm_fresh)
                assert_same_solution(reused, fresh, f"instance {k}, step {step}")
                warm_reused, warm_fresh = reused.active_set, fresh.active_set

    def test_rows_checked_once_per_factor(self, monkeypatch):
        # factorize checks B; steady solves with the factor check nothing more
        checks = []
        nodal_rows = qp._nodal_rows

        def spy(B):
            checks.append(B)
            return nodal_rows(B)

        monkeypatch.setattr(qp, "_nodal_rows", spy)
        problem = QpProblem(H=np.eye(2), g=-np.ones(2), B=np.eye(2), c=np.zeros(2))
        factor = factorize(problem.H, problem.B)
        assert len(checks) == 1
        for _ in range(3):
            solve(problem, factor=factor)
        assert len(checks) == 1


def perturbed(problem, rng, size=1e-3):
    """The problem with g moved by a relative size, H, B and c kept."""
    g = problem.g * (1.0 + size * rng.normal(size=problem.n))
    return QpProblem(H=problem.H, g=g, B=problem.B, c=problem.c)


class TestConvertedOperands:
    def test_steady_solves_build_no_sparse_matrix(self, monkeypatch):
        # Operands in CSC and canonical CSR with one factor: the solves
        # build no sparse matrix, and give the bits of fresh factors.
        rng = np.random.default_rng(16)
        base = random_instance(rng, max_dofs=12, max_cons=6)
        while base.m < 3:
            base = random_instance(rng, max_dofs=12, max_cons=6)
        problems = [base, perturbed(base, rng)]
        factor = factorize(base.H, base.B)

        def refuse(*args, **kwargs):
            raise AssertionError("solve_qp built a sparse matrix")

        monkeypatch.setattr(qp.sp, "csc_matrix", refuse)
        monkeypatch.setattr(qp.sp, "csr_matrix", refuse)
        sols, warm = [], None
        for problem in problems:
            sols.append(solve(problem, factor=factor, warm_start=warm))
            warm = sols[-1].active_set
        monkeypatch.undo()
        assert all(sol.active_set for sol in sols)  # the EQP and the stacking ran
        warm = None
        for problem, sol in zip(problems, sols):
            ref = solve(problem, warm_start=warm)
            assert_same_solution(sol, ref, "reused factor")
            warm = ref.active_set

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 160])
    def test_spd_solve_has_the_bits_of_scipy_solve(self, n):
        # Symmetric and roundoff-asymmetric Schur matrices, in C and in
        # Fortran order (the EQP passes a transposed slice).
        rng = np.random.default_rng(n)
        for k in range(8):
            A = rng.normal(size=(n, n))
            S = A @ A.T + 0.1 * np.eye(n)
            if k % 2:  # the upper triangle one ulp off the lower
                upper = np.triu_indices(n, 1)
                S[upper] = np.nextafter(S[upper], np.inf)
            rhs = rng.normal(size=n)
            ref = sla.solve(S, rhs, assume_a="pos")
            for layout in (np.ascontiguousarray(S), np.asfortranarray(S)):
                assert np.array_equal(qp._solve_spd(layout, rhs), ref), f"size {n}, case {k}"

    def test_spd_solve_raises_where_scipy_fails_or_warns(self):
        # singular, nearly singular (rcond below eps) and zero 1 x 1
        # matrices raise as scipy does; nodal rows never give the EQP one
        for S in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 2.0**-52]], [[0.0]]):
            S, rhs = np.array(S), np.ones(len(S))
            with warnings.catch_warnings():
                warnings.simplefilter("error", sla.LinAlgWarning)
                with pytest.raises((sla.LinAlgError, sla.LinAlgWarning)):
                    sla.solve(S, rhs, assume_a="pos")
            with pytest.raises(sla.LinAlgError):
                qp._solve_spd(S, rhs)

    def test_slacks_equal_direct_evaluation(self):
        rng = np.random.default_rng(17)
        for k in range(60):
            problem = random_instance(rng)
            sol = solve(problem)
            assert np.array_equal(sol.slacks, problem.B @ sol.x + problem.c), f"instance {k}"

    def test_reused_block_gives_the_bits_of_a_fresh_stack(self, monkeypatch):
        # A repeat that ends on the working set of the previous solve reuses
        # the factor's stacked columns instead of stacking them again; its
        # x must equal a fresh factor's, which stacks them anew.
        rng = np.random.default_rng(18)
        stacks = []
        column_stack = np.column_stack

        def spy(arrays):
            stacks.append(len(arrays))
            return column_stack(arrays)

        reused = 0
        for k in range(40):
            first = random_instance(rng, max_dofs=10, max_cons=6)
            factor = factorize(first.H, first.B)
            sol = solve(first, factor=factor)
            if factor.block is None:
                continue
            block = factor.block[1]
            second = perturbed(first, rng)
            monkeypatch.setattr(np, "column_stack", spy)
            repeat = solve(second, factor=factor, warm_start=sol.active_set)
            monkeypatch.undo()
            fresh = solve(second, warm_start=sol.active_set)
            assert_same_solution(repeat, fresh, f"instance {k}")
            if factor.block[1] is block:
                reused += 1
        assert reused >= 10
        assert len(stacks) < reused  # most repeats stacked nothing


class TestLoweredFactor:
    def test_lowered_factor_matches_a_fresh_factor(self):
        # H_b = H0 + sum_e a_e a_e^T over "segments" e with supports of two
        # or three dofs.  Releasing segments, a few more at each lowering,
        # lowers the factor by the new terms on the dofs they touch, down to
        # H = H_b - E_D^T Delta E_D, Delta all released terms; solve_qp with
        # it must match a fresh factor of H: x within 1e-12 of its size, the
        # same active set, and KKT residuals at solver level.
        rng = np.random.default_rng(31)
        worst, lowered = 0.0, 0
        for k in range(60):
            problem = random_instance(rng, max_dofs=16, max_cons=6, scale_spread=0.5)
            n = problem.n
            terms = []
            for _ in range(n):
                size = min(n, int(rng.integers(2, 4)))
                a = np.zeros(n)
                a[rng.choice(n, size=size, replace=False)] = rng.normal(size=size)
                terms.append(a)
            H_b = problem.H.toarray() + sum(np.outer(a, a) for a in terms)
            factor = factorize(sp.csc_matrix(H_b), problem.B)
            released: set[int] = set()
            for _ in range(3):
                now = set(rng.choice(n, size=min(2, n), replace=False).tolist()) - released
                released |= now
                drop = sum(np.outer(terms[e], terms[e]) for e in released)
                step = sum((np.outer(terms[e], terms[e]) for e in now), np.zeros((n, n)))
                dofs = np.flatnonzero(np.abs(step).sum(axis=0))
                if not factor.lower(dofs, step[np.ix_(dofs, dofs)]):
                    break
                lowered += 1
                target = QpProblem(H=H_b - drop, g=problem.g, B=problem.B, c=problem.c)
                sol = solve(target, factor=factor)
                ref = solve(target)
                worst = max(worst, np.abs(sol.x - ref.x).max() / max(1.0, np.abs(ref.x).max()))
                assert sol.active_set == ref.active_set, f"instance {k}"
                res = kkt_residuals(target, sol.x, sol.multipliers)
                assert max(res) <= 1e-8, f"instance {k}"
        assert lowered >= 100
        assert worst <= 1e-12

    def test_two_increments_solve_as_one_fresh_factor(self):
        # H_b = H + a a^T + b b^T with overlapping supports: lowering by
        # a a^T, then by b b^T, leaves the factor of H, as if it were fresh.
        rng = np.random.default_rng(41)
        compared = 0
        for k in range(40):
            problem = random_instance(rng, max_dofs=12, max_cons=6, scale_spread=0.5)
            n = problem.n
            if n < 3:
                continue
            a, b = np.zeros(n), np.zeros(n)
            a[:2], b[1:3] = rng.normal(size=2), rng.normal(size=2)
            H_b = problem.H.toarray() + np.outer(a, a) + np.outer(b, b)
            factor = factorize(sp.csc_matrix(H_b), problem.B)
            assert factor.lower(np.arange(2), np.outer(a[:2], a[:2]))
            assert factor.lower(np.arange(1, 3), np.outer(b[1:3], b[1:3]))
            sol, ref = solve(problem, factor=factor), solve(problem)
            assert np.abs(sol.x - ref.x).max() <= 1e-12 * max(1.0, np.abs(ref.x).max())
            assert sol.active_set == ref.active_set, f"instance {k}"
            compared += 1
        assert compared >= 20

    def test_a_lowering_past_the_factor_size_is_refused(self):
        # Z may hold at most as many entries as the sparse factor: a lowering
        # that needs more columns leaves the factor as it was, so the next
        # increment adds to the lowering before it.
        factor = factorize(sp.diags(np.full(8, 4.0)).tocsc(), sp.csr_matrix((0, 8)))
        assert factor.max_rank == 2  # SuperLU stores 16 entries: the diagonals of L and U
        assert not factor.lower(np.array([0, 1, 2]), np.eye(3))
        assert factor._M is None and len(factor.dofs) == 0
        assert factor.lower(np.array([3]), np.ones((1, 1)))
        assert factor.lower(np.array([5]), np.full((1, 1), 2.0))
        M = factor._M
        assert not factor.lower(np.array([3, 5, 6]), np.eye(3))
        assert factor._M is M and factor.dofs.tolist() == [3, 5]
        x = qp.solve_qp(factor, -np.ones(8), np.zeros(0)).x
        assert np.allclose(x, [0.25] * 3 + [1.0 / 3.0, 0.25, 0.5, 0.25, 0.25], rtol=1e-15)
        assert factor.lower(np.array([5, 3]), np.diag([1.0, 0.0]))
        x = qp.solve_qp(factor, -np.ones(8), np.zeros(0)).x
        assert np.allclose(x, [0.25] * 3 + [1.0 / 3.0, 0.25, 1.0, 0.25, 0.25], rtol=1e-15)


class TestSolutionQuality:
    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            problem = random_instance(rng)
            sol = solve(problem)
            assert max(kkt_residuals(problem, sol.x, sol.multipliers)) <= 1e-8

    def test_feasibility(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            problem = random_instance(rng)
            sol = solve(problem)
            if problem.m:
                c_scale = 1.0 + float(np.abs(problem.c).max())
                assert (problem.B @ sol.x + problem.c).min() >= -1e-8 * c_scale

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            problem = random_instance(rng)
            sol = solve(problem)
            for _ in range(5):
                v = rng.normal(size=problem.n)
                if problem.m:
                    v = project_feasible(problem.B, problem.c, v)
                best = objective(problem, sol.x)
                assert best <= objective(problem, v) + 1e-8 * (1.0 + abs(best))

    def test_objective_trace_monotone(self):
        # Iterate k is the point a budget of k iterations stops at; the
        # objective must never rise from one iterate to the next.
        rng = np.random.default_rng(7)
        for _ in range(50):
            problem = random_instance(rng)
            sol = solve(problem)
            trace = []
            for k in range(sol.iterations):
                with pytest.raises(QpNonconvergenceError) as err:
                    solve(problem, max_iter=k)
                trace.append(objective(problem, err.value.x))
            trace.append(objective(problem, sol.x))
            for a, b in zip(trace[:-1], trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))

    def test_multipliers_nonnegative_and_supported(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            problem = random_instance(rng)
            sol = solve(problem)
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
            cold = solve(problem)
            warm = solve(problem, warm_start=cold.active_set)
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
            cold = solve(problem)
            warm = solve(problem, warm_start=bogus)
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
        solve_spd = qp._solve_spd

        def spy(S, rhs):
            sizes.append(len(rhs))
            return solve_spd(S, rhs)

        monkeypatch.setattr(qp, "_solve_spd", spy)
        problem = QpProblem(
            H=np.eye(2),
            g=-np.ones(2),
            B=np.array([[-1.0, 0.0], [0.0, 1.0]]),
            c=np.array([0.5, 0.0]),
        )
        sol = solve(problem, warm_start=(0, 1))
        assert sizes == [2, 1]  # {0, 1}, then {0}
        assert sol.iterations == 3
        assert np.array_equal(sol.x, [0.5, 1.0])
        assert sol.active_set == (0,)


class TestConstraintSpaceIteration:
    def test_degenerate_vertex_step_decided_in_n_space(self):
        # min 0.5 |x - (2, 0, 0, 0)|^2 with three rows through the vertex
        # (1, 0, 0, 0): x0 <= 1, x1 + x2 >= 0 and x3 >= 0, the last two
        # tight at the unconstrained minimizer.  The cold start (0.5, 0, 0, 0)
        # steps toward (2, 0, 0, 0) until row 0 blocks at the vertex, which
        # is the minimizer of the working set {0}: B d is zero, so the exact
        # n-space step test decides, and the multiplier test ends the solve.
        problem = QpProblem(
            H=np.eye(4),
            g=np.array([-2.0, 0.0, 0.0, 0.0]),
            B=np.array([[-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
            c=np.array([1.0, 0.0, 0.0]),
        )
        sol, ref = assert_matches_oracle(problem)
        assert np.array_equal(sol.x, [1.0, 0.0, 0.0, 0.0])
        assert sol.active_set == (0, 1, 2)
        assert np.array_equal(sol.multipliers, [1.0, 0.0, 0.0])
        assert sol.iterations == 2

    def test_solve_forms_the_working_columns_once(self, monkeypatch):
        # Nine iterations through several working sets run on m-vectors;
        # the n x k matrix of working columns is stacked once, for the
        # returned minimizer of the final working set.
        shapes = []
        column_stack = np.column_stack

        def spy(arrays):
            out = column_stack(arrays)
            shapes.append(out.shape)
            return out

        problem = random_instance(np.random.default_rng(110))
        monkeypatch.setattr(np, "column_stack", spy)
        sol = solve(problem)
        monkeypatch.undo()
        assert sol.iterations == 9
        assert shapes == [(problem.n, 4)]
        ref = brute_force_qp(problem)
        assert np.abs(sol.x - ref.x).max() <= 1e-10 * (1 + np.abs(ref.x).max())
        assert sol.active_set == ref.active_set


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
    def test_least_ratio_blocks_and_exact_ties_go_to_the_lower_index(
        self, offsets, blocker, monkeypatch
    ):
        # A hub dof y (last) tied by unit springs to one leaf x_i per tie
        # row and to ground; the unconstrained minimizer is all ones.  Tie
        # row i is 2^i (0.5 - offset - x_i) >= 0; the last row, y >= 0, is
        # the warm start.  Its EQP minimizer, zero, is feasible, and its
        # multiplier is negative, so the solve drops it and steps from zero
        # toward the ones, blocked by tie rows whose ratios differ by a few
        # ulps or not at all (the scales 2^i are exact).  The next Schur
        # solve is the blocker's own: 1 x 1, about 2 * 4^blocker.
        m = len(offsets)
        H = np.eye(m + 1)
        H[m, m], H[m, :m], H[:m, m] = m + 1.0, -1.0, -1.0
        scale = 2.0 ** np.arange(m)
        B = np.zeros((m + 1, m + 1))
        B[np.arange(m), np.arange(m)], B[m, m] = -scale, 1.0
        c = np.append(scale * (0.5 - np.array(offsets)), 0.0)
        g = -H @ np.ones(m + 1)
        schur = []
        solve_spd = qp._solve_spd

        def spy(S, rhs):
            schur.append(float(S[0, 0]) if len(rhs) == 1 else None)
            return solve_spd(S, rhs)

        monkeypatch.setattr(qp, "_solve_spd", spy)
        sol = solve(QpProblem(H=H, g=g, B=B, c=c), warm_start=(m,))
        monkeypatch.undo()
        assert schur[0] == pytest.approx(1.0)  # the warm start's row y >= 0
        assert schur[1] == pytest.approx(2.0 * 4.0**blocker)
        assert sol.multipliers[m] == 0.0


class TestNonconvergence:
    def test_budget_exhaustion_raises_with_iterate(self):
        rng = np.random.default_rng(11)
        raised = 0
        for _ in range(200):
            problem = random_instance(rng)
            try:
                solve(problem, max_iter=1)
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
        assert solve(problem, max_iter=2).iterations == 2
        with pytest.raises(QpNonconvergenceError) as info:
            solve(problem, max_iter=1)
        assert info.value.iterations == 1

    def test_the_error_pickles_with_its_rewritten_message_and_attributes(self):
        # a convergence worker's failure reaches the parent process pickled,
        # after stepper.run rewrote its message and set .trajectory
        err = QpNonconvergenceError("no convergence", np.arange(3.0), 7)
        err.args, err.trajectory = ("step 2 (t=0.1): no convergence",), "partial"
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is QpNonconvergenceError and back.args == err.args
        assert back.x.tolist() == [0.0, 1.0, 2.0] and back.iterations == 7
        assert back.trajectory == "partial"


class TestProjectFeasible:
    def test_projection_feasible(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            problem = random_instance(rng)
            if problem.m == 0:
                continue
            x = project_feasible(problem.B, problem.c, rng.normal(size=problem.n))
            c_scale = 1.0 + float(np.abs(problem.c).max())
            assert (problem.B @ x + problem.c).min() >= -1e-10 * c_scale

    @pytest.mark.parametrize("per_row", [1, 2], ids=["one_per_row", "two_per_row"])
    def test_closed_form_matches_dense_per_row_reference(self, per_row):
        # The pass reads rows from CSR; a dense row, summed and updated
        # entry by entry in column order, must give the same bits.
        rng = np.random.default_rng(15)
        moved = 0
        for _ in range(30):
            m = int(rng.integers(2, 6))
            n = per_row * m + int(rng.integers(0, 4))
            B = np.zeros((m, n))
            for i, dofs in enumerate(rng.permutation(n)[: per_row * m].reshape(m, per_row)):
                B[i, dofs] = rng.normal(size=per_row)
            x_feas = rng.normal(size=n)
            c = rng.uniform(0.0, 0.5, size=m) - B @ x_feas
            x0 = x_feas + rng.normal(size=n)
            x = project_feasible(sp.csr_matrix(B), c, x0)
            assert np.array_equal(x, dense_projection(B, c, x0))
            assert (B @ x + c).min() >= 0.0
            moved += not np.array_equal(x, x0)
        assert moved >= 20

    def test_disjoint_rows_in_one_sweep(self):
        # nodal rows touch disjoint dofs: one relaxed pass settles both
        B = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
        c = np.array([-1.0, -4.0])
        x = project_feasible(B, c, np.zeros(3))
        slacks = B @ x + c
        assert slacks.min() >= 0.0
        assert slacks.max() <= 4.0  # no wild overshoot past the boundary

    @pytest.mark.parametrize(
        "B",
        [
            np.array([[1.0, 0.0], [-1.0, 0.0]]),  # x0 >= 1 and x0 <= -0.5
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]])),  # coincident planes
        ],
        ids=["opposed", "overlapping", "coincident"],
    )
    def test_overlapping_rows_rejected(self, B):
        problem = QpProblem(H=np.eye(2), g=-np.ones(2), B=B, c=np.array([-1.0, -0.5]))
        with pytest.raises(ValueError, match="share a column"):
            solve(problem)
        with pytest.raises(ValueError, match="share a column"):
            project_feasible(problem.B, problem.c, np.zeros(2))

    def test_zero_row_rejected(self):
        for B, match in (
            (np.array([[1.0, 0.0], [0.0, 0.0]]), "no nonzero"),
            # a stored zero is refused as it stands, not cleaned up
            (sp.csr_matrix(([1.0, 0.0], ([0, 1], [0, 1])), shape=(2, 2)), "stored zeros"),
        ):
            problem = QpProblem(H=np.eye(2), g=-np.ones(2), B=B, c=np.array([-1.0, -0.5]))
            with pytest.raises(ValueError, match=match):
                solve(problem)
            with pytest.raises(ValueError, match=match):
                project_feasible(problem.B, problem.c, np.zeros(2))


class TestKktReference:
    def test_clean_point_reports_zero(self):
        H = np.eye(2)
        g = np.array([-1.0, 0.0])
        problem = QpProblem(H=H, g=g, B=np.zeros((0, 2)), c=np.zeros(0))
        res = kkt_residuals(problem, np.array([1.0, 0.0]), np.zeros(0))
        assert max(res) <= 1e-15

    def test_detects_violations(self):
        H = np.eye(1)
        problem = QpProblem(
            H=H, g=np.array([0.0]), B=np.array([[1.0]]), c=np.array([-1.0])
        )
        res = kkt_residuals(problem, np.array([0.0]), np.array([0.0]))
        assert res.primal > 0.1  # x = 0 violates x >= 1


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_property_solver_agrees_with_oracle(seed):
    problem = random_instance(np.random.default_rng(seed))
    assert_matches_oracle(problem)
