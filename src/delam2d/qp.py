"""Convex quadratic programs with inequality constraints.

Solves min 0.5 x.Hx + g.x subject to B x + c >= 0 for symmetric positive
definite H by a primal active-set method.  Each outer iteration solves
the equality-constrained subproblem of the current working set through
the Schur complement on the multipliers, reusing a single sparse LU
factorization of H.  The factor caches the columns H^{-1} B_i^T for its
life, so calls that pass it again with the same B object (the time steps
of one bond field) solve only for rows not seen yet; one B per cache, and
a call with a different B object clears it.

One sparse code path: solve_qp and project_feasible convert their
operands once, on entry, H to CSC and B to CSR of shape (m, n), so dense
and sparse copies of one problem give bitwise-equal results.

Determinism: two lowest-index rules make identical inputs give identical
iterates.  The ratio test blocks on the row of least ratio, the lowest
index among exact ties, when that ratio cuts the step short by more than
1e-15.  The removal rule drops the lowest-index working row of most
negative multiplier.  A brute-force oracle (dense subset enumeration,
usable up to 20 constraints) is the reference for testing.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "QpProblem",
    "QpSolution",
    "KktResiduals",
    "QpNonconvergenceError",
    "factorize",
    "solve_qp",
    "brute_force_qp",
    "kkt_check",
    "project_feasible",
]


class QpNonconvergenceError(RuntimeError):
    """Active-set iteration exhausted its budget; carries the last iterate."""

    def __init__(self, message: str, x: np.ndarray, iterations: int):
        super().__init__(message)
        self.x = x
        self.iterations = iterations


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 x.Hx + g.x  s.t.  B x + c >= 0.

    H must be symmetric positive definite (sparse or dense); B may have
    zero rows (unconstrained).  Rows of B are assumed linearly
    independent, which holds for nodal non-penetration rows with
    disjoint supports.
    """

    H: object
    g: np.ndarray
    B: object
    c: np.ndarray

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def m(self) -> int:
        return len(self.c)

    def objective(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ (self.H @ x)) + float(self.g @ x)

    def slacks(self, x: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0)
        return self.B @ x + self.c


@dataclass(frozen=True)
class KktResiduals:
    """Scaled optimality certificates; all should sit at solver tolerance."""

    stationarity: float
    primal: float
    dual: float
    complementarity: float

    def worst(self) -> float:
        return max(self.stationarity, self.primal, self.dual, self.complementarity)


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    active_set: tuple[int, ...]
    multipliers: np.ndarray  # length m, zero off the active set
    kkt: KktResiduals
    iterations: int
    objective: float


class _Factor:
    """SuperLU factor of H, converted to CSC on entry; each solve refines once.

    cols maps row i of the B object cols_of to H^{-1} B_i^T (see solve_qp).
    """

    def __init__(self, H):
        self.H = sp.csc_matrix(H, dtype=float)
        self._lu = spla.splu(self.H)
        self.cols_of = None
        self.cols: dict[int, np.ndarray] = {}

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._lu.solve(rhs)
        # one step of iterative refinement keeps residuals near machine level
        y += self._lu.solve(rhs - self.H @ y)
        return y


def factorize(H) -> _Factor:
    """Factor a symmetric positive definite matrix for repeated solves."""
    return _Factor(H)


def _scales(problem: QpProblem, x: np.ndarray) -> tuple[float, float]:
    g_scale = 1.0 + float(np.abs(problem.g).max(initial=0.0))
    Hx = problem.H @ x
    g_scale += float(np.abs(Hx).max(initial=0.0))
    c_scale = 1.0 + float(np.abs(problem.c).max(initial=0.0))
    if problem.m:
        c_scale += float(np.abs(problem.B @ x).max(initial=0.0))
    return g_scale, c_scale


def kkt_check(problem: QpProblem, x: np.ndarray, multipliers: np.ndarray) -> KktResiduals:
    """Scaled KKT residuals of a candidate point and multiplier vector.

    multipliers has one entry per constraint row (zeros off the active
    set).  Stationarity and dual residuals are scaled by the gradient
    magnitude, primal and complementarity by the constraint magnitude.
    """
    g_scale, c_scale = _scales(problem, x)
    grad = problem.H @ x + problem.g
    if problem.m:
        grad = grad - problem.B.T @ multipliers
        slacks = problem.slacks(x)
        primal = max(0.0, -float(slacks.min())) / c_scale
        dual = max(0.0, -float(multipliers.min())) / g_scale
        compl = float(np.abs(multipliers * slacks).max()) / (g_scale * c_scale)
    else:
        primal = dual = compl = 0.0
    stationarity = float(np.abs(grad).max(initial=0.0)) / g_scale
    return KktResiduals(stationarity, primal, dual, compl)


def _relaxed_sweeps(B, c, x, norms2, exit_tol, budget):
    """Over-relaxed cyclic half-space projections; returns (x, converged)."""
    relaxation = 1.5
    for _ in range(budget):
        slacks = B @ x + c
        if float(slacks.min()) >= -exit_tol:
            return x, True
        for i in np.nonzero(slacks < 0.0)[0]:
            row = B[i]
            s = float((row @ x)[0] + c[i])
            if s < 0.0:
                x = x - relaxation * (s / norms2[i]) * row.toarray().ravel()
    return x, False


def _feasibility_lp(B, c: np.ndarray, norms: np.ndarray):
    """Max-min-slack linear program deciding feasibility of B x + c >= 0.

    Maximizes delta subject to B x + c >= delta * row_norm with delta
    capped at one, so unbounded wedges still give a bounded program.  A
    negative optimal delta certifies an empty intersection; otherwise the
    returned point sits as deep inside the set as the cap allows.
    """
    # deferred: scipy.optimize is slow to import and only stalled projections get here
    from scipy.optimize import linprog

    n = B.shape[1]
    A_ub = sp.hstack([-B, sp.csr_matrix(norms[:, None])], format="csr")
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    bounds = [(None, None)] * n + [(None, 1.0)]
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=np.asarray(c, dtype=float),
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:  # proven infeasible
        return None, -np.inf
    if not res.success:
        raise RuntimeError(f"feasibility linear program failed: {res.message}")
    return res.x[:n], float(res.x[n])


_MAX_SWEEPS = 1000  # relaxed sweeps before the linear-program fallback


def project_feasible(B, c: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Find a point of the half-space intersection B x + c >= 0 near x0.

    B, dense or sparse, is converted to CSR on entry.  Over-relaxed
    cyclic projections settle rows with disjoint supports (nodal
    constraints) in one sweep and converge linearly on generic systems.
    Thin wedges between nearly parallel rows stall them, so an exhausted
    sweep budget falls back to a max-min-slack linear program that
    either certifies infeasibility or supplies a point as interior as
    the geometry allows; least-squares equality corrections then snap any
    rows the program left a solver tolerance below zero.

    Raises RuntimeError for infeasible constraints and ValueError on a
    zero constraint row.
    """
    x = np.array(x0, dtype=float)
    if len(c) == 0:
        return x
    B = sp.csr_matrix(B, dtype=float)
    norms2 = np.asarray(B.multiply(B).sum(axis=1)).ravel()
    if np.any(norms2 == 0.0):
        raise ValueError("constraint row with zero norm cannot be projected onto")
    exit_tol = 1e-12 * (1.0 + float(np.abs(c).max(initial=0.0)))
    x, ok = _relaxed_sweeps(B, c, x, norms2, exit_tol, _MAX_SWEEPS)
    if ok:
        return x
    x_lp, delta = _feasibility_lp(B, c, np.sqrt(norms2))
    if delta < -exit_tol:
        raise RuntimeError("feasibility projection found no point; constraints are infeasible")
    x = np.asarray(x_lp, dtype=float)
    for _ in range(3):
        slacks = np.asarray(B @ x + c, dtype=float)
        viol = np.nonzero(slacks < -exit_tol)[0]
        if len(viol) == 0:
            return x
        dx, *_ = np.linalg.lstsq(B[viol].toarray(), -slacks[viol], rcond=None)
        x = x + dx
    x, ok = _relaxed_sweeps(B, c, x, norms2, exit_tol, 50)
    if not ok:
        raise RuntimeError("feasibility projection stalled short of tolerance")
    return x


def _active_from_slacks(problem: QpProblem, x: np.ndarray, tol: float) -> tuple[int, ...]:
    """Constraints holding with equality at x, by a shared scaled tolerance.

    Both solvers derive their reported active set through this rule, so
    degenerate zero-multiplier actives are classified identically.
    """
    if problem.m == 0:
        return ()
    _, c_scale = _scales(problem, x)
    act_tol = max(tol, 1e-9) * c_scale
    slacks = problem.slacks(x)
    return tuple(int(i) for i in np.nonzero(slacks <= act_tol)[0])


def _build_solution(
    problem: QpProblem,
    x: np.ndarray,
    working: list[int],
    mu_w: np.ndarray,
    iterations: int,
    tol: float,
) -> QpSolution:
    mu = np.zeros(problem.m)
    mu[working] = mu_w
    active = _active_from_slacks(problem, x, tol)
    kkt = kkt_check(problem, x, mu)
    return QpSolution(
        x=x,
        active_set=active,
        multipliers=mu,
        kkt=kkt,
        iterations=iterations,
        objective=problem.objective(x),
    )


def solve_qp(
    problem: QpProblem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    warm_start: tuple[int, ...] | None = None,
    factor: _Factor | None = None,
) -> QpSolution:
    """Primal active-set solve of a strictly convex inequality QP.

    warm_start seeds the working set (commonly the previous time step's
    active set); an infeasible warm equality solution falls back to a
    cold start from the projected unconstrained minimizer.  The returned
    active set is derived from the final slacks, so degenerate
    constraints that happen to hold with equality are included even if
    they never entered the working set.

    max_iter caps the active-set iterations (default 3(m + 1) + 30).
    H is converted to CSC and B to CSR on entry; factor, when given,
    must be a factorization of H; its cached columns are reused while
    problem.B is the same object, which must not change in place.
    """
    caller_B = problem.B  # the caller's object tags the cached columns
    H = sp.csc_matrix(problem.H, dtype=float)
    B = sp.csr_matrix(caller_B, dtype=float)
    problem = QpProblem(H=H, g=problem.g, B=B, c=problem.c)
    g, c, m = problem.g, problem.c, problem.m
    if factor is None:
        factor = factorize(H)
    if factor.cols_of is not caller_B:
        factor.cols_of, factor.cols = caller_B, {}
    cols = factor.cols  # H^{-1} B_i^T per constraint row
    if max_iter is None:
        max_iter = 3 * (m + 1) + 30

    x_unc = factor.solve(-g)
    if m == 0:
        return _build_solution(problem, x_unc, [], np.zeros(0), 0, tol)

    g_scale, c_scale = _scales(problem, x_unc)
    feas_tol = tol * c_scale

    def col(i: int) -> np.ndarray:
        v = cols.get(i)
        if v is None:
            v = factor.solve(B[i].toarray().ravel())
            cols[i] = v
        return v

    def eqp(working: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Minimizer and multipliers with the working constraints as equalities."""
        if not working:
            return x_unc.copy(), np.zeros(0)
        M = np.column_stack([col(i) for i in working])
        Bw = B[working]
        S = Bw @ M
        rhs = -(Bw @ x_unc + c[working])
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            try:
                mu = sla.solve(S, rhs, assume_a="pos")
            except (sla.LinAlgError, sla.LinAlgWarning):
                # coincident constraint planes make S singular but
                # consistent; least-norm multipliers still give the unique
                # minimizer because null(S) = null(Bw^T) cannot move x
                mu, *_ = np.linalg.lstsq(S, rhs, rcond=None)
        return x_unc + M @ mu, mu

    working: list[int] = []
    x = None
    if warm_start:
        seed = sorted(set(int(i) for i in warm_start if 0 <= int(i) < m))
        try:
            x_try, _ = eqp(seed)
        except sla.LinAlgError:
            x_try = None
        if x_try is not None and float(problem.slacks(x_try).min()) >= -feas_tol:
            working = seed
            x = x_try
    if x is None:
        if float(problem.slacks(x_unc).min()) >= -feas_tol:
            x = x_unc.copy()
        else:
            x = project_feasible(B, c, x_unc)
        working = []

    iterations = 0
    while True:
        if iterations >= max_iter:
            raise QpNonconvergenceError(
                f"active-set method did not converge within {max_iter} iterations",
                x,
                iterations,
            )
        iterations += 1

        x_target, mu_w = eqp(working)
        d = x_target - x
        step = float(np.abs(d).max(initial=0.0))
        # x_target is assembled from the unconstrained minimizer, which can
        # dwarf x itself; a step only counts above the roundoff left by that
        # cancellation, else noise directions admit bogus blocking rows
        ref = 1.0 + max(
            float(np.abs(x).max(initial=0.0)),
            float(np.abs(x_unc).max(initial=0.0)),
            float(np.abs(x_target).max(initial=0.0)),
        )

        if step <= 1e-12 * ref:
            if len(working) == 0 or float(mu_w.min()) >= -tol * g_scale:
                return _build_solution(
                    problem, x_target, working, mu_w, iterations, tol
                )
            del working[int(np.argmin(mu_w))]
            continue

        slacks = problem.slacks(x)
        Bd = B @ d
        descent_tol = -1e-14 * (1.0 + float(np.abs(Bd).max(initial=0.0)))
        eligible = Bd < descent_tol
        eligible[working] = False
        rows = np.flatnonzero(eligible)
        ratios = np.maximum(0.0, slacks[rows]) / -Bd[rows]
        # the row of least ratio (argmin: the lowest index on an exact tie)
        # blocks a step that it cuts short by more than 1e-15
        k = int(np.argmin(ratios)) if rows.size else -1
        alpha = ratios[k] if k >= 0 and ratios[k] < 1.0 - 1e-15 else 1.0
        x = x + alpha * d
        if alpha < 1.0:
            working = sorted(working + [int(rows[k])])
        # no blocker: x reached the EQP minimizer; the next pass sees a
        # zero step and runs the multiplier test


def brute_force_qp(problem: QpProblem, tol: float = 1e-10) -> QpSolution:
    """Reference solve by enumerating all active subsets (m <= 20).

    For each subset the equality KKT system is solved; candidates must be
    primal feasible with nonnegative multipliers.  The minimizer is the
    feasible candidate of least objective.  Exponential cost, testing
    use only.
    """
    H = problem.H.toarray() if sp.issparse(problem.H) else np.asarray(problem.H, float)
    B = problem.B.toarray() if sp.issparse(problem.B) else np.asarray(problem.B, float)
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
            obj = problem.objective(x)
            if best is None or obj < best[0]:
                mu_full = np.zeros(m)
                mu_full[S] = mu
                best = (obj, x, mu_full)
    if best is None:
        raise RuntimeError("no KKT candidate found; constraints look infeasible")
    obj, x, mu = best
    active = _active_from_slacks(problem, x, tol)
    return QpSolution(
        x=x,
        active_set=active,
        multipliers=mu,
        kkt=kkt_check(problem, x, mu),
        iterations=0,
        objective=obj,
    )

