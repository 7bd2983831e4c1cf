"""Convex quadratic programs with inequality constraints.

Solves min 0.5 x.Hx + g.x subject to B x + c >= 0 for symmetric positive
definite H by the range-space (Schur complement) form of the primal
active-set method.  B holds nodal non-penetration rows: each nonzero, no
two sharing a column (checked, ValueError otherwise), so every Schur
matrix is positive definite and the cold-start projection is one closed
form.  The rows are few next to the unknowns, so the iteration runs on
m-vectors: the iterate is its slacks s = B x + c together with
coefficients on the columns H^{-1} B_i^T,

    x = a x0 + (1 - a) x_unc + sum_i lam_i H^{-1} B_i^T,

where x_unc = -H^{-1} g and x0 is the projected cold start (a = 0 when
there is none).  The equality subproblem (EQP) of a working set W gives
multipliers mu from the Schur matrix B_W H^{-1} B_W^T and target slacks
s_unc + sum_b mu_b B H^{-1} B_{W_b}^T; a step of length alpha moves s,
lam and a alike.  The n-vector x is formed once, from the final working
set, as x_unc + [H^{-1} B_i^T for i in W] @ mu.  Each working set the
iteration visits is solved once: after an accepted warm start, or after a
step that no row blocks, the iterate sits at the EQP minimizer and the
next iteration tests that solve's multipliers.

A factor is built for one H_b and one B, and caches, for its life, the
columns H_b^{-1} B_i^T; a Schur matrix is a slice of the cached
constraint images B H^{-1} B_i^T (row i of an m x m array).  solve_qp
takes the factor and only what changes per call, g and c, and solves
only for rows not seen yet.  A factor can be lowered, one increment at
a time, to H = H_b - E_D^T Delta E_D, Delta the dense symmetric sum of
the increments on the dofs D they touched (Hager, SIAM Review 31,
1989): with Z = H_b^{-1} E_D^T and R = Z[D], a solve is y + Z M y[D] for
y = H_b^{-1} b and M = Delta (I - R Delta)^{-1}.  The columns of Z are
solved once per dof for the factor's life, in one unrefined pass:
SuperLU's plain solve is already backward stable here, and a refinement
step moved them by no more than roundoff.  So the lowered columns are
never stored: they are corrected where they are combined, and only the
images and the max-norm bounds are redone per increment.  A lowering
that would make Z hold more entries than the sparse factor itself is
refused; the caller refactors.

H is float CSC and B canonical float CSR of shape (m, n) without stored
zeros (ValueError for any other B), as the stepper holds them; neither
is converted or rebuilt.  Each sparse product is computed once per solve
(B x_unc, B x).

Determinism: two lowest-index rules make identical inputs give identical
iterates.  The ratio test blocks on the row of least ratio, the lowest
index among exact ties, when that ratio cuts the step short by more than
1e-15.  The removal rule drops the lowest-index working row of most
negative multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

__all__ = [
    "QpSolution",
    "QpNonconvergenceError",
    "factorize",
    "solve_qp",
    "project_feasible",
]


class QpNonconvergenceError(RuntimeError):
    """Active-set iteration exhausted its budget; carries the last iterate."""

    def __init__(self, message: str, x: np.ndarray, iterations: int):
        super().__init__(message)
        self.x = x
        self.iterations = iterations

    def __reduce__(self):  # the message may be rewritten; other attributes travel in __dict__
        return type(self), (self.args[0], self.x, self.iterations), self.__dict__


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    active_set: tuple[int, ...]
    multipliers: np.ndarray  # length m, zero off the active set
    slacks: np.ndarray  # B x + c
    iterations: int


class _Factor:
    """SuperLU factor of H_b (base, float CSC) for the nodal rows B.

    solve(rhs) is H_b^{-1} rhs and correct(y) turns it into H^{-1} rhs,
    for H = H_b until lower() lowers it.  For the rows i that solve_qp
    has met, cols[i] is H_b^{-1} B_i^T, col_max[i] bounds the max norm of
    H^{-1} B_i^T and img[i] is its constraint image B H^{-1} B_i^T; rows
    not met yet hold zeros.  B_norm, the largest absolute row sum of B,
    bounds |B v|_inf by B_norm |v|_inf.  block is the last (rows,
    column_stack of their cols) that solve_qp stacked, or None:
    consecutive steps often end on one working set.  dofs holds D in the
    order Z's columns were solved, and from the first lowering on, a
    dof -> column index finds them and Delta sums the increments in that
    order; max_rank, the factor's stored entries over n, caps their number.
    """

    def __init__(self, H, B):
        self.base = H
        self._lu = spla.splu(H)
        self.B = _nodal_rows(B)
        self.cols: dict[int, np.ndarray] = {}
        self.block: tuple[tuple[int, ...], np.ndarray] | None = None
        n, m = H.shape[0], self.B.shape[0]
        # of H_b's columns; col_max and img are these very arrays until lowered
        self._base_max, self._base_img = np.zeros(m), np.zeros((m, m))
        self.col_max, self.img = self._base_max, self._base_img
        self.B_norm = float(np.asarray(abs(self.B).sum(axis=1)).max(initial=0.0))
        self.max_rank = self._lu.nnz // max(n, 1)
        self.dofs = np.zeros(0, dtype=np.intp)
        self._Zt = self._BZt = None  # rows: the columns of Z and of B Z, in dofs order
        self._Delta: np.ndarray | None = None  # the lowering so far, in dofs order
        self._slot: np.ndarray | None = None  # dof -> its column of Z, -1 if none
        self._z_max = 0.0  # max |Z|, so |Z v|_inf <= _z_max |v|_1
        self._M: np.ndarray | None = None  # None until lowered

    def solve(self, rhs: np.ndarray, refine: bool = True) -> np.ndarray:
        """H_b^{-1} rhs with one step of iterative refinement, or without when refine is False.

        Only lower passes refine=False, for Z's columns, solved once; x_unc
        and the cached columns keep the refinement step, which holds their
        residuals near machine level.
        """
        y = self._lu.solve(rhs)
        if refine:
            y += self._lu.solve(rhs - self.base @ y)
        return y

    def correct(self, y: np.ndarray) -> np.ndarray:
        """H^{-1} b from y = H_b^{-1} b: y itself until lowered."""
        if self._M is None:
            return y
        return y + self._Zt[: len(self.dofs)].T @ (self._M @ y[self.dofs])

    def cache(self, rows) -> None:
        """Solve for the columns of the rows not met yet."""
        new = [i for i in rows if i not in self.cols]
        for i in new:
            rhs = np.zeros(self.base.shape[0])
            lo, hi = self.B.indptr[i], self.B.indptr[i + 1]
            rhs[self.B.indices[lo:hi]] = self.B.data[lo:hi]
            v = self.cols[i] = self.solve(rhs)
            self._base_max[i], self._base_img[i] = np.abs(v).max(initial=0.0), self.B @ v
        if new and self._M is not None:
            self._lower_rows(new)

    def _lower_rows(self, rows) -> None:
        """img and col_max of cached rows under M: only m- and d-vectors."""
        rows = np.asarray(rows, dtype=np.intp)
        d = len(self.dofs)
        # cols[i][D] = B_i Z, as H_b is symmetric
        W = self._BZt[:d, rows].T @ self._M.T
        self.img[rows] = self._base_img[rows] + W @ self._BZt[:d]
        self.col_max[rows] = self._base_max[rows] + self._z_max * np.abs(W).sum(axis=1)

    def lower(self, dofs: np.ndarray, delta: np.ndarray) -> bool:
        """Lower H by E_D^T delta E_D, adding delta into Delta; False past max_rank.

        dofs (D) are distinct indices and delta a dense symmetric matrix on
        them, such that the lowered H stays positive definite.  Z's columns
        are solved once per dof met, with one unrefined multi-column solve;
        a D that would bring their number past max_rank leaves the factor
        unchanged.
        """
        n, m = self.base.shape[0], self.B.shape[0]
        if self._slot is None:
            # pages of Z are touched only as columns arrive
            self._Zt, self._BZt = np.empty((self.max_rank, n)), np.empty((self.max_rank, m))
            self._Delta = np.zeros((self.max_rank, self.max_rank))
            self._slot = np.full(n, -1, dtype=np.intp)
        dofs = np.asarray(dofs, dtype=np.intp)
        new = dofs[self._slot[dofs] < 0]
        d0, d = len(self.dofs), len(self.dofs) + len(new)
        if d > self.max_rank:
            return False
        if new.size:
            E = np.zeros((n, new.size))
            E[new, np.arange(new.size)] = 1.0
            Z = self.solve(E, refine=False)
            self._Zt[d0:d], self._BZt[d0:d] = Z.T, (self.B @ Z).T
            self._z_max = max(self._z_max, float(np.abs(Z).max()))
            self._slot[new] = np.arange(d0, d)
            self.dofs = np.concatenate([self.dofs, new])
        at = self._slot[dofs]
        self._Delta[np.ix_(at, at)] += delta
        Delta = self._Delta[:d, :d]
        # M = Delta (I - R Delta)^{-1} = (I - Delta R)^{-1} Delta, R = Z[D]
        R = self._Zt[:d][:, self.dofs]
        self._M = np.linalg.solve(np.eye(d) - Delta @ R, Delta)
        self.col_max, self.img = self._base_max.copy(), self._base_img.copy()
        if self.cols:
            self._lower_rows(list(self.cols))
        return True


def factorize(H, B) -> _Factor:
    """Factor a symmetric positive definite H (float CSC) for solve_qp calls with the rows B."""
    return _Factor(H, B)


def _scale(v: np.ndarray, w: np.ndarray) -> float:
    """1 + max|v| + max|w|: the gradient scale (g, Hx) or the constraint scale (c, Bx)."""
    return 1.0 + float(np.abs(v).max(initial=0.0)) + float(np.abs(w).max(initial=0.0))


def _nodal_rows(B):
    """B itself; ValueError unless nodal rows in canonical float CSR without stored zeros."""
    csr = sp.issparse(B) and B.format == "csr" and B.dtype == np.float64
    if not (csr and B.has_canonical_format and B.data.all()):
        raise ValueError("constraint rows must be canonical float64 CSR without stored zeros")
    if (np.diff(B.indptr) == 0).any():
        raise ValueError("constraint row with no nonzero entry")
    if np.unique(B.indices).size < B.nnz:
        raise ValueError("constraint rows share a column; nodal rows have disjoint supports")
    return B


def project_feasible(B, c: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """A point of B x + c >= 0 near x0, by one pass over the violated rows.

    B, canonical float CSR, must hold nonzero rows with disjoint supports
    (ValueError otherwise), so each violated row i moves only its own
    dofs: x_j -= 1.5 (s_i / |B_i|^2) B_ij, over-relaxed to leave the slack
    s_i = (B x + c)_i at -s_i / 2.  x0 is returned unchanged when no row
    is violated by more than 1e-12 (1 + max|c|).
    """
    x = np.array(x0, dtype=float)
    if len(c) == 0:
        return x
    B = _nodal_rows(B)
    slacks = B @ x + c
    if float(slacks.min()) >= -1e-12 * (1.0 + float(np.abs(c).max())):
        return x
    norms2 = np.asarray(B.multiply(B).sum(axis=1)).ravel()
    counts = np.diff(B.indptr)
    viol = slacks < 0.0
    entries = np.repeat(viol, counts)  # the CSR entries of violated rows
    step = np.repeat(1.5 * (slacks[viol] / norms2[viol]), counts[viol])
    x[B.indices[entries]] -= step * B.data[entries]
    return x


def _build_solution(
    B, c: np.ndarray, x: np.ndarray, mu: np.ndarray, iterations: int, tol: float
) -> QpSolution:
    """The solution record of x with multipliers mu; one B-matvec serves it.

    A reference solver that reports through here too reads the active set
    off the slacks by the same scaled tolerance, so it classifies
    degenerate zero-multiplier actives as solve_qp does.
    """
    Bx = B @ x
    slacks = Bx + c
    act_tol = max(tol, 1e-9) * _scale(c, Bx)
    active = tuple(np.flatnonzero(slacks <= act_tol).tolist())
    return QpSolution(x, active, mu, slacks, iterations)


def _solve_spd(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve(S, rhs, assume_a="pos") bit for bit, calling LAPACK directly.

    Factors S's upper triangle, as that does, and raises LinAlgError where
    it raises or warns: a failed factorization or rcond below epsilon.
    """
    if len(rhs) == 1 and S[0, 0] != 0.0:
        return rhs / S[0, 0]
    R, info = lapack.dpotrf(S, lower=False)
    if info or lapack.dpocon(R, np.abs(S).sum(axis=0).max())[0] < np.finfo(float).eps:
        raise sla.LinAlgError("Schur matrix is not numerically positive definite")
    return lapack.dpotrs(R, rhs)[0]


def solve_qp(
    factor: _Factor,
    g: np.ndarray,
    c: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    warm_start: tuple[int, ...] | None = None,
) -> QpSolution:
    """min 0.5 x.Hx + g.x  s.t.  B x + c >= 0, for factor = factorize(H, B), maybe lowered.

    A primal active-set solve; c has one entry per row of B (ValueError
    otherwise).  warm_start, sorted distinct row indices (commonly the
    previous time step's active set), seeds the working set; an
    infeasible warm equality solution falls back to a cold start from
    the projected unconstrained minimizer.  The returned active set is
    derived from the final slacks, so degenerate constraints that happen
    to hold with equality are included even if they never entered the
    working set.  max_iter caps the active-set iterations (default
    3(m + 1) + 30).
    """
    B = factor.B
    m = B.shape[0]
    if len(c) != m:
        raise ValueError(f"c has {len(c)} entries for {m} constraint rows")
    cols, col_max, img, B_norm = factor.cols, factor.col_max, factor.img, factor.B_norm
    if max_iter is None:
        max_iter = 3 * (m + 1) + 30

    x_unc = factor.correct(factor.solve(-g))
    if m == 0:
        return _build_solution(B, c, x_unc, np.zeros(0), 0, tol)

    g_scale = _scale(g, g)  # H x_unc is -g up to the refinement residual
    Bx_unc = B @ x_unc
    feas_tol = tol * _scale(c, Bx_unc)
    slacks_unc = Bx_unc + c
    unc_size = float(np.abs(x_unc).max(initial=0.0))

    def combine(base: np.ndarray, rows, weights: np.ndarray) -> np.ndarray:
        """base + sum_k weights[k] H^{-1} B_{rows[k]}^T, an n-vector."""
        if len(rows) == 0:
            return base.copy()
        key = tuple(map(int, rows))
        if factor.block is None or factor.block[0] != key:
            factor.block = key, np.column_stack([cols[i] for i in key])
        return base + factor.correct(factor.block[1] @ weights)

    def eqp(working: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Multipliers and target slacks with the working rows as equalities."""
        if not working:
            return np.zeros(0), slacks_unc
        factor.cache(working)
        images = img[working]
        # S[a, b] = B_a H^{-1} B_b^T, entry a of working row b's image:
        # the products and summation order of B[working] @ M, so its bits;
        # disjoint nonzero rows make S positive definite
        mu = _solve_spd(images[:, working].T, -slacks_unc[working])
        return mu, slacks_unc + mu @ images

    # The iterate is its slacks s = B x + c and, with x0 the projected cold
    # start, x = a x0 + (1 - a) x_unc + sum_i lam_i H^{-1} B_i^T.
    # reached: the EQP of the working set once x sits at its minimizer,
    # after an accepted warm start or a step that no row blocks
    working: list[int] = []
    lam = np.zeros(m)
    a, x0, x0_size = 0.0, None, 0.0
    s = reached = None
    if warm_start:
        seed = list(warm_start)
        mu_try, s_try = eqp(seed)
        if float(s_try.min()) >= -feas_tol:
            working, s, reached = seed, s_try, (mu_try, s_try)
            lam[seed] = mu_try
    if s is None:
        if float(slacks_unc.min()) >= -feas_tol:
            s = slacks_unc
        else:
            x0 = project_feasible(B, c, x_unc)
            a, x0_size, s = 1.0, float(np.abs(x0).max(initial=0.0)), B @ x0 + c

    def iterate() -> np.ndarray:
        base = x_unc if a == 0.0 else a * x0 + (1.0 - a) * x_unc
        support = np.flatnonzero(lam)
        return combine(base, support, lam[support])

    iterations = 0
    while True:
        if iterations >= max_iter:
            raise QpNonconvergenceError(
                f"active-set method did not converge within {max_iter} iterations",
                iterate(),
                iterations,
            )
        iterations += 1

        if reached is None:
            mu_w, target = eqp(working)
            Bd = target - s  # B d for the step d from x to the EQP minimizer
            bd_size = float(np.abs(Bd).max(initial=0.0))
            # x_target is assembled from the unconstrained minimizer, which can
            # dwarf x itself; a step only counts above the roundoff left by that
            # cancellation, |d| <= 1e-12 ref, else noise directions admit bogus
            # blocking rows.  |B d| <= B_norm |d| and ref_upper >= ref settle
            # the test in constraint space unless B d is itself that small.
            ref_upper = 1.0 + max(
                a * x0_size + (1.0 - a) * unc_size + float(np.abs(lam) @ col_max),
                unc_size + float(np.abs(mu_w) @ col_max[working]),
            )
            small = bd_size <= 2e-12 * ref_upper * B_norm
            if small:
                x, x_target = iterate(), combine(x_unc, working, mu_w)
                ref = 1.0 + max(
                    float(np.abs(x).max(initial=0.0)),
                    unc_size,
                    float(np.abs(x_target).max(initial=0.0)),
                )
                small = float(np.abs(x_target - x).max(initial=0.0)) <= 1e-12 * ref
        else:
            # no blocker moved x onto this EQP minimizer up to one rounding
            mu_w, target = reached
            small = True
        reached = None

        if small:
            if len(working) == 0 or float(mu_w.min()) >= -tol * g_scale:
                mu = np.zeros(m)
                mu[working] = mu_w
                x = combine(x_unc, working, mu_w)
                return _build_solution(B, c, x, mu, iterations, tol)
            del working[int(np.argmin(mu_w))]
            continue

        descent_tol = -1e-14 * (1.0 + bd_size)
        eligible = Bd < descent_tol
        eligible[working] = False
        rows = np.flatnonzero(eligible)
        ratios = np.maximum(0.0, s[rows]) / -Bd[rows]
        # the row of least ratio (argmin: the lowest index on an exact tie)
        # blocks a step that it cuts short by more than 1e-15
        k = int(np.argmin(ratios)) if rows.size else -1
        alpha = ratios[k] if k >= 0 and ratios[k] < 1.0 - 1e-15 else 1.0
        s = s + alpha * Bd
        lam *= 1.0 - alpha
        lam[working] += alpha * mu_w
        a *= 1.0 - alpha
        if alpha < 1.0:
            working = sorted(working + [int(rows[k])])
        else:
            reached = mu_w, target

