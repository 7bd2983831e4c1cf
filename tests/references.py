"""Reference computations, kept to audit the package.

The package sums its energy ledger from the stepper's step reports and
its trajectory norms state by state as a run goes, and it keeps no state
but a run's first and last.  These functions recompute the same
quantities the direct way, from the list of every state of a run
(collected through run's on_step, see conftest.run_with_states), so
the tests can hold the two implementations against each other.  The
generic certificates of a QP solution (its scaled KKT residuals and its
objective), the program of one displacement step built from scratch
and the ledger's running energy scale live here too: the package
certifies each step by its energy check and its closed-form momentum
certificate, and reads none of them.  So do a QP held as one object
(QpProblem) and solve(), which hands it to solve_qp: the package's one
QP is the step's, which solve_qp takes as the step's factor, g and c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from delam2d import assembly, qp
from delam2d.energetics import EnergyLedger
from delam2d.stepper import FEASIBILITY_TOL, Operators, State, Trajectory, segment_energies


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 x.Hx + g.x  s.t.  B x + c >= 0, the operands solve_qp reads.

    H (symmetric positive definite) is held as float CSC and B as float
    CSR, the forms factorize takes; dense operands are converted, sparse
    ones kept as they are (a stored zero in B stays, for factorize to
    refuse).
    """

    H: sp.csc_matrix
    g: np.ndarray
    B: sp.csr_matrix
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", sp.csc_matrix(self.H, dtype=float))
        object.__setattr__(self, "B", sp.csr_matrix(self.B, dtype=float))

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def m(self) -> int:
        return len(self.c)


def solve(problem: QpProblem, factor=None, **kw) -> qp.QpSolution:
    """solve_qp on problem, from factor or else a fresh factorize(H, B)."""
    if factor is None:
        factor = qp.factorize(problem.H, problem.B)
    return qp.solve_qp(factor, problem.g, problem.c, **kw)


class KktResiduals(NamedTuple):
    """Scaled optimality certificates; max() of them is the worst."""

    stationarity: float
    primal: float
    dual: float
    complementarity: float


def _scale(v: np.ndarray, w: np.ndarray) -> float:
    return 1.0 + float(np.abs(v).max(initial=0.0)) + float(np.abs(w).max(initial=0.0))


def kkt_residuals(problem: QpProblem, x: np.ndarray, mu: np.ndarray) -> KktResiduals:
    """Scaled KKT residuals of a candidate point x and multipliers mu.

    mu has one entry per constraint row (zeros off the active set).
    Stationarity and dual residuals are scaled by the gradient magnitude
    1 + max|g| + max|Hx|, primal and complementarity by the constraint
    magnitude 1 + max|c| + max|Bx|.
    """
    Hx = problem.H @ x
    g_scale = _scale(problem.g, Hx)
    grad = Hx + problem.g
    if problem.m:
        Bx = problem.B @ x
        c_scale = _scale(problem.c, Bx)
        grad = grad - problem.B.T @ mu
        slacks = Bx + problem.c
        primal = max(0.0, -float(slacks.min())) / c_scale
        dual = max(0.0, -float(mu.min())) / g_scale
        compl = float(np.abs(mu * slacks).max()) / (g_scale * c_scale)
    else:
        primal = dual = compl = 0.0
    stationarity = float(np.abs(grad).max(initial=0.0)) / g_scale
    return KktResiduals(stationarity, primal, dual, compl)


def objective(problem: QpProblem, x: np.ndarray) -> float:
    """0.5 x.Hx + g.x, the QP's objective at x."""
    return 0.5 * float(x @ (problem.H @ x)) + float(problem.g @ x)


def step_problem(ops: Operators, state: State, tau: float, t_next: float) -> QpProblem:
    """The displacement step's QP from state to t_next, assembled from scratch.

    The step minimizes 0.5 u.C u + |u - state.u|_V^2 / (2 tau) over the
    free dofs x of u = (x, prescribed values at t_next), with C = K + A(z),
    under the nodal rows B x + c >= 0.
    """
    free, values = ops.dofmap.free, ops.dofmap.prescribed_values(t_next)
    C = (ops.K + assembly.assemble_interface(ops.jump, ops.adhesive, state.z)).tocsr()
    H = (C + ops.V / tau).tocsr()[free][:, free].tocsc()
    u_ext = ops.dofmap.scatter(np.zeros(ops.dofmap.n_free), values)
    g = (C @ u_ext + ops.V @ ((u_ext - state.u) / tau))[free]
    constraint = ops.constraint
    return QpProblem(H=H, g=g, B=constraint.rows, c=constraint.prescribed_part @ values)


def ledger_scale(ledger: EnergyLedger) -> np.ndarray:
    """Running energy magnitude of a ledger, to normalize its per-step checks.

    The largest of |stored|, total dissipation and |external work| at
    each time, floored at 1e-30: the scale the stepper's energy check
    takes step by step.
    """
    return np.maximum.reduce(
        [
            np.abs(ledger.total_stored()),
            ledger.viscous_dissipated + ledger.interface_dissipated,
            np.abs(ledger.external_work),
            np.full_like(ledger.gap, 1e-30),
        ]
    )


def stored_energy(ops: Operators, state: State) -> tuple[bool, float]:
    """Total stored energy of a state, with its admissibility flag.

    Inadmissible states (interface penetration beyond tolerance, bond
    fraction outside [0, 1]) carry infinite energy; the flag reports
    which branch applied.  Admissible states return the bulk elastic
    energy plus the bond-weighted glue energy.
    """
    gaps = ops.constraint.gaps(state.u)
    if gaps.size and float(gaps.min()) < -FEASIBILITY_TOL:
        return False, math.inf
    z = np.asarray(state.z, dtype=float)
    if z.size and (z.min() < -1e-12 or z.max() > 1.0 + 1e-12):
        return False, math.inf
    bulk = 0.5 * float(state.u @ (ops.K @ state.u))
    drive, _ = segment_energies(ops, state.u)
    interface = float(z @ drive) if drive.size else 0.0
    return True, bulk + interface


def ledger_from_states(ops: Operators, traj: Trajectory, states: list[State]) -> EnergyLedger:
    """The ledger recomputed from states, using reports only for work terms.

    Stored energies come from the states directly; viscous dissipation
    from displacement increments against V; debonding dissipation from
    the per-step thresholds recorded when each segment released.
    """
    n = len(states)
    bulk = np.zeros(n)
    interface = np.zeros(n)
    viscous = np.zeros(n)
    debond = np.zeros(n)
    work = np.zeros(n)
    for k, state in enumerate(states):
        drive, _ = segment_energies(ops, state.u)
        bulk[k] = 0.5 * float(state.u @ (ops.K @ state.u))
        interface[k] = float(state.z @ drive) if drive.size else 0.0
        if k == 0:
            continue
        prev = states[k - 1]
        du = state.u - prev.u
        dt = state.t - prev.t
        viscous[k] = viscous[k - 1] + float(du @ (ops.V @ du)) / dt
        rep = traj.reports[k - 1]
        debond[k] = debond[k - 1] + rep.energy.debond_increment
        work[k] = work[k - 1] + rep.energy.device_work_increment
    stored0 = bulk[0] + interface[0]
    gap = work - ((bulk + interface) - stored0) - viscous - debond
    return EnergyLedger(
        t=np.array([state.t for state in states]),
        bulk_elastic=bulk,
        interface_elastic=interface,
        viscous_dissipated=viscous,
        interface_dissipated=debond,
        external_work=work,
        gap=gap,
    )


def energy_inequality_residual(traj: Trajectory, t1: float, t2: float) -> float:
    """Slack of the two-time energy inequality over (t1, t2].

    Work done on the interval minus the stored-energy increase minus the
    dissipation, summed from the per-step records; nonnegative up to
    solver tolerance for every admissible pair t1 <= t2.
    """
    if t2 < t1:
        raise ValueError(f"need t1 <= t2, got {t1} > {t2}")
    total = 0.0
    for t_k, rep in zip(traj.times[1:], traj.reports):
        if t1 < t_k <= t2 + 1e-12 * max(1.0, abs(t2)):
            total += rep.energy.inequality_residual
    return total


def semistability_check(
    ops: Operators, state: State, rel_tol: float = 1e-9
) -> list[tuple[int, bool, float]]:
    """Disintegrated semistability of a state against every segment.

    For a surviving bond the glue energy density integral, doubled, must
    not exceed twice the mixity threshold times the length; fully
    debonded segments pass vacuously.  Returns (segment, ok, margin)
    with margin = rhs - lhs (clamped to +inf for unbounded thresholds).
    """
    drive, psi = segment_energies(ops, state.u)
    thresh = ops.adhesive.threshold(psi) * ops.mesh.seg_length
    out: list[tuple[int, bool, float]] = []
    for e in range(len(drive)):
        if state.z[e] == 0.0:
            out.append((e, True, math.inf))
            continue
        lhs = 2.0 * state.z[e] * drive[e]
        rhs = 2.0 * thresh[e]
        ok = lhs <= rhs + rel_tol * max(rhs, 1e-30)
        out.append((e, bool(ok), rhs - lhs))
    return out


def norms_from_states(ops: Operators, states: list[State]) -> dict[str, float]:
    """The trajectory norms of energetics.trajectory_norms over a list of states."""
    mesh = ops.mesh
    S = assembly.assemble_stiffness(mesh, np.eye(3))
    _, area = assembly.triangle_operators(mesh)
    node_mass = np.bincount(
        mesh.triangles.ravel(), np.repeat(area / 3.0, 3), minlength=mesh.n_nodes
    )
    m = np.repeat(node_mass, 2)

    def h1_sq(u: np.ndarray) -> float:
        return float(u @ (S @ u) + m @ (u * u))

    sup_h1 = 0.0
    rate_sq = h1_sq(states[0].u)
    for k, state in enumerate(states):
        sup_h1 = max(sup_h1, math.sqrt(h1_sq(state.u)))
        if k:
            dt = state.t - states[k - 1].t
            du = (state.u - states[k - 1].u) / dt
            rate_sq += dt * h1_sq(du)

    z0 = states[0].z
    bond_sup = float(max((s.z.max(initial=0.0) for s in states), default=0.0))
    variation = float((z0 * ops.mesh.seg_length).sum()) if len(z0) else 0.0
    for k in range(1, len(states)):
        dz = np.abs(states[k].z - states[k - 1].z)
        variation += float((dz * ops.mesh.seg_length).sum())
    return {
        "displacement_sup_h1": sup_h1,
        "displacement_rate_h1": math.sqrt(rate_sq),
        "bond_sup": bond_sup,
        "bond_variation_l1": variation,
    }
