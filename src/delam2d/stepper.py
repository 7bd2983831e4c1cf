"""Semi-implicit quasistatic evolution of the bonded bar.

Each time step decouples into two convex problems.  First the
displacement solves a strictly convex QP: elastic plus glue energy (the
glue weighted by the PREVIOUS bond field) plus the viscous penalty on
the increment, under the nodal non-penetration constraints and the
driven boundary values at the new time.  Then every interface segment
compares its stored glue energy against the mode-dependent dissipation
threshold and debonds, irreversibly, when the energy wins.

Conventions: dofs interleave as (2*node, 2*node + 1); time grid t_k =
k*tau; energies are per unit out-of-plane thickness.  Per-step records
carry every term of the step's energy inequality, so the run's energy
ledger is their running sum; a run records each segment's release as it
happens, hands each state to its caller and keeps the first and last.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import assembly, qp
from .assembly import ConstraintMatrix, DofMap, JumpOperator
from .constitutive import (
    AdhesiveLaw,
    IsotropicElasticity,
    ViscosityLaw,
    elasticity_tensor,
)
from .mesh import Mesh2D

__all__ = [
    "State",
    "StepEnergy",
    "StepReport",
    "Trajectory",
    "Operators",
    "InvariantViolation",
    "build_operators",
    "init_state",
    "displacement_step",
    "delamination_step",
    "segment_energies",
    "planned_steps",
    "run",
]

FEASIBILITY_TOL = 1e-10  # meters of admissible interpenetration
ENERGY_TOL_FACTOR = 1e-8  # of the running energy scale, per step

try:  # glibc's malloc_trim(size_t pad) -> int, which returns the heap's free pages to the OS
    _malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if _malloc_trim is not None:
        _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, TypeError):
    _malloc_trim = None


class InvariantViolation(RuntimeError):
    """A structural inequality of the scheme failed beyond tolerance.

    run prefixes "step k (t=...)" to every InvariantViolation and
    QpNonconvergenceError that escapes it and sets its .trajectory, the
    partial trajectory for post-mortem work.
    """


@dataclass(frozen=True)
class State:
    """Solution snapshot: time, full displacement vector, per-segment bond."""

    t: float
    u: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class StepEnergy:
    """Energy bookkeeping of one step, all per unit thickness (J/m).

    bulk_elastic and interface_elastic are the energies stored at the
    step's end; viscous_increment is du.V du / (t_k - t_{k-1}).
    inequality_residual is device work minus stored increment minus
    dissipation; the scheme guarantees it nonnegative up to solver
    tolerance, and its running sum is the work-energy gap.
    """

    bulk_elastic: float
    interface_elastic: float
    viscous_increment: float
    debond_increment: float
    device_work_increment: float
    inequality_residual: float


@dataclass(frozen=True)
class StepReport:
    t: float
    reaction: np.ndarray  # device force resultant (N/m)
    bonded_length: float  # z . seg_length at the step's end (m)
    min_gap: float
    energy: StepEnergy


@dataclass
class Trajectory:
    """A run's time grid and step reports, its first and last states only,
    and per segment, NaN until it releases, the release's time, midpoint
    mixity angle (rad) and dissipated density threshold / length * z (J/m^2)."""

    times: list[float]
    reports: list[StepReport]  # reports[k] is step k + 1
    first: State
    last: State
    t_full_debond: float | None = None
    release_time: np.ndarray = field(init=False, repr=False)
    release_mixity: np.ndarray = field(init=False, repr=False)
    release_density: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nan = np.full(len(self.first.z), np.nan)
        self.release_time, self.release_mixity, self.release_density = nan, nan.copy(), nan.copy()

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class Operators:
    """Assembled time-independent operators of one problem instance."""

    mesh: Mesh2D
    adhesive: AdhesiveLaw
    K: sp.csr_matrix
    V: sp.csr_matrix
    dofmap: DofMap
    constraint: ConstraintMatrix
    jump: JumpOperator = field(repr=False)
    seg_x_mid: np.ndarray = field(repr=False)

    @property
    def n_segments(self) -> int:
        return len(self.mesh.seg_length)


def build_operators(
    mesh: Mesh2D,
    elasticity: IsotropicElasticity,
    viscosity: ViscosityLaw,
    adhesive: AdhesiveLaw,
    velocity: np.ndarray,
) -> Operators:
    """Assemble everything that does not change during the evolution.

    The mesh's Dirichlet nodes on body 0 move at the (2,) velocity; those
    of the lower body in the two-body variant stay clamped.
    """
    K = assembly.assemble_stiffness(mesh, elasticity_tensor(elasticity))
    V = assembly.assemble_viscosity(K, viscosity.chi)
    dofmap = assembly.dirichlet_map(mesh, velocity)
    constraint = assembly.constraint_matrix(mesh, dofmap)

    x_ends = mesh.nodes[mesh.seg_plus, 0]
    return Operators(
        mesh=mesh,
        adhesive=adhesive,
        K=K,
        V=V,
        dofmap=dofmap,
        constraint=constraint,
        jump=assembly.jump_operator(mesh),
        seg_x_mid=0.5 * (x_ends[:, 0] + x_ends[:, 1]),
    )


def segment_energies(ops: Operators, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Glue energy integral per segment and midpoint mixity angle.

    drive[e] integrates (1/2)(kappa_n j_n^2 + kappa_t j_t^2) exactly
    over segment e (two-point Gauss on the quadratic integrand) for a
    fully intact bond; the stored interface energy is z[e] * drive[e].
    The jump is affine along a segment, so its midpoint value is the
    mean of the two Gauss point values.
    """
    law = ops.adhesive
    j = ops.jump.values(u)
    drive = law.energy_density(j[..., 0], j[..., 1]).sum(axis=1) * 0.5 * ops.mesh.seg_length
    j_mid = j.mean(axis=1)
    return drive, law.mixity(j_mid[:, 0], j_mid[:, 1])


class _StepOperator:
    """The one owner of the step solve, for step tau and the current bond field z.

    An era starts at a bond field: it builds C_hat = K + A(z), factors the
    free-dof Hessian H(z) of C_hat + V/tau, and the factor caches solve_qp's
    columns of the run's fixed constraint rows; g reads C_hat's prescribed
    columns, the reaction its prescribed rows.  A is linear in z, so a
    release takes A(dz) off, dz the bonds it frees: a dense block on the
    dofs D of the released segments, by which set_bonds lowers the factor.
    A release whose D holds a prescribed dof would change C_hat's
    prescribed columns and rows too, and a lowering the factor refuses
    would outgrow it: either starts a new era at the new z.  solve gives a
    step's displacement, boundary_work its driven-edge reaction and device
    work.
    """

    def __init__(self, ops: Operators, z: np.ndarray, tau: float):
        self.ops = ops
        self.tau = tau
        self._start_era(z)

    def _start_era(self, z: np.ndarray) -> None:
        # What was freed before (the old era's factor, dense block and columns,
        # or the set-up's assembly temporaries) leaves holes between allocations
        # that live on (the step reports); the heap keeps them resident and the
        # new factor does not fit them, so RSS would step up at every era.  Drop
        # the old era and trim before factoring.
        self.factor = self.C_fp = self.C_presc = None
        if _malloc_trim is not None:
            _malloc_trim(0)
        ops, free, presc = self.ops, self.ops.dofmap.free, self.ops.dofmap.prescribed
        self.z = z.copy()
        C_hat = (ops.K + assembly.assemble_interface(ops.jump, ops.adhesive, z)).tocsr()
        H_full = (C_hat + ops.V / self.tau).tocsr()
        self.factor = qp.factorize(H_full[free][:, free].tocsc(), ops.constraint.rows)
        self.C_fp = C_hat[free][:, presc]
        self.C_presc, self.V_presc = C_hat[presc], ops.V[presc]

    def set_bonds(self, z: np.ndarray) -> None:
        """Release the bonds z frees (z <= self.z): lower the era's factor, or start a new era."""
        free = self.ops.dofmap.free
        D, block = assembly.glue_block(self.ops.jump, self.ops.adhesive, self.z - z)
        at = np.searchsorted(free, D)
        if np.array_equal(free.take(at, mode="clip"), D) and self.factor.lower(at, block):
            self.z = z.copy()
        else:
            self._start_era(z)

    def solve(
        self, u_prev: np.ndarray, t_next: float, warm: tuple[int, ...] | None
    ) -> tuple[np.ndarray, qp.QpSolution]:
        """Full displacement at t_next after u_prev, and the QP's record."""
        ops, dofmap, constraint = self.ops, self.ops.dofmap, self.ops.constraint
        values = dofmap.prescribed_values(t_next)
        fixed = constraint.fixed @ values
        if fixed.size and not float(fixed.min()) >= -FEASIBILITY_TOL:  # NaN fails too
            raise InvariantViolation(
                "driven boundary values penetrate the foundation at a fully prescribed "
                f"interface node (worst gap {fixed.min():.3e})"
            )
        u_ext = dofmap.scatter(np.zeros(dofmap.n_free), values)
        g = self.C_fp @ values + (ops.V @ ((u_ext - u_prev) / self.tau))[dofmap.free]
        c = constraint.prescribed_part @ values
        # solve_qp's tolerance is relative, to 1 + max|c| + max|Bx| (qp.py), so
        # that it keeps the 1e-10 m feasibility check is measured, not guaranteed
        sol = qp.solve_qp(self.factor, g, c, tol=FEASIBILITY_TOL, warm_start=warm)
        return dofmap.scatter(sol.x, values), sol

    def boundary_work(self, u_prev: np.ndarray, u_next: np.ndarray) -> tuple[np.ndarray, float]:
        """Driven-edge reaction (N/m) at u_next and the device work of the step."""
        du = u_next - u_prev
        r = self.C_presc @ u_next + self.V_presc @ (du / self.tau)
        driven = self.ops.dofmap.driven  # a clamped lower edge carries no device force
        reaction = np.array([r[0::2][driven].sum(), r[1::2][driven].sum()])
        return reaction, float(r @ du[self.ops.dofmap.prescribed])


def init_state(ops: Operators, u0: np.ndarray | None = None, z0=None) -> State:
    """Validated initial state; defaults to rest and a fully intact bond."""
    n = ops.mesh.n_dofs
    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"initial displacement must have shape ({n},), got {u.shape}")
    m = ops.n_segments
    if z0 is None:
        z = np.ones(m)
    elif np.isscalar(z0):
        z = np.full(m, float(z0))
    else:
        z = np.asarray(z0, dtype=float).copy()
    if z.shape != (m,):
        raise ValueError(f"bond field must have shape ({m},), got {z.shape}")
    # each check is written so that a NaN fails it
    if z.size and not (z.min() >= 0.0 and z.max() <= 1.0):
        raise ValueError("bond fractions must lie in [0, 1]")
    if not np.isfinite(u).all():
        raise ValueError("initial displacement must be finite")
    gaps = ops.constraint.gaps(u)
    if gaps.size and not float(gaps.min()) >= -FEASIBILITY_TOL:
        raise ValueError(
            f"initial displacement penetrates the foundation by {-gaps.min():.3e}"
        )
    expected = ops.dofmap.prescribed_values(0.0)
    if not np.abs(u[ops.dofmap.prescribed] - expected).max(initial=0.0) <= 1e-12:
        raise ValueError("initial displacement disagrees with the boundary drive at t=0")
    return State(t=0.0, u=u, z=z)


def displacement_step(
    ops: Operators,
    state: State,
    tau: float,
    t_next: float,
    warm_start: tuple[int, ...] | None = None,
    step_op: _StepOperator | None = None,
) -> tuple[np.ndarray, qp.QpSolution]:
    """Solve the convex displacement program of one step.

    Minimizes stored energy (glue weighted by state.z) plus the viscous
    increment penalty at the driven boundary values of t_next, subject
    to non-penetration.  Returns the full displacement vector and the QP
    solution record.
    """
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    if step_op is None or not np.array_equal(step_op.z, state.z) or step_op.tau != tau:
        step_op = _StepOperator(ops, state.z, tau)
    return step_op.solve(state.u, t_next, warm_start)


def delamination_step(
    ops: Operators, u_next: np.ndarray, z_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment bond update after the displacement solve.

    A segment debonds (z drops to zero) exactly when its glue energy
    integral exceeds the mixity-dependent threshold; an exact tie keeps
    the bond.  Returns (z_next, drive, threshold, mixity).
    """
    drive, psi = segment_energies(ops, u_next)
    threshold = ops.adhesive.threshold(psi) * ops.mesh.seg_length
    release = (z_prev > 0.0) & (drive > threshold)
    z_next = np.where(release, 0.0, z_prev)
    return z_next, drive, threshold, psi


def _stored_split(ops: Operators, u: np.ndarray, z: np.ndarray, drive: np.ndarray) -> tuple[float, float]:
    bulk = 0.5 * float(u @ (ops.K @ u))
    interface = float(z @ drive) if len(drive) else 0.0
    return bulk, interface


def planned_steps(tau: float, t_end: float) -> int:
    """Steps of the grid k*tau that run marches to reach t_end."""
    n_steps = max(0, round(t_end / tau))
    if n_steps * tau < t_end - 1e-9 * max(tau, t_end):
        n_steps += 1
    return n_steps


def run(
    ops: Operators,
    tau: float,
    t_end: float,
    z0=None,
    stop_after_full_debond: float | None = None,
    on_step: Callable[[State, StepReport], None] | None = None,
) -> Trajectory:
    """March the coupled evolution from 0 to t_end in steps of tau.

    Runtime invariants (feasibility, bond monotonicity, the per-step
    energy inequality, semistability) are asserted each step; a failed
    solve or check aborts as InvariantViolation describes, the failing
    step kept when its check failed.  stop_after_full_debond, when set,
    ends the run that many seconds after the bond field hits zero everywhere.
    Each completed step's state goes to on_step; the trajectory keeps
    only the first and the last.
    """
    if t_end < 0:
        raise ValueError(f"final time must be nonnegative, got {t_end}")
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    state = init_state(ops, z0=z0)
    traj = Trajectory(times=[0.0], reports=[], first=state, last=state)
    if len(state.z) and state.z.max() == 0.0:
        traj.t_full_debond = 0.0

    drive_prev, _ = segment_energies(ops, state.u)
    bulk_prev, interface_prev = _stored_split(ops, state.u, state.z, drive_prev)
    step_op = _StepOperator(ops, state.z, tau)
    warm: tuple[int, ...] = ()
    dissipated_total = 0.0
    work_total = 0.0

    for k in range(1, planned_steps(tau, t_end) + 1):
        t_k = k * tau
        try:
            u_next, sol = displacement_step(ops, state, tau, t_k, warm, step_op)
            z_next, drive, threshold, psi = delamination_step(ops, u_next, state.z)

            du = u_next - state.u
            viscous_inc = float(du @ (ops.V @ du)) / (t_k - state.t)
            released = np.flatnonzero(z_next < state.z)  # intact thresholds may be inf (lambda = 0)
            debond_inc = float(((state.z - z_next)[released] * threshold[released]).sum())
            reaction, device_inc = step_op.boundary_work(state.u, u_next)

            bulk, interface = _stored_split(ops, u_next, z_next, drive)
            stored_inc = (bulk + interface) - (bulk_prev + interface_prev)
            residual = device_inc - stored_inc - debond_inc - viscous_inc

            # sol.slacks are constraint.gaps(u_next): rows @ x + prescribed_part @ values
            min_gap = float(sol.slacks.min()) if sol.slacks.size else 0.0

            energy = StepEnergy(
                bulk_elastic=bulk,
                interface_elastic=interface,
                viscous_increment=viscous_inc,
                debond_increment=debond_inc,
                device_work_increment=device_inc,
                inequality_residual=residual,
            )
            report = StepReport(
                t=t_k,
                reaction=reaction,
                bonded_length=float(z_next @ ops.mesh.seg_length),
                min_gap=min_gap,
                energy=energy,
            )
            new_state = State(t=t_k, u=u_next, z=z_next)
            traj.times.append(t_k)
            traj.reports.append(report)
            traj.last = new_state
            if released.size:
                lengths, z_prev = ops.mesh.seg_length[released], state.z[released]
                traj.release_time[released], traj.release_mixity[released] = t_k, psi[released]
                traj.release_density[released] = threshold[released] / lengths * z_prev

            dissipated_total += viscous_inc + debond_inc
            work_total += device_inc
            # Tolerance is relative to the energies the run has moved so far,
            # not to the current increments, which vanish once the evolution
            # settles while roundoff in the residual does not.
            scale = max(bulk + interface, dissipated_total, abs(work_total), 1e-30)
            _check_step(state, new_state, report, drive, threshold, scale)
        except (qp.QpNonconvergenceError, InvariantViolation) as err:
            err.args = (f"step {k} (t={t_k:.6g}): {err.args[0]}",)
            err.trajectory = traj  # for post-mortem output
            raise

        if on_step is not None:
            on_step(new_state, report)

        if traj.t_full_debond is None and len(z_next) and z_next.max() == 0.0:
            traj.t_full_debond = t_k
        if (
            stop_after_full_debond is not None
            and traj.t_full_debond is not None
            and t_k >= traj.t_full_debond + stop_after_full_debond - 1e-12
        ):
            break

        if not np.array_equal(z_next, state.z):
            step_op.set_bonds(z_next)
        state = new_state
        bulk_prev, interface_prev = bulk, interface
        warm = sol.active_set

    return traj


def _check_step(
    old: State, new: State, report: StepReport, drive: np.ndarray, threshold: np.ndarray,
    scale: float,
) -> None:
    # each check is written so that a NaN fails it
    if not report.min_gap >= -FEASIBILITY_TOL:
        raise InvariantViolation(f"interface penetration {-report.min_gap:.3e} m")
    if len(new.z) and not float((new.z - old.z).max(initial=0.0)) <= 0.0:
        raise InvariantViolation("bond fraction increased somewhere")
    if len(new.z) and not (new.z.min() >= 0.0 and new.z.max() <= 1.0):
        raise InvariantViolation("bond fraction left [0, 1]")

    residual, tol = report.energy.inequality_residual, ENERGY_TOL_FACTOR * scale
    if not residual >= -tol:
        raise InvariantViolation(
            f"per-step energy inequality violated by {-residual:.3e} (tolerance {tol:.3e})"
        )

    # semistability, disintegrated per segment: z * (2 * drive) <= 2 * threshold
    lhs = new.z * 2.0 * drive
    rhs = 2.0 * threshold
    bad = (new.z > 0.0) & ~(lhs <= rhs + 1e-9 * np.maximum(rhs, 1e-30))
    if bad.any():
        raise InvariantViolation(f"semistability violated on segments {np.nonzero(bad)[0].tolist()}")
