"""Energy accounting and solution-quality audits.

Everything here recomputes its quantities from states and assembled
operators rather than trusting the stepper's running sums, so the tests
can play the two implementations against each other.  The central
object is the energy ledger: stored energy, cumulative viscous and
debonding dissipation, cumulative external work, and their difference,
the work-energy gap.  For this scheme the gap is nonnegative and
nondecreasing up to solver tolerance; a strictly positive gap is a
property of the limit model, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly
from .qp import project_feasible
from .stepper import FEASIBILITY_TOL, Operators, State, Trajectory, segment_energies

__all__ = [
    "EnergyLedger",
    "MixityRecord",
    "stored_energy",
    "build_ledger",
    "energy_inequality_residual",
    "semistability_check",
    "momentum_residual",
    "mixity_histogram",
    "trajectory_norms",
]


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


@dataclass(frozen=True)
class EnergyLedger:
    """Cumulative energy series on the trajectory's time grid (J/m).

    gap[k] = external work so far minus (stored increase plus
    dissipation so far).  Closure holds by construction; the content is
    in the signs: gap >= 0 and nondecreasing within tolerance.
    """

    t: np.ndarray
    bulk_elastic: np.ndarray
    interface_elastic: np.ndarray
    viscous_dissipated: np.ndarray
    interface_dissipated: np.ndarray
    external_work: np.ndarray
    gap: np.ndarray

    def total_stored(self) -> np.ndarray:
        return self.bulk_elastic + self.interface_elastic

    def total_energy(self) -> np.ndarray:
        """Stored plus dissipated, the left side of the energy inequality."""
        return (
            self.total_stored()
            + self.viscous_dissipated
            + self.interface_dissipated
        )

    def scale(self) -> np.ndarray:
        """Running magnitude used to normalize per-step residual checks."""
        return np.maximum.reduce(
            [
                np.abs(self.total_stored()),
                self.viscous_dissipated + self.interface_dissipated,
                np.abs(self.external_work),
                np.full_like(self.gap, 1e-30),
            ]
        )


def build_ledger(ops: Operators, traj: Trajectory) -> EnergyLedger:
    """Recompute the ledger from states, using reports only for work terms.

    Stored energies come from the states directly; viscous dissipation
    from displacement increments against V; debonding dissipation from
    the per-step thresholds recorded when each segment released.
    """
    n = len(traj.states)
    bulk = np.zeros(n)
    interface = np.zeros(n)
    viscous = np.zeros(n)
    debond = np.zeros(n)
    work = np.zeros(n)
    for k, state in enumerate(traj.states):
        drive, _ = segment_energies(ops, state.u)
        bulk[k] = 0.5 * float(state.u @ (ops.K @ state.u))
        interface[k] = float(state.z @ drive) if drive.size else 0.0
        if k == 0:
            continue
        prev = traj.states[k - 1]
        du = state.u - prev.u
        dt = state.t - prev.t
        viscous[k] = viscous[k - 1] + float(du @ (ops.V @ du)) / dt
        rep = traj.reports[k]
        debond[k] = debond[k - 1] + rep.energy.debond_increment
        work[k] = work[k - 1] + rep.energy.device_work_increment
    stored0 = bulk[0] + interface[0]
    gap = work - ((bulk + interface) - stored0) - viscous - debond
    return EnergyLedger(
        t=np.array(traj.times),
        bulk_elastic=bulk,
        interface_elastic=interface,
        viscous_dissipated=viscous,
        interface_dissipated=debond,
        external_work=work,
        gap=gap,
    )


def energy_inequality_residual(
    ops: Operators, traj: Trajectory, t1: float, t2: float
) -> float:
    """Slack of the two-time energy inequality over (t1, t2].

    Work done on the interval minus the stored-energy increase minus the
    dissipation, summed from the per-step records; nonnegative up to
    solver tolerance for every admissible pair t1 <= t2.
    """
    if t2 < t1:
        raise ValueError(f"need t1 <= t2, got {t1} > {t2}")
    total = 0.0
    for k in range(1, len(traj.states)):
        t_k = traj.times[k]
        if t1 < t_k <= t2 + 1e-12 * max(1.0, abs(t2)):
            total += traj.reports[k].energy.inequality_residual
    return total


def semistability_check(
    ops: Operators, traj: Trajectory, index: int, rel_tol: float = 1e-9
) -> list[tuple[int, bool, float]]:
    """Disintegrated semistability of state index against every segment.

    For a surviving bond the glue energy density integral, doubled, must
    not exceed twice the mixity threshold times the length; fully
    debonded segments pass vacuously.  Returns (segment, ok, margin)
    with margin = rhs - lhs (clamped to +inf for unbounded thresholds).
    """
    state = traj.states[index]
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


def momentum_residual(
    ops: Operators,
    traj: Trajectory,
    index: int,
    n_fields: int = 32,
    seed: int = 0,
) -> float:
    """Worst violation of the variational momentum inequality at a step.

    Tests the discrete residual of step `index` against random admissible
    variations: fields matching the driven boundary values and keeping
    every interface gap nonnegative.  At a KKT point the directional
    slack is nonnegative for all of them; the returned value is the
    most negative normalized slack seen (>= -tolerance when healthy).
    """
    if index < 1:
        raise ValueError("momentum residual is defined for step indices >= 1")
    state = traj.states[index]
    prev = traj.states[index - 1]
    tau = state.t - prev.t
    z_prev = prev.z
    A = assembly.assemble_interface(ops.jump, ops.adhesive, z_prev)
    rate = (state.u - prev.u) / tau
    residual = ops.K @ state.u + A @ state.u + ops.V @ rate
    free = ops.dofmap.free
    rng = np.random.default_rng(seed)
    B = ops.constraint.rows
    c = ops.constraint.offset(state.t)
    amp = max(float(np.abs(state.u).max(initial=0.0)), 1e-6)
    # Normalize against the pre-cancellation force magnitude sum_j
    # |M_ij||u_j|, not the computed residual: near equilibrium the
    # matvecs cancel analytically and the residual is pure roundoff,
    # which any post-cancellation scale would blow up into false alarms.
    abs_u = np.abs(state.u)
    force_scale = float(
        (
            abs(ops.K) @ abs_u
            + abs(A) @ abs_u
            + abs(ops.V) @ np.abs(rate)
        ).max(initial=0.0)
    )
    scale = force_scale * amp + 1e-30
    worst = 0.0
    for _ in range(n_fields):
        v_free = state.u[free] + rng.normal(0.0, amp, size=len(free))
        if len(c):
            v_free = project_feasible(B, c, v_free)
        slack = float(residual[free] @ (v_free - state.u[free]))
        worst = min(worst, slack / scale)
    return worst


@dataclass(frozen=True)
class MixityRecord:
    """Per-segment debonding summary.

    ratio is the dissipated areal density at the moment of release
    divided by the opening toughness: 1 for pure opening, up to the
    shear-to-opening toughness ratio for pure sliding.  Segments that
    never released have debonded False and NaN in the outcome columns.
    """

    segment: np.ndarray
    x_mid: np.ndarray
    debonded: np.ndarray
    debond_time: np.ndarray
    mixity_angle: np.ndarray
    dissipated_density: np.ndarray
    ratio: np.ndarray


def mixity_histogram(ops: Operators, traj: Trajectory) -> MixityRecord:
    m = ops.n_segments
    debonded = np.zeros(m, dtype=bool)
    debond_time = np.full(m, np.nan)
    angle = np.full(m, np.nan)
    density = np.full(m, np.nan)
    for k in range(1, len(traj.states)):
        rep = traj.reports[k]
        z_before = traj.states[k - 1].z
        for e in rep.debonded:
            if debonded[e]:
                continue
            debonded[e] = True
            debond_time[e] = rep.t
            angle[e] = rep.mixity[e]
            density[e] = (
                rep.threshold[e] / ops.mesh.seg_length[e] * z_before[e]
            )
    ratio = density / ops.adhesive.mode1_toughness
    return MixityRecord(
        segment=np.arange(m),
        x_mid=ops.seg_x_mid,
        debonded=debonded,
        debond_time=debond_time,
        mixity_angle=angle,
        dissipated_density=density,
        ratio=ratio,
    )


def trajectory_norms(ops: Operators, traj: Trajectory) -> dict[str, float]:
    """Discrete analogues of the a priori norm bounds.

    displacement_sup_h1: max over steps of the full H1 norm.
    displacement_rate_h1: H1-in-time norm built from increment rates.
    bond_sup: largest bond fraction over space-time.
    bond_variation_l1: initial L1 mass plus total variation in time of
    the bond field, integrated over the interface.
    All stay bounded under simultaneous mesh and time refinement.
    """
    # u . (S u) is the sum of area * |B u|^2 over triangles (C = I), and
    # the lumped mass m (area / 3 per triangle node, both dofs) the L2 part.
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
    rate_sq = h1_sq(traj.states[0].u)
    for k, state in enumerate(traj.states):
        sup_h1 = max(sup_h1, math.sqrt(h1_sq(state.u)))
        if k:
            dt = traj.times[k] - traj.times[k - 1]
            du = (state.u - traj.states[k - 1].u) / dt
            rate_sq += dt * h1_sq(du)

    z0 = traj.states[0].z
    bond_sup = float(max((s.z.max(initial=0.0) for s in traj.states), default=0.0))
    variation = float((z0 * ops.mesh.seg_length).sum()) if len(z0) else 0.0
    for k in range(1, len(traj.states)):
        dz = np.abs(traj.states[k].z - traj.states[k - 1].z)
        variation += float((dz * ops.mesh.seg_length).sum())
    return {
        "displacement_sup_h1": sup_h1,
        "displacement_rate_h1": math.sqrt(rate_sq),
        "bond_sup": bond_sup,
        "bond_variation_l1": variation,
    }
