"""Energy ledger, mixity record, trajectory norms and the momentum certificate.

The stepper computes every term of each step's energy inequality for its
own check and puts them in the step's report; the ledger here is their
running sum, so it needs no operator product per state, and the mixity
record is the run's own release record.  The norms are summed the same
way, state by state as the run hands them out.  The
recomputations from stored states (ledger, norms, stored energy,
semistability) live in the tests, where they audit these sums.  The gap
of the ledger is nonnegative and nondecreasing up to solver tolerance; a
strictly positive gap is a property of the limit model, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly
# unused here, kept because perfbench's tracer wraps energetics.project_feasible by name
from .qp import project_feasible  # noqa: F401
from .stepper import Operators, State, Trajectory, _stored_split, segment_energies

__all__ = [
    "EnergyLedger",
    "MixityRecord",
    "NormSums",
    "build_ledger",
    "momentum_residual",
    "mixity_histogram",
    "trajectory_norms",
]


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
    """The ledger as running sums of the step reports' energy terms.

    Only the first state's stored energy is evaluated here; every later
    entry is the stepper's own number for its step.
    """
    first = traj.first
    drive, _ = segment_energies(ops, first.u)
    bulk0, interface0 = _stored_split(ops, first.u, first.z, drive)
    steps = [rep.energy for rep in traj.reports]

    def series(start: float, name: str) -> np.ndarray:
        return np.array([start] + [getattr(e, name) for e in steps], dtype=float)

    def running_sum(name: str) -> np.ndarray:
        return np.cumsum(series(0.0, name))  # sequential: each entry adds one step

    bulk = series(bulk0, "bulk_elastic")
    interface = series(interface0, "interface_elastic")
    viscous = running_sum("viscous_increment")
    debond = running_sum("debond_increment")
    work = running_sum("device_work_increment")
    gap = work - ((bulk + interface) - (bulk0 + interface0)) - viscous - debond
    return EnergyLedger(
        t=np.array(traj.times),
        bulk_elastic=bulk,
        interface_elastic=interface,
        viscous_dissipated=viscous,
        interface_dissipated=debond,
        external_work=work,
        gap=gap,
    )


def momentum_residual(ops: Operators, prev: State, state: State) -> float:
    """Worst normalized KKT defect of the step from prev to state.

    The step minimizes a convex energy whose gradient on the free dofs
    is r = K u + A(z_prev) u + V (u - u_prev) / tau, under the nodal rows
    B u_free + c >= 0.  The rows are nodal and disjoint, so BBᵀ is
    diagonal and the multipliers have the closed form mu = (B r) /
    diag(BBᵀ).  The step's minimizer has r = Bᵀmu, mu >= 0 and
    mu * gap = 0; the returned value is the worst of the three defects
    (roundoff when healthy), and NaN when any of them is NaN.
    """
    if not prev.t < state.t:
        raise ValueError(f"momentum residual needs a step, prev.t < state.t ({prev.t}, {state.t})")
    tau = state.t - prev.t
    A = assembly.assemble_interface(ops.jump, ops.adhesive, prev.z)
    rate = (state.u - prev.u) / tau
    r = (ops.K @ state.u + A @ state.u + ops.V @ rate)[ops.dofmap.free]
    B = ops.constraint.rows
    mu = (B @ r) / np.asarray(B.multiply(B).sum(axis=1)).ravel()
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
    ) + 1e-30
    amp = max(float(abs_u.max(initial=0.0)), 1e-6)
    defects = [
        np.abs(r - B.T @ mu).max(initial=0.0) / force_scale,  # stationarity
        np.maximum(-mu, 0.0).max(initial=0.0) / force_scale,  # dual feasibility
        np.abs(mu * ops.constraint.gaps(state.u)).max(initial=0.0) / (force_scale * amp),
    ]
    return float(np.max(defects))  # np.max, unlike max, keeps a NaN


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
    """The trajectory's release record, with each segment's midpoint and toughness ratio."""
    density = traj.release_density
    return MixityRecord(
        segment=np.arange(ops.n_segments),
        x_mid=ops.seg_x_mid,
        debonded=~np.isnan(traj.release_time),
        debond_time=traj.release_time,
        mixity_angle=traj.release_mixity,
        dissipated_density=density,
        ratio=density / ops.adhesive.mode1_toughness,
    )


class NormSums:
    """The sums behind trajectory_norms, taken one state at a time.

    add(state) takes the run's next state, and prev is the last state
    taken; values() gives the norms of the states so far.  Each state
    costs two products with the H1 Gram operator, one for the state and
    one for its rate.
    """

    def __init__(self, S, m: np.ndarray, lengths: np.ndarray, first: State):
        self._S, self._m, self._lengths = S, m, lengths
        self.prev = first
        h1_sq = self._h1_sq(first.u)
        self._sup_h1 = math.sqrt(h1_sq)
        self._rate_sq = h1_sq
        self._bond_sup = float(first.z.max(initial=0.0))
        self._variation = float((first.z * lengths).sum()) if len(first.z) else 0.0

    def _h1_sq(self, u: np.ndarray) -> float:
        return float(u @ (self._S @ u) + self._m @ (u * u))

    def add(self, state: State) -> None:
        prev, self.prev = self.prev, state
        dt = state.t - prev.t
        self._sup_h1 = max(self._sup_h1, math.sqrt(self._h1_sq(state.u)))
        self._rate_sq += dt * self._h1_sq((state.u - prev.u) / dt)
        self._bond_sup = max(self._bond_sup, state.z.max(initial=0.0))
        self._variation += float((np.abs(state.z - prev.z) * self._lengths).sum())

    def values(self) -> dict[str, float]:
        return {
            "displacement_sup_h1": self._sup_h1,
            "displacement_rate_h1": math.sqrt(self._rate_sq),
            "bond_sup": float(self._bond_sup),
            "bond_variation_l1": self._variation,
        }


def trajectory_norms(ops: Operators, first: State) -> NormSums:
    """Discrete analogues of the a priori norm bounds, summed from the state first.

    displacement_sup_h1: max over states of the full H1 norm.
    displacement_rate_h1: H1-in-time norm built from increment rates.
    bond_sup: largest bond fraction over space-time.
    bond_variation_l1: initial L1 mass plus total variation in time of
    the bond field, integrated over the interface.
    All stay bounded under simultaneous mesh and time refinement.  The
    H1 Gram operator is assembled here, once per run.
    """
    # u . (S u) is the sum of area * |B u|^2 over triangles (C = I), and
    # the lumped mass m (area / 3 per triangle node, both dofs) the L2 part.
    mesh = ops.mesh
    S = assembly.assemble_stiffness(mesh, np.eye(3))
    _, area = assembly.triangle_operators(mesh)
    node_mass = np.bincount(
        mesh.triangles.ravel(), np.repeat(area / 3.0, 3), minlength=mesh.n_nodes
    )
    return NormSums(S, np.repeat(node_mass, 2), mesh.seg_length, first)
