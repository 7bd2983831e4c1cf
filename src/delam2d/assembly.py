"""Finite element operators on a bonded-bar mesh.

Displacements are piecewise affine (P1) with two dofs per node, numbered
(2*node, 2*node + 1).  The bond fraction is piecewise constant per
interface segment.  Bulk matrices use one-point quadrature on constant
strain triangles (exact for P1); interface and edge terms use two-point
Gauss along the segment (exact for the quadratic integrands appearing
here).

The displacement jump across an interface segment is the foundation-side
trace minus the body-side trace.  With the segment normal pointing from
the body into the foundation, jump . normal is then the opening gap and
the Signorini condition reads jump . normal >= 0; on the rigid benchmark
this is u_y >= 0 at every glued bottom node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .constitutive import AdhesiveLaw
from .mesh import Mesh2D

__all__ = [
    "DofMap",
    "ConstraintMatrix",
    "triangle_operators",
    "assemble_stiffness",
    "assemble_viscosity",
    "JumpOperator",
    "jump_operator",
    "assemble_interface",
    "glue_block",
    "make_dofmap",
    "dirichlet_map",
    "constraint_matrix",
]

GAUSS_2PT = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))


def node_dofs(nodes: np.ndarray) -> np.ndarray:
    """Interleaved (n, 2) dof indices for an int array of node ids."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return np.stack([2 * nodes, 2 * nodes + 1], axis=-1)


def triangle_operators(mesh: Mesh2D) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle Voigt strain operators and areas.

    Returns (B, area) with B of shape (M, 3, 6) mapping the six local
    displacement dofs to (e11, e22, 2*e12), constant on each triangle.
    """
    p = mesh.nodes[mesh.triangles]  # (M, 3, 2)
    x, y = p[..., 0], p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    area = 0.5 * det
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    M = len(mesh.triangles)
    B = np.zeros((M, 3, 6))
    inv = 1.0 / det
    for i in range(3):
        B[:, 0, 2 * i] = b[:, i] * inv
        B[:, 1, 2 * i + 1] = c[:, i] * inv
        B[:, 2, 2 * i] = c[:, i] * inv
        B[:, 2, 2 * i + 1] = b[:, i] * inv
    return B, area


def assemble_stiffness(mesh: Mesh2D, C: np.ndarray) -> sp.csr_matrix:
    """Symmetric bulk stiffness for the plane-strain Voigt tensor C."""
    B, area = triangle_operators(mesh)
    ke = np.einsum("tki,kl,tlj->tij", B, C, B) * area[:, None, None]
    dofs = node_dofs(mesh.triangles).reshape(len(mesh.triangles), 6)
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    K = sp.coo_matrix(
        (ke.ravel(), (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs)
    ).tocsr()
    K.sum_duplicates()
    return K


def assemble_viscosity(stiffness: sp.csr_matrix, chi: float) -> sp.csr_matrix:
    """Kelvin-Voigt viscosity matrix, the relaxation time times the stiffness."""
    if chi < 0:
        raise ValueError(f"relaxation time must be nonnegative, got {chi}")
    return (stiffness * chi).tocsr()


@dataclass(frozen=True)
class JumpOperator:
    """Displacement jump at the two Gauss points of every interface segment.

    matrix maps the full displacement vector to four rows per segment,
    ordered (segment, Gauss point, component), where component 0 is the
    normal jump j . n and component 1 the tangential jump j . t, with t
    the normal turned by +90 degrees.  length holds the segment lengths;
    each Gauss point carries quadrature weight length / 2.  The read-only
    seg_rows[e] holds segment e's four rows, dense on its own dofs
    seg_dofs[e] (four on a rigid foundation, eight across two bodies).
    """

    matrix: sp.csr_matrix
    length: np.ndarray
    seg_rows: np.ndarray
    seg_dofs: np.ndarray

    def values(self, u: np.ndarray) -> np.ndarray:
        """(segment, Gauss point, component) array of the jump of u."""
        return (self.matrix @ u).reshape(-1, len(GAUSS_2PT), 2)


def _jump_rows(mesh: Mesh2D, positions) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Jump rows of every segment at barycentric positions s in [0, 1].

    Rows are ordered (segment, position, component) as in JumpOperator.
    Row (e, s, c) holds the frame vector c of segment e times the P1
    shape weights (1 - s, s) of its endpoints: negated on the body
    side, positive on the foundation side, which is absent in rigid mode.
    Returns them sparse, and dense per segment as JumpOperator's seg_*.
    """
    n = mesh.seg_normal
    frame = np.stack([n, np.column_stack([-n[:, 1], n[:, 0]])], axis=1)  # (e, c, xy)
    shape = np.array([[1.0 - s, s] for s in positions])  # (p, endpoint)
    m, p = len(n), len(shape)
    sides = [(mesh.seg_plus, -1.0)]
    if mesh.foundation != "rigid":
        sides.append((mesh.seg_minus, 1.0))
    # (e, p, c, endpoint, xy) per side, flattened to (e, p c, side endpoint xy)
    vals = [sign * shape[None, :, None, :, None] * frame[:, None, :, None, :] for _, sign in sides]
    rows = np.concatenate([v.reshape(m, 2 * p, 4) for v in vals], axis=2)
    dofs = np.concatenate([node_dofs(nodes).reshape(m, 4) for nodes, _ in sides], axis=1)
    cols = np.broadcast_to(dofs[:, None, :], rows.shape).ravel()
    J = sp.coo_matrix(
        (rows.ravel(), (np.arange(cols.size) // dofs.shape[1], cols)),
        shape=(2 * p * m, mesh.n_dofs),
    ).tocsr()
    J.eliminate_zeros()
    rows.flags.writeable = dofs.flags.writeable = False
    return J, rows, dofs


def jump_operator(mesh: Mesh2D) -> JumpOperator:
    """The interface jump at the Gauss points, built once per mesh."""
    J, rows, dofs = _jump_rows(mesh, GAUSS_2PT)
    return JumpOperator(matrix=J, length=mesh.seg_length, seg_rows=rows, seg_dofs=dofs)


def _glue_weights(jump: JumpOperator, law: AdhesiveLaw, z: np.ndarray) -> np.ndarray:
    """(segment, row) quadrature weights (length z / 2) kappa of the glue at bond field z."""
    z = np.asarray(z, dtype=float)
    if len(z) != len(jump.length):
        raise ValueError(f"bond vector has {len(z)} entries for {len(jump.length)} segments")
    return 0.5 * (jump.length * z)[:, None] * np.tile([law.kappa_n, law.kappa_t], len(GAUSS_2PT))


def assemble_interface(jump: JumpOperator, law: AdhesiveLaw, z: np.ndarray) -> sp.csr_matrix:
    """Glue stiffness J^T W J weighted by the per-segment bond fraction z.

    The quadratic form 0.5 u . A u equals the integral over the interface
    of (z/2)(kappa_n j_n^2 + kappa_t j_t^2) for the P1 jump j of u.
    Fully debonded segments contribute nothing; the matrix is positive
    semidefinite.
    """
    w = _glue_weights(jump, law, z).ravel()
    keep = w != 0.0
    Jk = jump.matrix[keep]
    return (Jk.T @ sp.diags(w[keep]) @ Jk).tocsr()


def glue_block(jump: JumpOperator, law: AdhesiveLaw, dz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """assemble_interface(jump, law, dz) as (D, a dense block on D).

    D, sorted, holds the dofs of the segments where dz is nonzero; the
    block sums those segments' J_e^T W_e J_e, each only on its own dofs.
    """
    w = _glue_weights(jump, law, dz)
    seg = np.flatnonzero(dz)
    rows, dofs = jump.seg_rows[seg], jump.seg_dofs[seg]
    D = np.unique(dofs)
    at, block = np.searchsorted(D, dofs), np.zeros((len(D), len(D)))
    np.add.at(block, (at[:, :, None], at[:, None, :]),
              np.einsum("eri,er,erj->eij", rows, w[seg], rows))
    return D, block


@dataclass(frozen=True)
class DofMap:
    """Partition of the global dofs into free and prescribed sets.

    The prescribed nodes move at constant velocity: driven has one entry
    per prescribed node, true on the driven body 0 (every node on a rigid
    foundation; the lower body's clamped edge stays at zero), and rate
    one entry per prescribed dof, the node's velocity component.
    prescribed_values(t) = rate * t in prescribed order; scatter fills a
    full vector from a free one and prescribed values.
    """

    n_dofs: int
    free: np.ndarray
    prescribed: np.ndarray
    rate: np.ndarray
    driven: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.free, self.prescribed, self.rate, self.driven):
            arr.flags.writeable = False

    @property
    def n_free(self) -> int:
        return len(self.free)

    def prescribed_values(self, t: float) -> np.ndarray:
        return self.rate * t

    def scatter(self, u_free: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The full vector of u_free and the prescribed values."""
        u = np.zeros(self.n_dofs)
        u[self.free] = u_free
        u[self.prescribed] = values
        return u


def make_dofmap(mesh: Mesh2D, prescribed_nodes, velocity: np.ndarray) -> DofMap:
    """Dof map prescribing both components of the given nodes.

    The nodes of body 0 move at the (2,) velocity, those of any other
    body stay at zero.
    """
    nodes = np.array(sorted(int(n) for n in prescribed_nodes), dtype=np.int64)
    prescribed = node_dofs(nodes).ravel()
    mask = np.ones(mesh.n_dofs, dtype=bool)
    mask[prescribed] = False
    driven = mesh.node_body[nodes] == 0
    return DofMap(
        n_dofs=mesh.n_dofs,
        free=np.nonzero(mask)[0],
        prescribed=prescribed,
        # a product, not a select: a clamped node keeps the sign of a
        # negative velocity component as -0.0
        rate=(driven[:, None] * np.asarray(velocity, dtype=float)).ravel(),
        driven=driven,
    )


def dirichlet_map(mesh: Mesh2D, velocity: np.ndarray) -> DofMap:
    """Dof map driving the mesh's tagged Dirichlet nodes at the (2,) velocity."""
    if not mesh.dirichlet_nodes:
        raise ValueError("mesh has no Dirichlet nodes")
    return make_dofmap(mesh, mesh.dirichlet_nodes, velocity)


@dataclass(frozen=True)
class ConstraintMatrix:
    """Nodal non-penetration rows jump . normal >= 0 over free dofs.

    The inequality on the full displacement splits as
    rows @ u_free + prescribed_part @ u_prescribed >= 0.  Rows whose dofs
    are all prescribed cannot enter the program; they are kept aside in
    fixed, and fixed @ prescribed_values(t) must stay nonnegative for the
    data to be admissible.
    """

    rows: sp.csr_matrix
    prescribed_part: sp.csr_matrix
    dofmap: DofMap
    fixed: sp.csr_matrix

    def gaps(self, u_full: np.ndarray) -> np.ndarray:
        """Opening gap at every constrained node pair for a full vector."""
        return self.rows @ u_full[self.dofmap.free] + self.prescribed_part @ u_full[
            self.dofmap.prescribed
        ]


def constraint_matrix(mesh: Mesh2D, dofmap: DofMap) -> ConstraintMatrix:
    """One non-penetration row per interface node pair, ordered by x.

    Each row is the normal jump row at the pair's node, taken from the
    first segment that ends there.
    """
    _, first = mesh.interface_ends()
    G = _jump_rows(mesh, (0.0, 1.0))[0][2 * first]

    free = G[:, dofmap.free]
    has_free = free.getnnz(axis=1) > 0
    presc = G[:, dofmap.prescribed]
    return ConstraintMatrix(
        rows=free[has_free],
        prescribed_part=presc[has_free],
        dofmap=dofmap,
        fixed=presc[~has_free],
    )

