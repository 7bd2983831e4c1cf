"""Structured triangulations of the bonded-bar geometry.

The benchmark body is a rectangle of length L and height H meshed with
right triangles on a uniform grid.  Part of the bottom edge is glued to
a foundation through adhesive interface segments; the right edge is the
driven (Dirichlet) boundary and every other boundary edge is traction
free.  Two foundation variants exist:

* ``rigid``: the foundation does not deform; interface segments point at
  the body's own bottom nodes and the far side contributes zero
  displacement.
* ``two_body``: a second, mirrored rectangle below the first, with
  geometrically coincident but distinct node pairs along the seam.

All meshes are plain read-only numpy arrays, the interface included:
one row per segment in each of its four seg_* arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh2D",
    "build_benchmark_mesh",
    "build_two_body_mesh",
    "validate",
    "export_csv",
]


@dataclass(frozen=True)
class Mesh2D:
    """Conforming triangle mesh with boundary tags and interface segments.

    nodes: (N, 2) float coordinates.  triangles: (M, 3) int, counter
    clockwise.  The m interface segments run along increasing x, one row
    each: seg_plus (m, 2) holds the endpoint node ids on the body side,
    seg_minus (m, 2) those on the foundation side (the same array on a
    rigid foundation, whose side is fixed at zero displacement),
    seg_normal (m, 2) the unit normal from body to foundation and
    seg_length (m,) the lengths.  node_body labels which bonded body a
    node belongs to (all zero for the single-body rigid variant).  h is
    the generating cell size, reported per level by the refinement ladder.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    seg_plus: np.ndarray
    seg_minus: np.ndarray
    seg_normal: np.ndarray
    seg_length: np.ndarray
    dirichlet_nodes: frozenset[int]
    foundation: str
    h: float
    node_body: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.node_body is None:
            object.__setattr__(self, "node_body", np.zeros(len(self.nodes), dtype=np.int8))
        for name, dtype in (
            ("nodes", float), ("triangles", np.int64), ("seg_plus", np.int64),
            ("seg_minus", np.int64), ("seg_normal", float), ("seg_length", float),
            ("node_body", np.int8),
        ):
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_dofs(self) -> int:
        return 2 * len(self.nodes)

    def interface_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Segment endpoints and the first occurrence of each node pair.

        Returns (ends, first): ends[2 * e + s] is the (plus, minus) node
        pair at end s of segment e, and first indexes ends at the first
        occurrence of every distinct pair, ordered by increasing x.
        """
        ends = np.stack((self.seg_plus, self.seg_minus), axis=-1).reshape(-1, 2)
        first = np.sort(np.unique(ends, axis=0, return_index=True)[1])
        xy = self.nodes[ends[first, 0]]
        return ends, first[np.lexsort((xy[:, 1], xy[:, 0]))]


def _grid_nodes(L: float, H: float, nx: int, ny: int, y0: float = 0.0) -> np.ndarray:
    xs = np.linspace(0.0, L, nx + 1)
    ys = np.linspace(y0, y0 + H, ny + 1)
    xx, yy = np.meshgrid(xs, ys)  # row j = constant y
    return np.column_stack([xx.ravel(), yy.ravel()])


def _grid_triangles(nx: int, ny: int, offset: int = 0) -> np.ndarray:
    tris = []
    for j in range(ny):
        for i in range(nx):
            n00 = offset + j * (nx + 1) + i
            n10 = n00 + 1
            n01 = n00 + (nx + 1)
            n11 = n01 + 1
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    return np.array(tris, dtype=np.int64)


def _bottom_cell_counts(n_interface: int, glued_fraction: float) -> tuple[int, int]:
    """Total bottom cells and glued cells realizing the requested segment count.

    The total is the nearest integer to n_interface / glued_fraction and
    the glued count is ceil(glued_fraction * total), which recovers
    n_interface exactly whenever the product is integral (the benchmark
    family); otherwise the realized count may differ by one and the mesh
    reports what it actually carries.
    """
    if n_interface < 1:
        raise ValueError(f"need at least one interface segment, got {n_interface}")
    if not 0.0 < glued_fraction <= 1.0:
        raise ValueError(f"glued fraction must lie in (0, 1], got {glued_fraction}")
    nx = max(n_interface, round(n_interface / glued_fraction))
    n_glued = math.ceil(glued_fraction * nx - 1e-9)
    n_glued = min(max(n_glued, 1), nx)
    return nx, n_glued


def build_benchmark_mesh(
    L: float,
    H: float,
    n_interface: int,
    glued_fraction: float,
    glued_from: str = "left",
) -> Mesh2D:
    """Rectangle on a rigid foundation, glued along part of its bottom edge.

    The grid is square-celled with size h = L / n_total where n_total is
    chosen so the glued portion carries n_interface segments; the vertical
    cell count is the nearest integer to H / h.  Dirichlet nodes are the
    right edge; the interface normal points down, into the foundation.
    """
    if L <= 0 or H <= 0:
        raise ValueError(f"domain sides must be positive, got L={L}, H={H}")
    if glued_from not in ("left", "right"):
        raise ValueError(f"glued_from must be 'left' or 'right', got {glued_from!r}")
    nx, n_glued = _bottom_cell_counts(n_interface, glued_fraction)
    h = L / nx
    ny = max(1, round(H / h))

    nodes = _grid_nodes(L, H, nx, ny)
    triangles = _grid_triangles(nx, ny)
    dirichlet = frozenset(int(j * (nx + 1) + nx) for j in range(ny + 1))

    cells = np.arange(n_glued) + (nx - n_glued if glued_from == "right" else 0)
    ends = np.column_stack([cells, cells + 1])
    return Mesh2D(
        nodes=nodes,
        triangles=triangles,
        seg_plus=ends,
        seg_minus=ends,
        seg_normal=np.tile([0.0, -1.0], (len(cells), 1)),
        seg_length=np.full(len(cells), h),
        dirichlet_nodes=dirichlet,
        foundation="rigid",
        h=h,
    )


def build_two_body_mesh(
    L: float,
    H: float,
    n_interface: int,
    glued_fraction: float,
    glued_from: str = "left",
) -> Mesh2D:
    """Two stacked rectangles glued across y = 0 with duplicated seam nodes.

    The upper body is the rigid benchmark's bar (driven right edge),
    built by build_benchmark_mesh; the lower body is clamped along its
    bottom.  Interface segments pair the coincident node duplicates,
    normal pointing from the upper body into the lower one: seg_minus is
    seg_plus shifted to the lower grid's top row.
    """
    upper = build_benchmark_mesh(L, H, n_interface, glued_fraction, glued_from)
    nx, _ = _bottom_cell_counts(n_interface, glued_fraction)
    offset = upper.n_nodes
    ny = offset // (nx + 1) - 1  # the upper grid has (nx + 1) x (ny + 1) nodes
    lower_nodes = _grid_nodes(L, H, nx, ny, y0=-H)
    return Mesh2D(
        nodes=np.vstack([upper.nodes, lower_nodes]),
        triangles=np.vstack([upper.triangles, _grid_triangles(nx, ny, offset=offset)]),
        seg_plus=upper.seg_plus,
        seg_minus=upper.seg_plus + (offset + ny * (nx + 1)),  # the lower top row
        seg_normal=upper.seg_normal,
        seg_length=upper.seg_length,
        # the upper right edge and the lower bottom edge
        dirichlet_nodes=upper.dirichlet_nodes | frozenset(range(offset, offset + nx + 1)),
        foundation="two_body",
        h=upper.h,
        node_body=np.repeat(np.array([0, 1], np.int8), [offset, len(lower_nodes)]),
    )


def signed_areas(mesh: Mesh2D) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def validate(mesh: Mesh2D) -> list[str]:
    """Check structural invariants; returns one message per violation.

    An empty list means the mesh is usable: finite coordinates, counter
    clockwise triangles of positive area, conforming edge use, Dirichlet
    nodes present on every body, and an interface chain of unit-normal,
    positive-length, x-ordered segments whose sides coincide geometrically.
    """
    problems: list[str] = []
    if not np.isfinite(mesh.nodes).all():
        problems.append("nodes: non-finite coordinates present")
    if mesh.h <= 0:
        problems.append(f"h: generating size must be positive, got {mesh.h}")

    if mesh.triangles.size:
        if mesh.triangles.min() < 0 or mesh.triangles.max() >= mesh.n_nodes:
            problems.append("triangles: node index out of range")
            return problems
    areas = signed_areas(mesh)
    for t in np.nonzero(areas <= 0)[0]:
        problems.append(
            f"triangle {t}: not counterclockwise (signed area {areas[t]:.3e})"
        )

    directed: set[tuple[int, int]] = set()
    undirected: dict[tuple[int, int], int] = {}
    for t, (a, b, c) in enumerate(mesh.triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            u, v = int(u), int(v)
            if (u, v) in directed:
                problems.append(
                    f"triangle {t}: directed edge ({u},{v}) used twice, mesh overlaps"
                )
            directed.add((u, v))
            key = (min(u, v), max(u, v))
            undirected[key] = undirected.get(key, 0) + 1
    for (u, v), k in undirected.items():
        if k > 2:
            problems.append(f"edge ({u},{v}): shared by {k} > 2 triangles")

    n_bodies = int(mesh.node_body.max()) + 1 if mesh.n_nodes else 0
    for b in range(n_bodies):
        body_nodes = set(np.nonzero(mesh.node_body == b)[0].tolist())
        if not body_nodes & mesh.dirichlet_nodes:
            problems.append(f"body {b}: no Dirichlet nodes, rigid motions unconstrained")

    tol = 1e-12 * max(mesh.h, 1.0)
    prev_end: np.ndarray | None = None
    prev_x = -math.inf
    segments = zip(mesh.seg_plus, mesh.seg_minus, mesh.seg_normal, mesh.seg_length.tolist())
    for s, (plus, minus, n, length) in enumerate(segments):
        if abs(float(n @ n) - 1.0) > 1e-12:
            problems.append(f"segment {s}: normal not unit length")
        if length <= 0:
            problems.append(f"segment {s}: nonpositive length {length}")
        pa, pb = mesh.nodes[plus]
        if abs(float(np.hypot(*(pb - pa))) - length) > 1e-9 * max(length, 1.0):
            problems.append(f"segment {s}: stored length disagrees with endpoints")
        if mesh.foundation == "rigid":
            if (plus != minus).any():
                problems.append(f"segment {s}: rigid mode requires node_minus == node_plus")
        else:
            for p, q in zip(plus.tolist(), minus.tolist()):
                if p == q:
                    problems.append(
                        f"segment {s}: two-body mode requires distinct duplicated nodes"
                    )
                elif np.abs(mesh.nodes[p] - mesh.nodes[q]).max() > tol:
                    problems.append(
                        f"segment {s}: node pair ({p},{q}) not geometrically coincident"
                    )
                if mesh.node_body[p] == mesh.node_body[q] and p != q:
                    problems.append(f"segment {s}: paired nodes belong to the same body")
        if pa[0] < prev_x - tol:
            problems.append(f"segment {s}: segments not ordered by increasing x")
        if prev_end is not None and np.abs(pa - prev_end).max() > tol:
            problems.append(f"segment {s}: gap or overlap before this segment")
        prev_end = pb
        prev_x = pa[0]

    return problems


def export_csv(mesh: Mesh2D, path) -> None:
    """Write the mesh as a sectioned CSV: nodes, triangles, interface, tags."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("nodes\nid,x,y\n")
        for i, (x, y) in enumerate(mesh.nodes):
            out.write(f"{i},{float(x)!r},{float(y)!r}\n")
        out.write("triangles\nid,n0,n1,n2\n")
        for i, (a, b, c) in enumerate(mesh.triangles):
            out.write(f"{i},{a},{b},{c}\n")
        out.write("interface\nid,plus_a,plus_b,minus_a,minus_b,nx,ny,length\n")
        columns = (mesh.seg_plus, mesh.seg_minus, mesh.seg_normal, mesh.seg_length)
        for i, ((pa, pb), (ma, mb), (nx, ny), length) in enumerate(
            zip(*(c.tolist() for c in columns))
        ):
            out.write(f"{i},{pa},{pb},{ma},{mb},{nx!r},{ny!r},{length!r}\n")
        out.write("tags\nkind,a,b\n")
        out.write(f"foundation,{mesh.foundation},\n")
        out.write(f"h,{float(mesh.h)!r},\n")
        for i in sorted(mesh.dirichlet_nodes):
            out.write(f"dirichlet_node,{i},\n")
