import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delam2d.mesh import (
    _bottom_cell_counts,
    build_benchmark_mesh,
    build_two_body_mesh,
    export_csv,
    signed_areas,
    validate,
)


class TestCellCounts:
    def test_benchmark_family_exact(self):
        assert _bottom_cell_counts(81, 0.9) == (90, 81)
        assert _bottom_cell_counts(54, 0.9) == (60, 54)
        assert _bottom_cell_counts(27, 0.9) == (30, 27)
        assert _bottom_cell_counts(9, 0.9) == (10, 9)

    def test_fully_glued(self):
        assert _bottom_cell_counts(7, 1.0) == (7, 7)

    @given(n=st.integers(1, 200), f=st.floats(0.05, 1.0))
    @settings(max_examples=100)
    def test_counts_consistent(self, n, f):
        nx, n_glued = _bottom_cell_counts(n, f)
        assert 1 <= n_glued <= nx
        assert nx >= n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            _bottom_cell_counts(0, 0.9)
        with pytest.raises(ValueError):
            _bottom_cell_counts(5, 0.0)


class TestBenchmarkMesh:
    def test_benchmark_dimensions(self):
        m = build_benchmark_mesh(0.25, 0.025, 81, 0.9)
        assert m.n_nodes == 91 * 10
        assert len(m.triangles) == 90 * 9 * 2
        assert len(m.seg_length) == 81
        assert m.h == pytest.approx(0.25 / 90, rel=1e-15)
        assert m.foundation == "rigid"
        assert len(m.dirichlet_nodes) == 10  # right edge, ny + 1 nodes

    def test_validates_clean(self):
        assert validate(build_benchmark_mesh(0.25, 0.025, 81, 0.9)) == []
        assert validate(build_benchmark_mesh(0.25, 0.025, 9, 0.9)) == []
        assert validate(build_benchmark_mesh(1.0, 1.0, 4, 1.0)) == []

    def test_interface_runs_from_left(self):
        m = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        xs = m.nodes[m.seg_plus[:, 0], 0]
        assert min(xs) == 0.0
        assert max(xs) == pytest.approx(0.25 - 2 * m.h)
        assert (m.seg_normal == (0.0, -1.0)).all()
        assert m.seg_length == pytest.approx(np.full(9, m.h))
        assert np.array_equal(m.seg_plus, m.seg_minus)  # rigid foundation reuses nodes

    def test_interface_runs_from_right(self):
        m = build_benchmark_mesh(0.25, 0.025, 9, 0.9, glued_from="right")
        xs = m.nodes[m.seg_plus[:, 1], 0]
        assert max(xs) == pytest.approx(0.25)
        assert validate(m) == []

    def test_dirichlet_on_right_edge(self):
        m = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        for n in m.dirichlet_nodes:
            assert m.nodes[n, 0] == pytest.approx(0.25)

    def test_interface_nodes_ordered_chain(self):
        m = build_benchmark_mesh(0.25, 0.025, 9, 0.9)
        ends, first = m.interface_ends()
        pairs = ends[first]
        assert len(pairs) == 10
        xs = m.nodes[pairs[:, 0], 0].tolist()
        assert xs == sorted(xs)

    def test_triangles_positively_oriented(self):
        m = build_benchmark_mesh(0.3, 0.1, 6, 0.75)
        assert signed_areas(m).min() > 0.0

    def test_rejects_degenerate_domain(self):
        with pytest.raises(ValueError):
            build_benchmark_mesh(0.0, 0.1, 5, 0.9)

    @given(
        n=st.integers(1, 30),
        f=st.floats(0.2, 1.0),
        L=st.floats(0.1, 2.0),
        aspect=st.floats(0.05, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_geometry_validates(self, n, f, L, aspect):
        m = build_benchmark_mesh(L, aspect * L, n, f)
        assert validate(m) == []


class TestTwoBodyMesh:
    def test_validates_clean(self):
        m = build_two_body_mesh(0.25, 0.025, 9, 0.9)
        assert validate(m) == []
        assert m.foundation == "two_body"

    def test_seam_nodes_coincide_but_differ(self):
        m = build_two_body_mesh(0.25, 0.025, 9, 0.9)
        for plus, minus in zip(m.seg_plus, m.seg_minus):
            for p, q in zip(plus, minus):
                assert p != q
                assert np.allclose(m.nodes[p], m.nodes[q])
                assert m.node_body[p] == 0 and m.node_body[q] == 1

    def test_two_bodies_share_no_nodes(self):
        m = build_two_body_mesh(0.25, 0.025, 6, 0.8)
        upper = set(np.nonzero(m.node_body == 0)[0].tolist())
        for tri in m.triangles:
            bodies = {int(m.node_body[v]) for v in tri}
            assert len(bodies) == 1
        assert upper and len(upper) < m.n_nodes

    @pytest.mark.parametrize(
        "n,f,side", [(9, 0.9, "left"), (9, 0.37, "right"), (6, 1.0, "left"), (27, 0.9, "right")]
    )
    def test_upper_bar_is_the_rigid_mesh(self, n, f, side):
        rigid = build_benchmark_mesh(0.25, 0.025, n, f, side)
        m = build_two_body_mesh(0.25, 0.025, n, f, side)
        k, t = rigid.n_nodes, len(rigid.triangles)
        assert m.nodes[:k].tobytes() == rigid.nodes.tobytes()
        assert np.array_equal(m.node_body[:k], np.zeros(k)) and m.node_body[k:].all()
        assert np.array_equal(m.triangles[:t], rigid.triangles)
        assert m.triangles[t:].min() >= k
        assert {i for i in m.dirichlet_nodes if i < k} == rigid.dirichlet_nodes
        assert np.array_equal(m.seg_plus, rigid.seg_plus)
        assert m.h == rigid.h

    def test_dirichlet_spans_both_bodies(self):
        m = build_two_body_mesh(0.25, 0.025, 6, 0.8)
        bodies = {int(m.node_body[n]) for n in m.dirichlet_nodes}
        assert bodies == {0, 1}


class TestValidateCatchesCorruption:
    def test_flipped_triangle(self):
        m = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        tris = m.triangles.copy()
        tris[0] = tris[0][::-1]
        bad = dataclasses.replace(m, triangles=tris)
        assert any("orient" in p or "area" in p for p in validate(bad))

    def test_non_unit_normal(self):
        m = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        normal = m.seg_normal.copy()
        normal[0] = (0.0, -2.0)
        bad = dataclasses.replace(m, seg_normal=normal)
        assert validate(bad) == ["segment 0: normal not unit length"]

    def test_wrong_length(self):
        m = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        length = m.seg_length.copy()
        length[0] *= 3.0
        bad = dataclasses.replace(m, seg_length=length)
        assert validate(bad) == ["segment 0: stored length disagrees with endpoints"]

    def test_nonfinite_node(self):
        m = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        nodes = m.nodes.copy()
        nodes[0, 0] = math.nan
        bad = dataclasses.replace(m, nodes=nodes)
        assert validate(bad)


class TestExport:
    def test_sectioned_csv(self, tmp_path):
        m = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        path = tmp_path / "mesh.csv"
        export_csv(m, path)
        text = path.read_text().splitlines()
        assert "nodes" in text
        assert "triangles" in text
        assert "interface" in text
        node_header = text.index("nodes") + 1
        assert text[node_header] == "id,x,y"
        # one row per node between the headers
        tri_at = text.index("triangles")
        assert tri_at - node_header - 1 == m.n_nodes

    # sha256 of export_csv output before the interface was stored as arrays
    @pytest.mark.parametrize(
        "builder,args,digest",
        [
            (build_benchmark_mesh, (1.0, 0.25, 4, 0.8, "left"),
             "cb551325735f1921d4ebd483abd40e8c8bdc5d82c9eb491a0b3d0dd0e82acd12"),
            (build_benchmark_mesh, (1.0, 0.25, 3, 0.75, "right"),
             "72f6d92b1cf5c5fb0e661eea7c4b5f217fd83957d3f02811008f3764f5e15261"),
            (build_two_body_mesh, (1.0, 0.25, 4, 0.8, "left"),
             "9d713ffaaf05786c16d2ee888d27727167f43c7aa770cc52adda5eae30bbbe69"),
            (build_two_body_mesh, (1.0, 0.25, 3, 0.75, "right"),
             "745f221064883fe11b215253ba22d1e01def09b7ae9af6b283d92653aca48695"),
        ],
        ids=["rigid_left", "rigid_right", "two_body_left", "two_body_right"],
    )
    def test_bytes_pinned(self, tmp_path, builder, args, digest):
        path = tmp_path / "mesh.csv"
        export_csv(builder(*args), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_arrays_read_only(self):
        m = build_benchmark_mesh(0.25, 0.025, 4, 1.0)
        with pytest.raises(ValueError):
            m.nodes[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.triangles[0, 0] = 5

    @pytest.mark.parametrize("builder", [build_benchmark_mesh, build_two_body_mesh])
    def test_interface_arrays_read_only_with_stated_shapes(self, builder):
        m = builder(0.25, 0.025, 4, 0.8)
        for name in ("seg_plus", "seg_minus", "seg_normal", "seg_length"):
            arr = getattr(m, name)
            assert arr.shape == ((4,) if name == "seg_length" else (4, 2)), name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0
