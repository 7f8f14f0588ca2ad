import numpy as np
import pytest

from reggeshell.mesh import (
    MeshError,
    build_mesh,
    count_entities,
    read_mesh,
    rectangle_mesh,
    refine_uniform,
)


def crossed_square():
    """Unit square divided by both diagonals: 4 triangles, 5 vertices."""
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return build_mesh(verts, tris)


class TestBuildEdges:
    def test_crossed_square_has_eight_edges(self):
        assert crossed_square().num_edges == 8

    def test_single_triangle(self):
        m = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        assert m.num_edges == 3

    def test_two_triangles_share_an_edge(self):
        m = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
        assert m.num_edges == 5

    def test_nonmanifold_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0)]
        tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
        with pytest.raises(MeshError):
            build_mesh(verts, tris)

    def test_edge_rows_sorted(self):
        m = crossed_square()
        assert np.all(m.edges[:, 0] < m.edges[:, 1])


class TestRefine:
    def test_four_triangles_become_sixteen(self):
        assert refine_uniform(crossed_square()).num_triangles == 16

    def test_vertex_count_grows_by_edge_count(self):
        m = crossed_square()
        r = refine_uniform(m)
        assert r.num_vertices == m.num_vertices + m.num_edges

    def test_cylinder_patch_sequence(self):
        m = rectangle_mesh(2, 2, (0, 1), (0, 1))
        assert m.num_triangles == 8
        m = refine_uniform(m)
        assert m.num_triangles == 32
        m = refine_uniform(m)
        assert m.num_triangles == 128

    def test_markers_inherited(self):
        m = rectangle_mesh(1, 1, (0, 1), (0, 1), {"bottom": "clamped"})
        r = refine_uniform(m)
        assert len(r.boundary_markers["clamped"]) == 2
        for e in r.edges_with_marker("clamped"):
            assert np.all(r.vertices[r.edges[e]][:, 1] == 0.0)


class TestCounts:
    def test_crossed_square(self):
        counts = count_entities(crossed_square())
        assert counts == (4, 8, 5, 4, 1)
        nt, ne, nv, nvb, nvi = counts
        assert 3 + ne == 2 * nv + nvi

    def test_single_triangle(self):
        m = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        assert count_entities(m) == (1, 3, 3, 3, 0)

    def test_euler_relation_under_refinement(self):
        m = crossed_square()
        for _ in range(4):
            m = refine_uniform(m)
            nt, ne, nv, nvb, nvi = count_entities(m)
            assert 3 + ne == 2 * nv + nvi
        # constraint-count ratio approaches 1/2
        assert ne / (3 * nt) == pytest.approx(0.5, rel=0.05)


class TestImport:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(
            "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\nedge 0 1 clamped\n"
        )
        m = read_mesh(path)
        assert m.num_triangles == 2
        assert m.num_edges == 5
        assert len(m.edges_with_marker("clamped")) == 1

    @pytest.mark.parametrize("text", [
        # vertex index -1 would wrap to the last vertex, a valid triangle
        "4 1\n0 0\n1 0\n1 1\n0 1\n0 2 -1\n",
        # header promises 4 vertices, the file has 3
        "4 2\n0 0\n1 0\n1 1\n0 1 2\n0 2 3\n",
        # clockwise triangle
        "3 1\n0 0\n1 0\n0 1\n0 2 1\n",
    ], ids=["negative_index", "short_vertex_block", "clockwise"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        with pytest.raises(MeshError):
            read_mesh(path)
