from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reggeshell.geometry import BENCHMARKS, make_benchmark_mesh
from reggeshell.mesh import (
    LOCAL_EDGES,
    Mesh,
    MeshError,
    count_entities,
    read_mesh,
    rectangle_mesh,
    refine_uniform,
)


# triangles 0 1 2 and 0 1 4 are both counterclockwise and both run 0 -> 1
# along their shared edge, so they lie on the same side of it and overlap
FOLDED_VERTICES = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.9)]
FOLDED_TRIANGLES = [(0, 1, 2), (0, 1, 4), (0, 2, 3)]
FOLDED_MESH = "5 3\n0 0\n1 0\n1 1\n0 1\n0.5 0.9\n0 1 2\n0 1 4\n0 2 3\n"

CROSSED_VERTICES = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
CROSSED_TRIANGLES = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]


def crossed_square():
    """Unit square divided by both diagonals: 4 triangles, 5 vertices."""
    return Mesh(CROSSED_VERTICES, CROSSED_TRIANGLES)


# the per-triangle loop construction that the array-built mesh replaced; it is
# the oracle for the edge numbering, which fixes the dof numbering and thus
# the sparse ordering and the round-off of every solve
def loop_build_mesh(vertices, triangles, boundary_markers=None):
    tris = np.asarray(triangles, dtype=int)
    edge_index = {}
    edges = []
    tri_edges = np.zeros((len(tris), 3), dtype=int)
    signs = np.zeros((len(tris), 3), dtype=int)
    for t, tri in enumerate(tris):
        for le, (a, b) in enumerate(LOCAL_EDGES):
            va, vb = int(tri[a]), int(tri[b])
            key = (min(va, vb), max(va, vb))
            if key not in edge_index:
                edge_index[key] = len(edges)
                edges.append(key)
            tri_edges[t, le] = edge_index[key]
            signs[t, le] = 1 if va < vb else -1
    markers = {}
    for name, pairs in (boundary_markers or {}).items():
        ids = [edge_index[(min(a, b), max(a, b))] for a, b in pairs]
        markers[name] = tuple(sorted(ids))
    return dict(vertices=np.asarray(vertices, dtype=float), triangles=tris,
                edges=np.array(edges, dtype=int), tri_edges=tri_edges,
                tri_edge_signs=signs, boundary_markers=markers)


def loop_refine(ref):
    nv, ne = len(ref["vertices"]), len(ref["edges"])
    mid = nv + np.arange(ne)
    edges, tri_edges = ref["edges"], ref["tri_edges"]
    midpoints = 0.5 * (ref["vertices"][edges[:, 0]] + ref["vertices"][edges[:, 1]])
    tris = []
    for t, (v0, v1, v2) in enumerate(ref["triangles"]):
        m01, m02, m12 = mid[tri_edges[t]]
        tris.extend([(v0, m01, m02), (m01, v1, m12), (m02, m12, v2), (m01, m12, m02)])
    marker_pairs = {}
    for name, eids in ref["boundary_markers"].items():
        pairs = []
        for e in eids:
            a, b = edges[e]
            pairs.extend([(int(a), int(mid[e])), (int(mid[e]), int(b))])
        marker_pairs[name] = pairs
    return loop_build_mesh(np.vstack([ref["vertices"], midpoints]),
                           np.array(tris, dtype=int), marker_pairs)


def loop_rectangle(nx, ny, xlim, ylim, side_markers=None):
    x = np.linspace(xlim[0], xlim[1], nx + 1)
    y = np.linspace(ylim[0], ylim[1], ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    verts = [(xi, yj) for yj in y for xi in x]
    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.extend([(a, b, c), (a, c, d)])
    side_pairs = {
        "bottom": [(vid(i, 0), vid(i + 1, 0)) for i in range(nx)],
        "top": [(vid(i, ny), vid(i + 1, ny)) for i in range(nx)],
        "left": [(vid(0, j), vid(0, j + 1)) for j in range(ny)],
        "right": [(vid(nx, j), vid(nx, j + 1)) for j in range(ny)],
    }
    markers = {}
    for side, name in (side_markers or {}).items():
        markers.setdefault(name, []).extend(side_pairs[side])
    return loop_build_mesh(np.array(verts), np.array(tris, dtype=int), markers)


def assert_same_mesh(mesh, ref):
    for name in ("vertices", "triangles", "edges", "tri_edges", "tri_edge_signs"):
        value = getattr(mesh, name)
        assert value.dtype == ref[name].dtype, name
        assert np.array_equal(value, ref[name]), name
    assert mesh.boundary_markers == ref["boundary_markers"]
    assert list(mesh.boundary_markers) == list(ref["boundary_markers"])
    assert all(type(e) is int for ids in mesh.boundary_markers.values() for e in ids)


class TestBuildEdges:
    def test_crossed_square_has_eight_edges(self):
        assert crossed_square().num_edges == 8

    def test_single_triangle(self):
        m = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        assert m.num_edges == 3

    def test_two_triangles_share_an_edge(self):
        m = Mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
        assert m.num_edges == 5

    def test_nonmanifold_rejected(self):
        verts = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0)]
        tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
        with pytest.raises(MeshError):
            Mesh(verts, tris)

    def test_edge_rows_sorted(self):
        m = crossed_square()
        assert np.all(m.edges[:, 0] < m.edges[:, 1])

    @pytest.mark.parametrize("vertices, triangles, message", [
        (FOLDED_VERTICES, FOLDED_TRIANGLES, "same side"),
        ([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)], "positively oriented"),
    ], ids=["folded", "clockwise"])
    def test_orientation_checked_in_the_mesh(self, vertices, triangles, message):
        with pytest.raises(MeshError, match=message):
            Mesh(vertices, triangles)

    def test_marker_on_non_edge_rejected(self):
        with pytest.raises(MeshError, match=r"unknown edge \(0, 2\)"):
            Mesh(CROSSED_VERTICES, CROSSED_TRIANGLES, {"diagonal": [(0, 2)]})

    def test_mesh_is_frozen(self):
        m = crossed_square()
        with pytest.raises(FrozenInstanceError):
            m.edges = m.edges[:1]
        # the arrays are copies of the input and cannot be written in place
        v = np.array(CROSSED_VERTICES, dtype=float)
        t = np.array(CROSSED_TRIANGLES)
        m = Mesh(v, t)
        v[0] = [9.0, 9.0]
        t[1] = [1, 2, 3]
        assert np.array_equal(m.vertices, CROSSED_VERTICES)
        assert np.array_equal(m.triangles, CROSSED_TRIANGLES)
        for name in ("vertices", "triangles", "edges", "tri_edges", "tri_edge_signs"):
            array = getattr(m, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]


class TestLoopOracle:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_benchmark_meshes(self, name, level):
        spec = BENCHMARKS[name]
        ref = loop_rectangle(*spec["grid"], spec["xlim"], spec["ylim"], spec["sides"])
        for _ in range(level):
            ref = loop_refine(ref)
        assert_same_mesh(make_benchmark_mesh(name, level)[0], ref)

    def test_rectangle_sides_share_a_marker(self):
        sides = {"left": "fixed", "top": "free", "bottom": "fixed", "right": "fixed"}
        args = (3, 2, (0.0, 1.5), (-1.0, 1.0), sides)
        mesh, ref = rectangle_mesh(*args), loop_rectangle(*args)
        assert_same_mesh(mesh, ref)
        assert_same_mesh(refine_uniform(mesh), loop_refine(ref))

    def test_shuffled_crossed_square(self):
        rng = np.random.default_rng(12)
        tris = np.array(CROSSED_TRIANGLES)[rng.permutation(4)]
        # cyclic shifts keep every triangle positively oriented
        tris = np.array([np.roll(t, s) for t, s in zip(tris, rng.integers(0, 3, 4))])
        markers = {"outer": [(1, 0), (2, 1), (2, 3), (0, 3)], "spoke": [(4, 2)]}
        mesh = Mesh(CROSSED_VERTICES, tris, markers)
        ref = loop_build_mesh(CROSSED_VERTICES, tris, markers)
        assert_same_mesh(mesh, ref)
        assert_same_mesh(refine_uniform(mesh), loop_refine(ref))

    def test_read_mesh_file(self, tmp_path):
        mesh = refine_uniform(Mesh(CROSSED_VERTICES, CROSSED_TRIANGLES,
                                   {"outer": [(0, 1), (1, 2), (2, 3), (3, 0)]}))
        markers = {"outer": [(int(b), int(a)) for a, b in
                             mesh.edges[mesh.edges_with_marker("outer")]]}
        lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
        lines += [f"{x!r} {y!r}" for x, y in mesh.vertices.tolist()]
        lines += [" ".join(map(str, t)) for t in mesh.triangles.tolist()]
        lines += [f"edge {a} {b} outer" for a, b in markers["outer"]]
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(lines) + "\n")
        assert_same_mesh(read_mesh(path),
                         loop_build_mesh(mesh.vertices, mesh.triangles, markers))


@st.composite
def relabeled_grids(draw):
    """A benchmark grid at level 0 or 1 as vertices, triangles and marker
    pairs, with the vertices renumbered, the triangles in a drawn order and
    each triangle's local vertices rotated cyclically, which keeps its
    orientation."""
    mesh, _ = make_benchmark_mesh(draw(st.sampled_from(list(BENCHMARKS))),
                                  draw(st.integers(0, 1)))
    # new vertex i is old vertex vertex_order[i]
    vertex_order = np.array(draw(st.permutations(range(mesh.num_vertices))))
    triangle_order = np.array(draw(st.permutations(range(mesh.num_triangles))))
    shifts = draw(arrays(np.int64, mesh.num_triangles, elements=st.integers(0, 2)))
    new_index = np.argsort(vertex_order)
    triangles = new_index[mesh.triangles[triangle_order]]
    triangles = np.take_along_axis(triangles, (np.arange(3) + shifts[:, None]) % 3, axis=1)
    markers = {name: new_index[pairs] for name, pairs in mesh.marker_pairs.items()}
    return mesh.vertices[vertex_order], triangles, markers


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(grid=relabeled_grids())
def test_derived_connectivity_matches_the_loop_oracle(grid):
    mesh, ref = Mesh(*grid), loop_build_mesh(*grid)
    assert_same_mesh(mesh, ref)
    assert_same_mesh(refine_uniform(mesh), loop_refine(ref))


class TestDirectMesh:
    """A ``Mesh`` takes its vertices, triangles and marker pairs alone and
    derives the rest, also under ``dataclasses.replace``."""

    def grid(self):
        return rectangle_mesh(2, 2, (0.0, 1.0), (0.0, 1.0), {"left": "clamped"})

    @pytest.mark.parametrize("change, message", [
        (lambda m: dict(triangles=m.triangles + 1), "triangle vertex"),
        (lambda m: dict(vertices=m.vertices * (-1.0, 1.0)), "positively oriented"),
    ], ids=["vertex_out_of_range", "mirrored"])
    def test_inconsistent_mesh_rejected(self, change, message):
        mesh = self.grid()
        with pytest.raises(MeshError, match=message):
            replace(mesh, **change(mesh))

    def test_connectivity_cannot_be_given(self):
        mesh = self.grid()
        with pytest.raises(TypeError, match="edges"):
            Mesh(mesh.vertices, mesh.triangles, edges=mesh.edges)

    def test_replace_derives_the_edges_anew(self):
        mesh = self.grid()
        triangles = mesh.triangles[::-1]
        changed = replace(mesh, triangles=triangles)
        assert not np.array_equal(changed.tri_edges, mesh.tri_edges)
        assert_same_mesh(changed, loop_build_mesh(mesh.vertices, triangles, mesh.marker_pairs))

    @pytest.mark.parametrize("vertices, triangles, message", [
        # NaN fails the orientation test's <= 0, so it passed unnoticed
        ([(0, 0), (1, np.nan), (0, 1)], [(0, 1, 2)], "finite"),
        ([(0, 0), (1, 0), (np.inf, 1)], [(0, 1, 2)], "finite"),
        # its dofs would have no stiffness
        ([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)], "vertex 3 lies in no triangle"),
        ([(0, 0), (1, 0), (0, 1)], np.empty((0, 3), int), "no triangles"),
    ], ids=["nan_vertex", "inf_vertex", "unused_vertex", "no_triangles"])
    def test_input_checked_in_the_mesh(self, vertices, triangles, message):
        with pytest.raises(MeshError, match=message):
            Mesh(vertices, triangles)

    def test_empty_rectangle_rejected(self):
        # zero cells gave a mesh of 0 triangles and 3 vertices
        with pytest.raises(MeshError, match="no triangles"):
            rectangle_mesh(0, 2, (0.0, 1.0), (0.0, 1.0))


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
        m = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
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
        # non-finite coordinates
        "4 2\n0 0\n1 nan\n1 1\n0 1\n0 1 2\n0 2 3\n",
        "4 2\n0 0\n1 0\n1 1\ninf 1\n0 1 2\n0 2 3\n",
        # the key -1·4 + 5 of (-1, 5) equals that of the edge (0, 1)
        "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\nedge -1 5 clamped\n",
        "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\nedge 0 9 clamped\n",
        # header promises 2 triangles, the file has 1
        "3 2\n0 0\n1 0\n0 1\n0 1 2\n",
        # a trailing line that is no marker
        "3 1\n0 0\n1 0\n0 1\n0 1 2\nside 0 1 clamped\n",
        # no triangle: the model would have no dofs
        "0 0\n",
        "3 0\n0 0\n1 0\n0 1\n",
        # vertex 3 lies in no triangle: its dofs would have no stiffness
        "4 1\n0 0\n1 0\n0 1\n1 1\n0 1 2\n",
        FOLDED_MESH,
    ], ids=["negative_index", "short_vertex_block", "clockwise", "nan_coordinate",
            "inf_coordinate", "aliased_marker_index", "marker_index_too_large",
            "short_triangle_block", "trailing_line_not_a_marker", "empty_header",
            "no_triangles", "unused_vertex", "folded"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        with pytest.raises(MeshError):
            read_mesh(path)
