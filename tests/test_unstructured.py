"""Paper invariants and the sparsity pattern oracle on unstructured meshes.

The structured benchmark grids have symmetries that can hide an orientation
or numbering bug.  Here the interior parameter vertices of a level-1
benchmark mesh move by up to 0.3·h_min, which keeps every triangle
positive; the vertices and triangles are renumbered and each triangle's
local vertices rotated, and the mesh goes through the ``read_mesh`` file
format.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reggeshell import shell
from reggeshell.bench import BenchmarkConfig, run_benchmark
from reggeshell.geometry import make_benchmark_mesh
from reggeshell.mesh import build_mesh, read_mesh
from reggeshell.shell import MaterialParams, ShellConfig, ShellModel

from test_acceptance import (gap_rank, membrane_edge_mismatch, membrane_map,
                             relative_singular_values)
from test_assembly import assert_is_free_part, assert_matches_sort_based, full_tangent
from test_shell import assert_symmetry_rotations_match_chart, node_positions

MAT = MaterialParams(2.85e4, 0.3)
MESH_ARRAYS = ("vertices", "triangles", "edges", "tri_edges", "tri_edge_signs")
EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=5)
FEW_EXAMPLES = settings(EXAMPLES, max_examples=3)


@st.composite
def perturbed_meshes(draw, names=("hyperboloid", "hemisphere", "cylinder")):
    """A perturbed, renumbered level-1 mesh of one of the named benchmarks,
    and its chart: the vertices and the triangles are numbered in drawn
    orders, and each triangle's local vertices are rotated cyclically by a
    drawn shift, which keeps its orientation."""
    mesh, chart = make_benchmark_mesh(draw(st.sampled_from(names)), 1)
    v = mesh.vertices
    h_min = np.linalg.norm(v[mesh.edges[:, 1]] - v[mesh.edges[:, 0]], axis=1).min()
    boundary = mesh.edges[np.bincount(mesh.tri_edges.ravel()) == 1]
    interior = np.setdiff1d(np.arange(mesh.num_vertices), boundary)
    unit = draw(arrays(np.float64, (len(interior), 2), elements=st.floats(-1.0, 1.0)))
    vertices = v.copy()
    # each coordinate moves by at most 0.3·h_min/√2, so each vertex by 0.3·h_min
    vertices[interior] += 0.3 * h_min / np.sqrt(2.0) * unit
    # new vertex i is old vertex vertex_order[i]
    vertex_order = np.array(draw(st.permutations(range(mesh.num_vertices))))
    triangle_order = np.array(draw(st.permutations(range(mesh.num_triangles))))
    shifts = draw(arrays(np.int64, mesh.num_triangles, elements=st.integers(0, 2)))
    new_index = np.argsort(vertex_order)
    triangles = new_index[mesh.triangles[triangle_order]]
    triangles = np.take_along_axis(triangles, (np.arange(3) + shifts[:, None]) % 3, axis=1)
    markers = {name: new_index[mesh.edges[mesh.edges_with_marker(name)]]
               for name in mesh.boundary_markers}
    return build_mesh(vertices[vertex_order], triangles, markers), chart


def write_mesh(mesh, directory):
    """Write a mesh and its markers in the ``read_mesh`` format; the file path."""
    lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
    lines += [f"{x!r} {y!r}" for x, y in mesh.vertices.tolist()]
    lines += ["{} {} {}".format(*t) for t in mesh.triangles.tolist()]
    for name in mesh.boundary_markers:
        lines += [f"edge {a} {b} {name}"
                  for a, b in mesh.edges[mesh.edges_with_marker(name)].tolist()]
    path = directory / "mesh.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def through_file(mesh, directory):
    """Write a mesh in the ``read_mesh`` format and read it back."""
    return read_mesh(write_mesh(mesh, directory))


@EXAMPLES
@given(case=perturbed_meshes())
def test_read_mesh_round_trip_is_bit_identical(tmp_path_factory, case):
    mesh, chart = case
    read = through_file(mesh, tmp_path_factory.mktemp("mesh"))
    for name in MESH_ARRAYS:
        assert getattr(read, name).dtype == getattr(mesh, name).dtype, name
        assert np.array_equal(getattr(read, name), getattr(mesh, name)), name
    assert read.boundary_markers == mesh.boundary_markers
    cfg = ShellConfig(thickness=0.01, order=2, membrane_reduction="regge")
    a, b = ShellModel(mesh, chart, MAT, cfg), ShellModel(read, chart, MAT, cfg)
    for name in ("element_dofs", "free", "_Mm", "_Wm"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("k", [1, 2])
@EXAMPLES
@given(case=perturbed_meshes())
def test_regge_rank_is_regge_space_dimension(tmp_path_factory, case, k):
    mesh, chart = case
    mesh = through_file(mesh, tmp_path_factory.mktemp("mesh"))
    cfg = ShellConfig(thickness=0.1, order=k, shear_reduction="none",
                      membrane_reduction="regge")
    model = ShellModel(mesh, chart, MAT, cfg)
    n = 3 * model.num_scalar_dofs
    dofs = model.element_dofs[:, : 3 * model.basis.num_shapes]
    K = np.zeros((n, n))
    np.add.at(K, (dofs[:, :, None], dofs[:, None, :]), shell._gram(model._Mm, model._Wm))
    s = np.linalg.svd(K, compute_uv=False)
    rank = k * mesh.num_edges + 3 * k * (k - 1) // 2 * mesh.num_triangles
    # the kept and dropped singular values are separated by a clean gap
    # (at least 3.4e-7 and at most 2.8e-16 relative on such meshes)
    assert s[rank - 1] > 1e-8 * s[0]
    assert s[rank] < 1e-13 * s[0]


@pytest.mark.parametrize("k", [1, 2, 3])
@EXAMPLES
@given(case=perturbed_meshes())
def test_weighted_map_rank_has_a_clean_gap(case, k):
    # the Regge count over all displacement dofs, with the gap of the
    # benchmark grids in tests/test_acceptance.py: the smallest kept value
    # read at least 7.6e-4 of the largest, the next at most 1.2e-15
    D, _, (nE, nT) = membrane_map(*case, k)
    rank, gap = gap_rank(relative_singular_values(D))
    assert rank == k * nE + 3 * k * (k - 1) // 2 * nT
    assert gap >= 1e8


@pytest.mark.parametrize("k", [1, 2, 3])
@EXAMPLES
@given(case=perturbed_meshes())
def test_regge_edge_moments_are_single_valued(case, k):
    # the rotated local vertices pair local edges of every length and
    # orientation; the worst mismatch read 3.1e-14
    assert membrane_edge_mismatch(*case, k) <= 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@EXAMPLES
@given(case=perturbed_meshes())
def test_pattern_matches_sort_based(tmp_path_factory, case, order):
    mesh, chart = case
    mesh = through_file(mesh, tmp_path_factory.mktemp("mesh"))
    model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=order))
    assert_matches_sort_based(model._pattern, model.num_dofs, model.element_dofs,
                              model.free)


@FEW_EXAMPLES
@given(case=perturbed_meshes())
def test_symmetry_rotation_matches_chart_oracle(tmp_path_factory, case):
    mesh, chart = case
    mesh = through_file(mesh, tmp_path_factory.mktemp("mesh"))
    model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.01, order=2))
    assert_symmetry_rotations_match_chart(model)


@FEW_EXAMPLES
@given(case=perturbed_meshes(names=("hyperboloid",)))
def test_repeat_runs_are_byte_identical(tmp_path_factory, case):
    mesh, _ = case
    path = write_mesh(mesh, tmp_path_factory.mktemp("mesh"))
    config = BenchmarkConfig("hyperboloid", mesh_file=str(path), levels=1,
                             thicknesses=(0.01, 0.001), reference_order=2)
    first = run_benchmark(config).to_csv()
    assert "nan" not in first
    assert run_benchmark(config).to_csv() == first


def rigid_state(model, rotation, shift, linearized):
    """Coefficient vector of the rigid motion x -> R x + c (u = R X + c - X),
    or of its linearization u = W X + c for a skew W."""
    X = node_positions(model)
    u = rotation @ X.T + shift[:, None] - (0.0 if linearized else X.T)
    x = np.zeros(model.num_dofs)
    x[:u.size] = u.ravel()
    return x


def regge_model(mesh, chart, kind):
    return ShellModel(mesh, chart, MAT, ShellConfig(
        thickness=0.1, order=2, membrane_reduction="regge", model=kind))


@EXAMPLES
@given(case=perturbed_meshes())
def test_linearized_rigid_motions_in_reduced_membrane_kernel(tmp_path_factory, case):
    mesh, chart = case
    model = regge_model(through_file(mesh, tmp_path_factory.mktemp("mesh")), chart,
                        "linearized_membrane")
    rng = np.random.default_rng(11)
    for _ in range(3):
        w = rng.standard_normal(3)
        W = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        x = rigid_state(model, W, rng.standard_normal(3), linearized=True)
        # the energy of the round-off grows with the square of the motion:
        # at unit rotation rate the hemisphere (radius 10) moves its nodes
        # by up to 14, so each motion is scaled to unit size; the bound is
        # that of tests/test_acceptance.py
        x /= np.max(np.abs(x))
        assert model.energies(x)["membrane"] <= 1e-24


@EXAMPLES
@given(case=perturbed_meshes())
def test_finite_rotations_in_reduced_green_membrane_kernel(tmp_path_factory, case):
    mesh, chart = case
    model = regge_model(through_file(mesh, tmp_path_factory.mktemp("mesh")), chart,
                        "full_green")
    axis = np.array([0.3, -0.5, 0.81]) / np.linalg.norm([0.3, -0.5, 0.81])
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    for angle in (np.pi / 6, np.pi / 2):
        R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
        x = rigid_state(model, R, np.array([0.4, -0.2, 0.7]), linearized=False)
        assert model.energies(x)["membrane"] <= 1e-24


@EXAMPLES
@given(case=perturbed_meshes())
def test_green_hessian_matches_gradient_differences(case):
    mesh, chart = case
    model = regge_model(mesh, chart, "full_green")
    rng = np.random.default_rng(8)
    x = 0.05 * rng.standard_normal(model.num_dofs)
    d = rng.standard_normal(model.num_dofs)
    d /= np.linalg.norm(d)
    h = 1e-6
    fd = (model.gradient(x + h * d) - model.gradient(x - h * d)) / (2 * h)
    full = full_tangent(model, x)
    assert_is_free_part(model.hessian(x).matrix, full, model.free)
    Hd = full @ d
    # on every dof, with the bound of tests/test_shell.py::TestGreenTangent
    assert np.max(np.abs(Hd - fd)) <= 1e-6 * np.max(np.abs(fd))
