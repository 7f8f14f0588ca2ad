import math

import numpy as np
import pytest

from reggeshell.elements import GeometryError, barycentric, lagrange_basis, pseudo_inverse
from reggeshell.geometry import (
    BENCHMARK_NAMES,
    ChartGeometry,
    ConfigurationError,
    ElementMap,
    flat3_chart,
    flat_chart,
    make_benchmark_mesh,
)
from reggeshell.mesh import LOCAL_EDGES, build_mesh, count_entities, refine_uniform
from reggeshell.quadrature import triangle_rule

INTERIOR_POINTS = [(-0.2, 0.3), (0.1, 0.1), (0.4, 0.25)]


class TestFlatMaps:
    def test_identity_chart_affine(self):
        m = build_mesh([(-1, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        ev = ElementMap(m, flat_chart(), 0, 1).evaluate([(0.0, 0.3)])
        assert np.allclose(ev.F, np.eye(2), atol=1e-14)
        assert ev.J == pytest.approx(1.0, abs=1e-14)

    def test_scaled_triangle_jacobian(self):
        m = build_mesh([(-2, 0), (2, 0), (0, 2)], [(0, 1, 2)])
        ev = ElementMap(m, flat_chart(), 0, 1).evaluate([(0.0, 0.2)])
        assert ev.J == pytest.approx(4.0, abs=1e-13)
        assert np.allclose(pseudo_inverse(ev.F), np.linalg.inv(ev.F), atol=1e-13)

    def test_degenerate_triangle_raises(self):
        # the mesh rejects a collinear parameter triangle, so a positive one
        # is collapsed onto the line x = y by the chart
        m = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        line = ChartGeometry(name="line", ambient_dim=2,
                             phi=lambda p: np.repeat(np.asarray(p)[..., :1], 2, axis=-1))
        with pytest.raises(GeometryError):
            ElementMap(m, line, 0, 1).evaluate([(0.0, 0.2)])


class TestSurfaceMaps:
    def test_cylinder_pseudo_inverse(self):
        mesh, chart = make_benchmark_mesh("cylinder")
        emap = ElementMap(mesh, chart, 0, geometry_order=2)
        F = emap.evaluate(INTERIOR_POINTS).F
        assert np.max(np.linalg.norm(pseudo_inverse(F) @ F - np.eye(2), axis=(1, 2))) < 1e-12

    def test_surface_determinant_definition(self):
        mesh, chart = make_benchmark_mesh("hyperboloid")
        ev = ElementMap(mesh, chart, 1, geometry_order=3).evaluate([(0.1, 0.2)])
        F = ev.F[0]
        assert ev.J[0] == pytest.approx(math.sqrt(np.linalg.det(F.T @ F)), rel=1e-14)

    @pytest.mark.parametrize("name", ["cylinder", "hemisphere", "hyperbolic_paraboloid"])
    def test_normal_and_projector(self, name):
        mesh, chart = make_benchmark_mesh(name)
        for tri in range(min(4, mesh.num_triangles)):
            ev = ElementMap(mesh, chart, tri, geometry_order=2).evaluate([(0.0, 0.3)])
            assert abs(np.linalg.norm(ev.nu[0]) - 1.0) < 1e-14
            # normal orthogonal to the tangent plane
            assert np.linalg.norm(ev.nu[0] @ ev.F[0]) < 1e-12


def per_point_reference(emap, xi):
    """F, J and normal of one point, one at a time."""
    grads = lagrange_basis(emap.geometry_order).grad(np.atleast_2d(xi))[0]
    F = emap.control_points.T @ grads
    J = math.sqrt(np.linalg.det(F.T @ F))
    nu = np.cross(F[:, 0], F[:, 1])
    return F, J, nu / np.linalg.norm(nu)


class TestBatchedKernel:
    @pytest.mark.parametrize("order", [2, 4])
    def test_batched_evaluate_matches_per_point_loop(self, order):
        mesh, chart = make_benchmark_mesh("hyperboloid", 1)
        points = triangle_rule(10).points
        for tri in (0, 7, 21):
            emap = ElementMap(mesh, chart, tri, geometry_order=order)
            ev = emap.evaluate(points)
            batched = (ev.F, ev.J, ev.nu)
            refs = [per_point_reference(emap, xi) for xi in points]
            for got, ref in zip(batched, zip(*refs)):
                ref = np.array(ref)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [1, 3])
    def test_whole_mesh_map_matches_per_triangle_maps(self, order):
        mesh, chart = make_benchmark_mesh("hyperboloid", 1)
        points = triangle_rule(6).points
        whole = ElementMap(mesh, chart, np.arange(mesh.num_triangles), order)
        ev = whole.evaluate(points)
        maps = [ElementMap(mesh, chart, t, order) for t in range(mesh.num_triangles)]
        evals = [emap.evaluate(points) for emap in maps]
        assert np.array_equal(whole.control_points,
                              np.stack([emap.control_points for emap in maps]))
        for name in ("F", "J", "nu"):
            assert np.array_equal(getattr(ev, name),
                                  np.stack([getattr(e, name) for e in evals]))

    def test_whole_mesh_map_at_one_point(self):
        mesh, chart = make_benchmark_mesh("hyperboloid")
        nT = mesh.num_triangles
        ev = ElementMap(mesh, chart, np.arange(nT), 2).evaluate([(0.1, 0.2)])
        assert ev.F.shape == (nT, 1, 3, 2) and pseudo_inverse(ev.F).shape == (nT, 1, 2, 3)
        assert ev.J.shape == (nT, 1)
        assert ev.nu.shape == (nT, 1, 3)


class TestBenchmarkMeshes:
    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_benchmark_mesh("sphere")

    def test_cylinder_level0(self):
        mesh, chart = make_benchmark_mesh("cylinder", 0)
        assert mesh.num_triangles == 8
        # one eighth of the cylinder: quarter circumference, half length
        corner = chart.phi(np.array([math.pi / 2.0, 1.0]))
        assert np.allclose(corner, [0.0, 1.0, 1.0], atol=1e-14)

    def test_hemisphere_markers(self):
        mesh, chart = make_benchmark_mesh("hemisphere")
        assert np.linalg.norm(chart.phi(np.array([0.3, 0.7]))) == pytest.approx(10.0, rel=1e-15)
        assert len(mesh.edges_with_marker("clamped")) == 4
        # clamped edges sit on the 18 degree opening and the equator
        for e in mesh.edges_with_marker("clamped"):
            tp = mesh.vertices[mesh.edges[e]][:, 1]
            assert np.all(np.isclose(tp, math.pi / 10) | np.isclose(tp, math.pi / 2))

    def test_hyperbolic_paraboloid_domain(self):
        mesh, chart = make_benchmark_mesh("hyperbolic_paraboloid")
        assert mesh.vertices[:, 0].max() == pytest.approx(3.0)
        assert mesh.vertices[:, 1].max() == pytest.approx(1.0)
        assert len(mesh.edges_with_marker("clamped")) > 0
        assert len(mesh.edges_with_marker("sym:x")) > 0
        z = chart.phi(np.array([1.0, 1.0]))[2]
        assert z == pytest.approx(0.2 * (1 - 1), abs=1e-14)

    @pytest.mark.parametrize("name", ["cylinder", "hyperboloid", "unibend_cylinder",
                                      "hyperbolic_paraboloid", "hemisphere"])
    def test_euler_relation_all_benchmarks(self, name):
        mesh, _ = make_benchmark_mesh(name, 1)
        nt, ne, nv, nvb, nvi = count_entities(mesh)
        assert 3 + ne == 2 * nv + nvi


def closed_forms():
    """Each benchmark chart as the closed form of its surface, (u, v) -> X."""
    def cylinder(th, z, R=1.0):
        return R * np.cos(th), R * np.sin(th), z

    def hyperboloid(th, z, R=1.0):
        r = np.sqrt(R * R + z * z)
        return r * np.cos(th), r * np.sin(th), z

    def unibend_cylinder(th, y, R=0.1):
        return R * np.sin(th), y, R * np.cos(th)

    def hyperbolic_paraboloid(x, y, alpha=0.2):
        return x, y, alpha * (y * y - x * x)

    def hemisphere(pa, tp, R=10.0):
        # azimuth, then the polar angle measured from the pole
        return R * (np.sin(tp) * np.cos(pa)), R * (np.sin(tp) * np.sin(pa)), R * np.cos(tp)

    return dict(cylinder=cylinder, hyperboloid=hyperboloid,
                unibend_cylinder=unibend_cylinder, hemisphere=hemisphere,
                hyperbolic_paraboloid=hyperbolic_paraboloid)


class TestBenchmarkCharts:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_chart_is_its_closed_form_bit_for_bit(self, name):
        mesh, chart = make_benchmark_mesh(name)
        (x0, y0), (x1, y1) = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        # a grid over the parameter rectangle and a margin around it
        u, v = np.meshgrid(np.linspace(x0 - 0.1, x1 + 0.1, 9),
                           np.linspace(y0 - 0.01, y1 + 0.01, 7))
        X = chart.phi(np.stack([u, v], axis=-1))
        assert chart.ambient_dim == 3 and X.shape == (7, 9, 3)
        expected = np.stack(np.broadcast_arrays(*closed_forms()[name](u, v)), axis=-1)
        assert np.array_equal(X, expected)

    def test_every_benchmark_has_a_closed_form(self):
        assert set(closed_forms()) == set(BENCHMARK_NAMES)


def all_charts():
    return [make_benchmark_mesh(name)[1] for name in BENCHMARK_NAMES] + [
        flat_chart(), flat3_chart()]


class TestChartBatches:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("order", [1, 3])
    def test_control_points_equal_per_point_evaluation(self, name, order):
        mesh, chart = make_benchmark_mesh(name, 1)
        emap = ElementMap(mesh, chart, np.arange(mesh.num_triangles), order)
        nodes = barycentric(lagrange_basis(order).nodes) @ mesh.vertices[mesh.triangles]
        per_point = np.array([[chart.phi(p) for p in tri] for tri in nodes])
        assert np.array_equal(emap.control_points, per_point)

    @pytest.mark.parametrize("chart", all_charts(), ids=lambda c: c.name)
    def test_batches_equal_per_point_evaluation(self, chart):
        points = np.random.default_rng(4).uniform(0.1, 1.4, (4, 5, 2))
        d = chart.ambient_dim
        X = chart.phi(points)
        assert X.shape == (4, 5, d)
        for i, j in np.ndindex(4, 5):
            assert chart.phi(points[i, j]).shape == (d,)
            assert np.array_equal(X[i, j], chart.phi(points[i, j]))


class TestTangentConvention:
    def test_shared_edge_tangent_dyad_agrees(self):
        # t (x) t must not depend on which adjacent triangle evaluates it
        m = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
        shared = [e for e in range(m.num_edges)
                  if sorted(m.edges[e]) == [0, 2]][0]
        dyads = []
        for t in range(2):
            local = list(m.tri_edges[t]).index(shared)
            sign = m.tri_edge_signs[t, local]
            a, b = m.triangles[t][list(LOCAL_EDGES[local])]
            tv = (m.vertices[b] - m.vertices[a]) * sign
            tv = tv / np.linalg.norm(tv)
            dyads.append(np.outer(tv, tv))
        assert np.allclose(dyads[0], dyads[1], atol=1e-15)
