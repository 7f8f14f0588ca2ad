import numpy as np
import pytest

from reggeshell.elements import (
    BARY_GRADS,
    GeometryError,
    LagrangeBasis,
    barycentric,
    covariant_pullback,
    dual_volume_pullback,
    edge_point,
    edge_tangent,
    lagrange_basis,
    pseudo_inverse,
    regge_basis,
    sym_dyad,
    voigt_to_matrix,
)
from reggeshell.geometry import ElementMap, make_benchmark_mesh
from reggeshell.quadrature import triangle_rule


def tt_trace_on_edge(shape_voigt, edge):
    t, _ = edge_tangent(edge)
    s = shape_voigt
    return t[0] ** 2 * s[..., 0] + t[1] ** 2 * s[..., 1] + 2 * t[0] * t[1] * s[..., 2]


class TestLagrange:
    def test_kronecker_at_vertices(self):
        vals = lagrange_basis(1).eval(np.atleast_2d((1.0, 0.0)))[0]
        assert np.allclose(vals, [0, 1, 0], atol=1e-14)

    def test_partition_of_unity(self):
        for k in (1, 2, 3, 4):
            basis = LagrangeBasis(k)
            pts = triangle_rule(4).points
            assert np.allclose(basis.eval(pts).sum(axis=1), 1.0, atol=1e-12)

    def test_shape_counts(self):
        assert LagrangeBasis(2).num_shapes == 6
        assert LagrangeBasis(4).num_shapes == 15

    def test_nodal_kronecker_property(self):
        for k in (2, 3, 4):
            basis = LagrangeBasis(k)
            assert np.allclose(basis.eval(basis.nodes), np.eye(basis.num_shapes), atol=1e-10)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_nodes_follow_documented_lattice_order(self, k):
        # vertices; per local edge (i, j) the nodes with weight m/k of V_j,
        # m = 1..k-1; the interior nodes in (a, b) loop order
        lattice = [[k, 0, 0], [0, k, 0], [0, 0, k]]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for m in range(1, k):
                lam = [0, 0, 0]
                lam[i], lam[j] = k - m, m
                lattice.append(lam)
        lattice += [[a, b, k - a - b] for a in range(1, k) for b in range(1, k - a)]
        nodes = LagrangeBasis(k).nodes
        assert np.array_equal(np.rint(barycentric(nodes) * k), lattice)

    def test_gradient_consistency(self):
        basis = LagrangeBasis(3)
        p = np.array([[0.1, 0.2]])
        h = 1e-6
        gx = (basis.eval(p + [h, 0]) - basis.eval(p - [h, 0])) / (2 * h)
        gy = (basis.eval(p + [0, h]) - basis.eval(p - [0, h])) / (2 * h)
        g = basis.grad(p)[0]
        assert np.allclose(g[:, 0], gx[0], atol=1e-8)
        assert np.allclose(g[:, 1], gy[0], atol=1e-8)


class TestReggeShapes:
    def test_lowest_order_constant_shape(self):
        shapes = regge_basis(0).eval(np.atleast_2d((0.05, 0.2)))[0]
        assert len(shapes) == 3
        # E12 shape is the constant diag(-1/4, 1/4)
        assert np.allclose(voigt_to_matrix(shapes[0]), np.diag([-0.25, 0.25]), atol=1e-14)

    def test_dimension_formula(self):
        for k in range(5):
            assert regge_basis(k).num_shapes == 3 * (k + 1) * (k + 2) // 2

    def test_gram_matrix_full_rank(self):
        rule = triangle_rule(10)
        for k in range(5):
            basis = regge_basis(k)
            vals = basis.eval(rule.points)
            scale = np.array([1.0, 1.0, 2.0])
            gram = np.einsum("q,qnc,c,qmc->nm", rule.weights, vals, scale, vals)
            assert np.linalg.matrix_rank(gram, tol=1e-10) == basis.num_shapes

    @pytest.mark.parametrize("k", range(5))
    def test_edge_shape_locality(self, k):
        basis = regge_basis(k)
        s = np.linspace(-0.95, 0.95, 7)
        for own_edge in range(3):
            shapes_on_edge = range(own_edge * (k + 1), (own_edge + 1) * (k + 1))
            for other in range(3):
                if other == own_edge:
                    continue
                vals = basis.eval(edge_point(other, s))
                for sh in shapes_on_edge:
                    assert np.max(np.abs(tt_trace_on_edge(vals[:, sh], other))) < 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_interior_shapes_have_no_edge_trace(self, k):
        basis = regge_basis(k)
        s = np.linspace(-1, 1, 9)
        for e in range(3):
            vals = basis.eval(edge_point(e, s))
            for sh in range(basis.num_edge_shapes, basis.num_shapes):
                assert np.max(np.abs(tt_trace_on_edge(vals[:, sh], e))) < 1e-13

    def test_sym_dyad_convention(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, -1.0])
        d = voigt_to_matrix(sym_dyad(a, b))
        assert np.allclose(d, 0.5 * (np.outer(a, b) + np.outer(b, a)), atol=1e-15)

    def test_barycentric_gradients(self):
        pts = np.array([[0.3, 0.1], [-0.5, 0.4]])
        h = 1e-6
        for d in range(2):
            dp = np.zeros(2)
            dp[d] = h
            fd = (barycentric(pts + dp) - barycentric(pts - dp)) / (2 * h)
            assert np.allclose(fd, BARY_GRADS[:, d], atol=1e-9)


class TestPullbacks:
    def test_identity_map(self):
        sig = np.array([1.0, 2.0, 0.5])
        out = covariant_pullback(np.eye(2), sig)
        assert np.allclose(out, voigt_to_matrix(sig), atol=1e-15)

    def test_scaling_map(self):
        out = covariant_pullback(2 * np.eye(2), np.array([1.0, 1.0, 0.0]))
        assert np.allclose(out, np.eye(2) / 4, atol=1e-15)

    def test_rank_deficient_rejected(self):
        F = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with pytest.raises(GeometryError):
            covariant_pullback(F, np.array([1.0, 0.0, 0.0]))

    def test_batched_pseudo_inverse(self):
        rng = np.random.default_rng(3)
        F = rng.standard_normal((4, 5, 3, 2))
        Fd = pseudo_inverse(F)
        assert Fd.shape == (4, 5, 2, 3)
        assert np.allclose(Fd @ F, np.eye(2), atol=1e-12)
        F[2, 1] = [[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]
        with pytest.raises(GeometryError):
            pseudo_inverse(F)

    def test_result_symmetric_on_surface(self):
        mesh, chart = make_benchmark_mesh("cylinder")
        ev = ElementMap(mesh, chart, 0, 2).evaluate((0.1, 0.2))
        out = covariant_pullback(ev.F, np.array([0.3, -0.2, 0.7]))
        assert np.allclose(out, out.T, atol=1e-14)

    def test_dual_volume_pullback_identity(self):
        q = np.array([0.2, 0.4, -0.1])
        out = dual_volume_pullback(np.eye(2), 1.0, q)
        assert np.allclose(out, voigt_to_matrix(q), atol=1e-15)

    def test_tt_continuity_across_shared_curved_edge(self):
        # two elements sharing an edge on the cylinder: pulled-back tt-traces
        # of a shared reference assembly agree along the physical edge
        mesh, chart = make_benchmark_mesh("cylinder")
        shared = None
        for e in range(mesh.num_edges):
            adj = [t for t in range(mesh.num_triangles) if e in mesh.tri_edges[t]]
            if len(adj) == 2:
                shared = (e, adj)
                break
        e, (t1, t2) = shared
        sig_global = lambda p: np.array([0.4, -0.1, 0.25])  # constant in Voigt

        traces = []
        for t in (t1, t2):
            local = list(mesh.tri_edges[t]).index(e)
            emap = ElementMap(mesh, chart, t, 2)
            svals = []
            for s in np.linspace(-0.8, 0.8, 5):
                sign = mesh.tri_edge_signs[t, local]
                xi = edge_point(local, s * sign)[0]
                ev = emap.evaluate(xi)
                that, _ = edge_tangent(local)
                tphys = ev.F @ that / np.linalg.norm(ev.F @ that)
                # reference tensor obtained by pulling the global field back
                sig_ref = ev.F.T @ voigt_to_matrix_3(sig_global(xi)) @ ev.F
                sig_voigt = np.array([sig_ref[0, 0], sig_ref[1, 1], sig_ref[0, 1]])
                sig_phys = covariant_pullback(ev.F, sig_voigt)
                svals.append(tphys @ sig_phys @ tphys)
            traces.append(svals)
        assert np.allclose(traces[0], traces[1], atol=1e-12)


def voigt_to_matrix_3(v):
    # embed a tangent-plane Voigt tensor into 3x3 ambient coordinates is not
    # meaningful here; instead interpret v as a constant ambient tensor with
    # zero out-of-plane part spanned in the x-y plane
    m = np.zeros((3, 3))
    m[0, 0], m[1, 1] = v[0], v[1]
    m[0, 1] = m[1, 0] = v[2]
    return m

