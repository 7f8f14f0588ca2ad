import numpy as np
import pytest
import sympy

from reggeshell.assembly import SparsityPattern
from reggeshell.elements import (
    BARY_GRADS,
    GeometryError,
    LagrangeBasis,
    ReggeBasis,
    _monomial_exponents,
    _monomials,
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
from reggeshell.quadrature import segment_rule, triangle_rule


def tt_trace_on_edge(shape_voigt, edge):
    t, _ = edge_tangent(edge)
    s = shape_voigt
    return t[0] ** 2 * s[..., 0] + t[1] ** 2 * s[..., 1] + 2 * t[0] * t[1] * s[..., 2]


@pytest.mark.parametrize("k", range(-1, 5))
@pytest.mark.parametrize("dx, dy", [(0, 0), (1, 0), (0, 1)])
def test_monomials_match_symbolic_derivatives(k, dx, dy):
    # k = -1 has no monomials: the Regge element of order 0 has no interior moments
    xs, ys = sympy.symbols("x y")
    pts = np.random.default_rng(k + 1).uniform(-1.0, 1.0, (7, 2))
    got = _monomials(pts, k, dx, dy)
    assert got.shape == (7, (k + 1) * (k + 2) // 2)
    for col, (a, b) in enumerate(_monomial_exponents(k)):
        d = sympy.lambdify((xs, ys), sympy.diff(xs ** a * ys ** b, xs, dx, ys, dy))
        want = np.broadcast_to(d(pts[:, 0], pts[:, 1]), (7,))
        assert np.allclose(got[:, col], want, rtol=1e-14, atol=0.0)


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

    def test_sym_dyad_broadcasts_pair_by_pair(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((4, 1, 2)), rng.standard_normal((1, 5, 2))
        d = sym_dyad(a, b)
        assert d.shape == (4, 5, 3)
        for i in range(4):
            for j in range(5):
                assert np.array_equal(d[i, j], sym_dyad(a[i, 0], b[0, j]))

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

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_pseudo_inverse_at_any_length_scale(self, scale):
        F = np.array([[1.0, 0.2], [0.1, 1.0], [0.3, 0.0]])
        assert np.allclose(scale * pseudo_inverse(scale * F), pseudo_inverse(F),
                           rtol=1e-14, atol=0)
        with pytest.raises(GeometryError):
            pseudo_inverse(scale * np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))

    def test_result_symmetric_on_surface(self):
        mesh, chart = make_benchmark_mesh("cylinder")
        ev = ElementMap(mesh, chart, 0, 2).evaluate([(0.1, 0.2)])
        out = covariant_pullback(ev.F, np.array([0.3, -0.2, 0.7]))
        assert out.shape == (1, 3, 3)
        assert np.allclose(out, np.swapaxes(out, 1, 2), atol=1e-14)

    def test_dual_volume_pullback_identity(self):
        q = np.array([0.2, 0.4, -0.1])
        out = dual_volume_pullback(np.eye(2), 1.0, q)
        assert np.allclose(out, voigt_to_matrix(q), atol=1e-15)

    def test_pullbacks_broadcast_over_leading_axes(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((4, 1, 3, 2))
        J = 1.0 + rng.random((4, 1))
        tensors = rng.standard_normal((6, 3))
        cov = covariant_pullback(F, tensors)
        dual = dual_volume_pullback(F, J, tensors)
        assert cov.shape == dual.shape == (4, 6, 3, 3)
        cov_loop = [[covariant_pullback(F[i, 0], s) for s in tensors] for i in range(4)]
        dual_loop = [[dual_volume_pullback(F[i, 0], J[i, 0], s) for s in tensors]
                     for i in range(4)]
        for got, ref in ((cov, np.array(cov_loop)), (dual, np.array(dual_loop))):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        J[2, 0] = 0.0
        with pytest.raises(GeometryError, match="nonpositive"):
            dual_volume_pullback(F, J, tensors)

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
            sign = mesh.tri_edge_signs[t, local]
            xi = edge_point(local, sign * np.linspace(-0.8, 0.8, 5))
            F = ElementMap(mesh, chart, t, 2).evaluate(xi).F
            that, _ = edge_tangent(local)
            tphys = F @ that
            tphys /= np.linalg.norm(tphys, axis=-1, keepdims=True)
            # reference tensor obtained by pulling the global field back
            sig_ref = np.swapaxes(F, 1, 2) @ voigt_to_matrix_3(sig_global(xi)) @ F
            sig_voigt = np.stack([sig_ref[:, 0, 0], sig_ref[:, 1, 1], sig_ref[:, 0, 1]], -1)
            sig_phys = covariant_pullback(F, sig_voigt)
            traces.append(np.einsum("qi,qij,qj->q", tphys, sig_phys, tphys))
        assert np.allclose(traces[0], traces[1], atol=1e-12)


def voigt_to_matrix_3(v):
    # embed a tangent-plane Voigt tensor into 3x3 ambient coordinates is not
    # meaningful here; instead interpret v as a constant ambient tensor with
    # zero out-of-plane part spanned in the x-y plane
    m = np.zeros((3, 3))
    m[0, 0], m[1, 1] = v[0], v[1]
    m[0, 1] = m[1, 0] = v[2]
    return m


def _order_0_map():
    mesh, chart = make_benchmark_mesh("cylinder")
    return ElementMap(mesh, chart, 0, geometry_order=0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: SparsityPattern(3, np.array([0, 1, 2])), ValueError, "element dofs"),
    (lambda: LagrangeBasis(0), ValueError, "Lagrange order"),
    (lambda: ReggeBasis(-1), ValueError, "Regge order"),
    (_order_0_map, ValueError, "geometry order"),
    (lambda: segment_rule(-1), ValueError, "exactness degree"),
    (lambda: triangle_rule(-1), ValueError, "exactness degree"),
    (lambda: dual_volume_pullback(np.eye(3, 2), 0.0, np.zeros(3)), GeometryError,
     "nonpositive surface determinant"),
], ids=["pattern_dofs", "lagrange_order", "regge_order", "geometry_order",
        "segment_degree", "triangle_degree", "dual_determinant"])
def test_invalid_input_raises(make, error, message):
    with pytest.raises(error, match=message):
        make()
