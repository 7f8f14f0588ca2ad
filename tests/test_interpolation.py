import numpy as np
import pytest

from reggeshell.elements import edge_tangent
from reggeshell.geometry import ElementMap, flat_chart, make_benchmark_mesh
from reggeshell.interpolation import (
    assemble_dual_mass,
    get_operator,
    reference_dual_mass,
)
from reggeshell.mesh import Mesh, rectangle_mesh


def random_affine_element(rng):
    """One-triangle flat mesh with random, positively oriented vertices."""
    while True:
        verts = rng.uniform(-2, 2, size=(3, 2))
        d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
        area2 = d1[0] * d2[1] - d1[1] * d2[0]
        if area2 > 0.3:
            break
    m = Mesh(verts, [(0, 1, 2)])
    return ElementMap(m, flat_chart(), 0, 1)


class TestDualMassStructure:
    def test_lowest_order_reference_matrix(self):
        dm = reference_dual_mass(0)
        assert dm.n_edge == len(dm.full) == 3
        assert np.allclose(
            dm.full,
            np.diag([-0.5, -np.sqrt(2) / 2, -np.sqrt(2) / 2]),
            atol=1e-14,
        )

    @pytest.mark.parametrize("k", range(5))
    def test_edge_cell_coupling_vanishes(self, k):
        dm = reference_dual_mass(k)
        # the computed upper-right block: edge functionals of cell shapes
        block = dm.full[:dm.n_edge, dm.n_edge:]
        if block.size:
            assert np.max(np.abs(block)) <= 1e-14

    @pytest.mark.parametrize("k", range(5))
    def test_blocks_invertible(self, k):
        dm = reference_dual_mass(k)
        n_e = dm.n_edge
        assert np.linalg.cond(dm.full[:n_e, :n_e]) < 1e8
        if len(dm.full) > n_e:
            assert np.linalg.cond(dm.full[n_e:, n_e:]) < 1e10

    @pytest.mark.parametrize("k", range(5))
    def test_block_substitution_solves_the_whole_pairing(self, k):
        # solve substitutes through the lower blocks only, so the whole
        # matrix reproduces the right-hand side only when the computed
        # upper block vanishes
        dm = reference_dual_mass(k)
        F = np.random.default_rng(300 + k).standard_normal((len(dm.full), 4))
        assert np.max(np.abs(dm.full @ dm.solve(F) - F)) <= 1e-12 * np.max(np.abs(F))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_geometry_free_on_affine_elements(self, k):
        ref = reference_dual_mass(k).full
        scale = np.max(np.abs(ref))
        rng = np.random.default_rng(400 + k)
        for _ in range(5):
            emap = random_affine_element(rng)
            phys = assemble_dual_mass(emap, k).full
            assert np.max(np.abs(phys - ref)) < 1e-12 * scale

    @pytest.mark.parametrize("k", [0, 2])
    def test_geometry_free_on_curved_surface_elements(self, k):
        mesh, chart = make_benchmark_mesh("cylinder")
        ref = reference_dual_mass(k).full
        scale = np.max(np.abs(ref))
        for tri in (0, 3):
            emap = ElementMap(mesh, chart, tri, geometry_order=2)
            phys = assemble_dual_mass(emap, k).full
            assert np.max(np.abs(phys - ref)) < 1e-12 * scale

    def test_edge_coupling_on_physical_elements(self):
        # the computed block is round-off of the explicit pull-backs
        dm = assemble_dual_mass(random_affine_element(np.random.default_rng(11)), 2)
        scale = np.max(np.abs(reference_dual_mass(2).full))
        assert np.max(np.abs(dm.full[:dm.n_edge, dm.n_edge:])) < 1e-12 * scale


class TestInterpolation:
    @pytest.mark.parametrize("k", range(3))
    def test_default_moment_degree_shares_the_operator(self, k):
        assert get_operator(k) is get_operator(k, 2 * k + 2)

    @pytest.mark.parametrize("k", range(5))
    def test_constant_identity_reproduced(self, k):
        op = get_operator(k)
        alpha = op.interpolate(np.tile([1.0, 1.0, 0.0], (len(op.points), 1)))
        pts = np.array([[0.0, 0.3], [-0.4, 0.2], [0.5, 0.1]])
        vals = op.evaluate(alpha, pts)
        assert np.allclose(vals, [1.0, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("k", range(5))
    def test_projection_property(self, k):
        op = get_operator(k)
        coeffs = np.random.default_rng(500 + k).standard_normal(op.basis.num_shapes)
        alpha = op.interpolate(op.evaluate(coeffs, op.points))
        assert np.allclose(alpha, coeffs, atol=1e-12 * max(1, np.max(np.abs(coeffs))))

    @pytest.mark.parametrize("k", [1, 3])
    def test_idempotence_on_smooth_field(self, k):
        op = get_operator(k)
        field = lambda pts: np.column_stack([
            np.sin(pts[:, 0] + 0.5 * pts[:, 1]),
            np.cos(pts[:, 1]),
            pts[:, 0] * pts[:, 1],
        ])
        a1 = op.interpolate(field(op.points))
        a2 = op.interpolate(op.evaluate(a1, op.points))
        assert np.allclose(a1, a2, atol=1e-12 * max(1, np.max(np.abs(a1))))

    def test_edge_functionals_fundamental_theorem(self):
        # for sigma = sym grad u the edge moments against constants equal the
        # tangential increment of u between the edge endpoints
        op = get_operator(0)
        A = np.array([[0.3, -0.2], [0.1, 0.4]])

        def grad_sym(pts):
            s = 0.5 * (A + A.T)
            return np.tile([s[0, 0], s[1, 1], s[0, 1]], (len(pts), 1))

        f = op.functionals(grad_sym(op.points))
        from reggeshell.elements import REF_VERTICES
        from reggeshell.mesh import LOCAL_EDGES

        u = lambda x: A @ x
        for e, (i, j) in enumerate(LOCAL_EDGES):
            t, _ = edge_tangent(e)
            expect = u(REF_VERTICES[j]) @ t - u(REF_VERTICES[i]) @ t
            assert f[e] == pytest.approx(expect, abs=1e-13)

    def test_linearized_rigid_body_kernel(self):
        # u = A x + b with A skew has vanishing symmetric gradient
        op = get_operator(1)
        skew = np.array([[0.0, 0.7], [-0.7, 0.0]])
        sym = 0.5 * (skew + skew.T)
        field = lambda pts: np.tile([sym[0, 0], sym[1, 1], sym[0, 1]], (len(pts), 1))
        alpha = op.interpolate(field(op.points))
        assert np.max(np.abs(alpha)) < 1e-14


class TestCommutingDiagram:
    def test_lowest_order_commutes_on_flat_mesh(self):
        mesh = rectangle_mesh(4, 4, (0, 1), (0, 1))
        op = get_operator(0)
        rng = np.random.default_rng(3)
        # smooth vector field and its vertex interpolant on each element
        c = rng.standard_normal((2, 6))
        u = lambda x: np.array([
            c[d, 0] + c[d, 1] * x[0] + c[d, 2] * x[1] + c[d, 3] * np.sin(x[0])
            + c[d, 4] * x[0] * x[1] + c[d, 5] * np.cos(x[1]) for d in (0, 1)
        ])
        du = lambda x: np.array([
            [c[d, 1] + c[d, 3] * np.cos(x[0]) + c[d, 4] * x[1] if i == 0
             else c[d, 2] + c[d, 4] * x[0] - c[d, 5] * np.sin(x[1]) for i in (0, 1)]
            for d in (0, 1)
        ])
        from reggeshell.elements import barycentric

        for tri in range(mesh.num_triangles):
            verts = mesh.vertices[mesh.triangles[tri]]
            # affine reference -> physical map of the flat element
            emap = ElementMap(mesh, flat_chart(), tri, 1)
            F = emap.evaluate([(0.0, 0.3)]).F[0]

            def sg_exact_ref(pts):
                out = []
                for xi in pts:
                    x = barycentric([xi])[0] @ verts
                    # pull back sym grad covariantly: F^T sym(du) F
                    S = F.T @ (0.5 * (du(x) + du(x).T)) @ F
                    out.append([S[0, 0], S[1, 1], S[0, 1]])
                return np.array(out)

            # vertex interpolant: linear field with same vertex values
            uv = np.array([u(v) for v in verts])
            lamg = np.array([[-0.5, -0.5], [0.5, -0.5], [0.0, 1.0]])
            Gv = uv.T @ lamg  # constant gradient w.r.t. reference coords of u_I o Phi

            def sg_interp_ref(pts):
                # covariant pull-back F^T sym(du_I) F written via Gv = du_I F
                S = 0.5 * (F.T @ Gv + Gv.T @ F)
                return np.tile([S[0, 0], S[1, 1], S[0, 1]], (len(pts), 1))

            f_exact = op.functionals(sg_exact_ref(op.points))
            f_interp = op.functionals(sg_interp_ref(op.points))
            assert np.allclose(f_exact, f_interp, atol=1e-12)

