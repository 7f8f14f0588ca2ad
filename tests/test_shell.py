import numpy as np
import pytest

from reggeshell.elements import (
    BARY_GRADS,
    barycentric,
    edge_point,
    edge_tangent,
    lagrange_basis,
)
from reggeshell.geometry import (
    BENCHMARK_NAMES,
    ElementMap,
    flat3_chart,
    make_benchmark_mesh,
    tangent_frame,
)
from reggeshell.interpolation import (
    DualMassMatrix,
    InterpolationOperator,
    ShearSpace,
    three_field_blocks,
)
from reggeshell.mesh import rectangle_mesh
from reggeshell.quadrature import segment_rule, triangle_rule
from reggeshell.shell import (
    REF_VERTICES,
    SHEAR_STABILIZATION,
    LoadSpec,
    MaterialParams,
    ShellConfig,
    ShellModel,
    _frame_maps,
    _point_weights,
    _reduction,
    _shear_B,
    _strain_B,
    _strain_map,
)

MAT = MaterialParams(youngs_modulus=1000.0, poisson_ratio=0.3)


def cylinder_model(**cfg):
    mesh, chart = make_benchmark_mesh("cylinder")
    defaults = dict(thickness=0.1, order=2, membrane_reduction="regge",
                    shear_reduction="edge_tangential")
    defaults.update(cfg)
    return ShellModel(mesh, chart, MAT, ShellConfig(**defaults))


def random_state(model, scale, seed=0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(model.num_dofs)


def fd_gradient(model, x, d, h=1e-6):
    return (model.total_energy(x + h * d) - model.total_energy(x - h * d)) / (2 * h)


class TestMaterial:
    def test_norm_matrix_spd(self):
        w = np.linalg.eigvalsh(MAT.norm_matrix)
        assert np.all(w > 0)

    def test_norm_of_identity_strain(self):
        E, nu = MAT.youngs_modulus, MAT.poisson_ratio
        v = np.array([1.0, 1.0, 0.0])
        val = v @ MAT.norm_matrix @ v
        assert val == pytest.approx(2 * E / (1 - nu), rel=1e-14)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MaterialParams(-1.0, 0.3)
        with pytest.raises(ValueError):
            MaterialParams(1.0, 0.5)
        for youngs_modulus in (np.inf, np.nan):
            with pytest.raises(ValueError):
                MaterialParams(youngs_modulus, 0.3)


class TestConfig:
    def test_defaults(self):
        c = ShellConfig(thickness=0.1, order=3)
        assert c.geometry_order == 3
        assert c.shear_reduction == "edge_tangential"

    def test_invalid_choices_rejected(self):
        for thickness in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                ShellConfig(thickness=thickness)
        with pytest.raises(ValueError):
            ShellConfig(thickness=0.1, membrane_reduction="bogus")
        with pytest.raises(ValueError):
            ShellConfig(thickness=0.1, model="bogus")


class TestKernelAndScaling:
    def test_rigid_translation_has_zero_energy(self):
        model = cylinder_model()
        x = np.zeros(model.num_dofs)
        ns = model.num_scalar_dofs
        for c, val in enumerate((0.3, -0.7, 1.1)):
            x[c * ns:(c + 1) * ns] = val
        assert model.membrane_energy(x) <= 1e-24
        assert model.bending_energy(x) <= 1e-24
        assert model.shear_energy(x) <= 1e-24

    def test_thickness_scaling_of_energy_terms(self):
        mesh, chart = make_benchmark_mesh("cylinder")
        x = None
        vals = {}
        for t in (0.1, 0.01):
            model = ShellModel(mesh, chart, MAT,
                               ShellConfig(thickness=t, order=2,
                                           shear_reduction="none"))
            if x is None:
                x = random_state(model, 0.1, seed=5)
            vals[t] = (model.membrane_energy(x), model.bending_energy(x),
                       model.shear_energy(x))
        assert vals[0.1][0] / vals[0.01][0] == pytest.approx(10.0, rel=1e-12)
        assert vals[0.1][1] / vals[0.01][1] == pytest.approx(1000.0, rel=1e-12)
        assert vals[0.1][2] / vals[0.01][2] == pytest.approx(10.0, rel=1e-12)

    def test_stabilized_shear_weight_with_reduction(self):
        # with the edge reduction the shear weight is t^3/(t^2 + c h^2);
        # on a uniform structured grid every element has the same h
        mesh, chart = make_benchmark_mesh("cylinder")
        x = None
        vals = {}
        for t in (0.1, 0.01):
            model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=t, order=2))
            if x is None:
                x = random_state(model, 0.1, seed=5)
                h2 = model.h2[0]
                assert all(h == pytest.approx(h2, rel=1e-12) for h in model.h2)
            vals[t] = model.shear_energy(x)

        def weight(t):
            return t ** 3 / (t ** 2 + SHEAR_STABILIZATION * h2)

        assert vals[0.1] / vals[0.01] == pytest.approx(
            weight(0.1) / weight(0.01), rel=1e-12)


class TestDerivatives:
    @pytest.mark.parametrize("reduction", ["none", "regge"])
    @pytest.mark.parametrize("model_kind", ["linearized_membrane", "full_green"])
    def test_gradient_matches_finite_differences(self, reduction, model_kind):
        model = cylinder_model(membrane_reduction=reduction, model=model_kind)
        x = random_state(model, 0.01, seed=1)
        g = model.gradient(x)
        rng = np.random.default_rng(2)
        for _ in range(3):
            d = rng.standard_normal(model.num_dofs)
            d /= np.linalg.norm(d)
            fd = fd_gradient(model, x, d)
            assert g @ d == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_linearized_gradient_is_hessian_action(self):
        model = cylinder_model(model="linearized_membrane")
        x = random_state(model, 0.1, seed=3)
        x[~model.free] = 0.0
        H = model.hessian(x)
        g = model.gradient(x)
        diff = (H.matrix @ x - g)[model.free]
        assert np.max(np.abs(diff)) < 1e-10 * max(1.0, np.max(np.abs(g)))

    def test_hessian_symmetric(self):
        model = cylinder_model(model="full_green", order=1)
        x = random_state(model, 0.01, seed=4)
        H = model.hessian(x).matrix.toarray()
        assert np.max(np.abs(H - H.T)) < 1e-8 * np.max(np.abs(H))

    def test_full_green_hessian_matches_gradient_differences(self):
        model = cylinder_model(model="full_green", order=1)
        x = random_state(model, 0.01, seed=6)
        H = model.hessian(x).matrix
        rng = np.random.default_rng(7)
        d = rng.standard_normal(model.num_dofs)
        d /= np.linalg.norm(d)
        h = 1e-5
        fd = (model.gradient(x + h * d) - model.gradient(x - h * d)) / (2 * h)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(H @ d - fd)) < 1e-4 * scale


def unibend_green_model():
    """The order-2 Regge unibend cylinder of the Green-strain roll-up."""
    mesh, chart = make_benchmark_mesh("unibend_cylinder")
    return ShellModel(mesh, chart, MaterialParams(2.0e5, 0.0), ShellConfig(
        thickness=0.01, order=2, membrane_reduction="regge", model="full_green"))


class TestGreenTangent:
    @pytest.mark.parametrize("reduction", ["none", "regge"])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_tangent_at_rest_is_linearized_tangent(self, name, reduction):
        mesh, chart = make_benchmark_mesh(name)
        cfg = dict(thickness=0.1, order=2, membrane_reduction=reduction)
        green = ShellModel(mesh, chart, MAT, ShellConfig(model="full_green", **cfg))
        linear = ShellModel(mesh, chart, MAT, ShellConfig(**cfg))
        x = np.zeros(green.num_dofs)
        H = green.hessian(x).matrix
        assert np.array_equal(H.toarray(), linear.hessian(x).matrix.toarray())

    @pytest.mark.parametrize("reduction", ["none", "regge"])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_hessian_matches_gradient_differences(self, name, reduction):
        mesh, chart = make_benchmark_mesh(name)
        model = ShellModel(mesh, chart, MAT, ShellConfig(
            thickness=0.1, order=2, membrane_reduction=reduction, model="full_green"))
        x = random_state(model, 0.05, seed=8)
        d = np.random.default_rng(9).standard_normal(model.num_dofs)
        d /= np.linalg.norm(d)
        h = 1e-6
        fd = (model.gradient(x + h * d) - model.gradient(x - h * d)) / (2 * h)
        Hd = model.hessian(x).matrix @ d
        assert np.max(np.abs(Hd - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_newton_roll_up_converges_quadratically(self):
        model = unibend_green_model()
        x = None
        for M, max_steps in ((1.0, 4), (2.0, 4), (5.0, 5), (10.0, 7)):
            loads = LoadSpec(edge_moments={"loaded": lambda X, M=M: np.array([M, 0.0])})
            state, steps = model.solve(loads, x0=x)
            x = state.vector
            norms = state.residual_history
            r = norms / norms[0]
            assert steps <= max_steps
            assert r[-1] <= 1e-10
            assert r[-1] <= 10.0 * r[-2] ** 2

    def test_derivatives_make_no_interpolation_call(self, monkeypatch):
        # the reductions are matrices built with the model, so a Newton step
        # interpolates nothing; finite-difference tangents would interpolate
        # once per perturbed gradient
        model = unibend_green_model()
        x = random_state(model, 0.01, seed=10)
        calls = []

        def counted(method):
            def wrapper(*args):
                calls.append(method)
                return method(*args)
            return wrapper

        for cls, name in ((InterpolationOperator, "functionals"), (DualMassMatrix, "solve")):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
        model.hessian(x)
        model.gradient(x)
        assert calls == []

    def test_solve_evaluates_the_membrane_once_per_iterate(self, monkeypatch):
        # the residual and the tangent of an iterate share one evaluation,
        # which solve hands to the public gradient and hessian
        calls = {"_green_membrane": 0, "gradient": 0, "hessian": 0}

        def counted(name):
            method = getattr(ShellModel, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ShellModel, name, counted(name))
        model = unibend_green_model()
        loads = LoadSpec(edge_moments={"loaded": lambda X: np.array([2.0, 0.0])})
        state, iterations = model.solve(loads)
        assert iterations > 1
        assert calls == {"_green_membrane": iterations + 1,
                         "gradient": iterations + 1, "hessian": iterations}
        assert len(state.residual_history) == iterations + 1


def sampled_green_strain(model, U):
    """The Green membrane strain at the sampling points of the membrane
    reduction, or at the energy points without it, (nT, P, 3), and its
    derivative (nT, P, 3, 3n): the deformed gradient F_d, the strain
    (F_d^T F_d - F^T F) / 2 and sym(F_d^T grad du)."""
    op = model.operator
    points = model._rule.points if op is None else model._moments.points
    F, dN = model.map.evaluate(points).F, model.basis.grad(points)
    Fd = F + U.reshape(len(U), 1, 3, -1) @ dN
    C = np.swapaxes(Fd, -1, -2) @ Fd - np.swapaxes(F, -1, -2) @ F
    E = 0.5 * np.stack([C[..., 0, 0], C[..., 1, 1], C[..., 0, 1]], axis=-1)
    return E, _strain_B(Fd, dN)


def frame_strain(model, E):
    """Frame membrane strain (nT, nq, 3) at the energy points of a strain E
    sampled as in ``sampled_green_strain``: its interpolant, evaluated with
    the operator, or E itself."""
    points = model._rule.points
    if model.operator is not None:
        op = model.operator
        E = np.moveaxis(op.evaluate(op.interpolate(np.moveaxis(E, 0, -1)), points), -1, 0)
    T, _ = _frame_maps(tangent_frame(model.map.evaluate(points).F)[1])
    return (T @ E[..., None])[..., 0]


class TestGreenClosedForm:
    @pytest.mark.parametrize("reduction", ["none", "regge"])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_matches_sampled_green_membrane(self, name, reduction):
        mesh, chart = make_benchmark_mesh(name)
        model = ShellModel(mesh, chart, MAT, ShellConfig(
            thickness=0.1, order=2, membrane_reduction=reduction, model="full_green"))
        x = random_state(model, 0.05, seed=12)
        U = model._local(x)[:, :3 * model.basis.num_shapes]
        E, dE = sampled_green_strain(model, U)
        # the strain vector and its derivative: the sampled values, or
        # their coefficients C E
        nT, m = U.shape
        ref = [E.reshape(nT, -1), dE.reshape(nT, -1, m)]
        if model.operator is not None:
            C, _ = _reduction(model.operator, model.operator.basis.eval(model._rule.points),
                              model._rule.weights)
            ref = [C @ ref[0][..., None], C @ ref[1]]
            ref[0] = ref[0][..., 0]
        for got, want in zip(model._green_membrane(U), ref):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the energy evaluates the strain without its derivative; its
        # reference is the frame strain integrated point by point
        e = frame_strain(model, E)
        energy = 0.5 * model.config.thickness * np.einsum(
            "tq,tqa,tqa->", model._wJ, e, e @ model.D)
        assert model.membrane_energy(x) == pytest.approx(energy, rel=1e-12)


class TestReductionMatrices:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_regge_matrix_is_interpolant_at_points(self, k):
        op = InterpolationOperator(k)
        rule = triangle_rule(2 * k + 4)
        C, S = _reduction(op, op.basis.eval(rule.points), rule.weights)
        V = np.random.default_rng(k).standard_normal((len(op.points), 3))
        got = (S @ (C @ V.ravel())).reshape(-1, 3)
        ref = op.evaluate(op.interpolate(V), rule.points)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the coefficient basis is orthonormal under the quadrature
        w = np.repeat(rule.weights, 3)[:, None]
        assert np.max(np.abs(S.T @ (w * S) - np.eye(len(C)))) <= 1e-13

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_shear_matrix_is_projection_at_points(self, p):
        ss = ShearSpace(p, 2 * p + 4)
        rule = triangle_rule(2 * p + 4)
        shapes = ss.shapes(rule.points)
        C, S = _reduction(ss, shapes, rule.weights)
        V = np.random.default_rng(p).standard_normal((len(ss.points), 2))
        got = (S @ (C @ V.ravel())).reshape(-1, 2)
        ref = np.einsum("qnc,n->qc", shapes, ss.interpolate(V))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        w = np.repeat(rule.weights, 2)[:, None]
        assert np.max(np.abs(S.T @ (w * S) - np.eye(len(C)))) <= 1e-13

    def test_coefficient_mass_is_three_field_block(self):
        # the weight of a reduced strain is the material mass A of the
        # interpolant's shapes, here at the moment rule's volume points: the
        # energies c . W c and a . A a of one field agree, a its coefficients
        # in the operator's basis
        op = InterpolationOperator(2)
        points, weights = op.rule.vol_points, op.rule.vol_weights
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 1.5, len(points))
        T = rng.standard_normal((len(points), 3, 3))
        C, S = _reduction(op, op.basis.eval(points), weights)
        V = rng.standard_normal((len(op.points), 3))
        Wq = _point_weights(w[None], T[None], MAT.norm_matrix)
        M, W = _strain_map(V[None, ..., None], Wq, (C, S))
        A, _ = three_field_blocks(op, w, T, MAT.norm_matrix)
        a = op.interpolate(V)
        c = M[0, :, 0]
        assert W.shape == (1, 1) + A.shape
        assert c @ W[0, 0] @ c == pytest.approx(a @ A @ a, rel=1e-13)

    def test_unreduced_maps_are_sampled_at_energy_points(self):
        model = cylinder_model(membrane_reduction="none", shear_reduction="none")
        points = model._rule.points
        ev = model.map.evaluate(points)
        T, Gt = _frame_maps(tangent_frame(ev.F)[1])
        verts = model.mesh.vertices[model.mesh.triangles]
        A = np.swapaxes(verts, 1, 2) @ BARY_GRADS
        N, dN = model.basis.eval(points), model.basis.grad(points)
        nT = model.mesh.num_triangles
        assert np.array_equal(model._Mm, _strain_B(ev.F, dN).reshape(nT, len(points) * 3, -1))
        assert np.array_equal(model._Ms, _shear_B(ev.nu, A, N, dN).reshape(
            nT, len(points) * 2, -1))
        # one weight wJ T^T D T per point, shared with the bending
        wJ = model._wJ
        for W, frame, D in ((model._Wm, T, model.D), (model._Ws, Gt, np.eye(2))):
            ref = np.einsum("tq,tqab,bc,tqcd->tqad", wJ, np.swapaxes(frame, -1, -2), D, frame)
            assert np.max(np.abs(W - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert model._Wm is model._Wb

    @pytest.mark.parametrize("kind", ["linearized_membrane", "full_green"])
    def test_reduced_strains_are_held_as_coefficients(self, kind):
        # no (element, energy point) array of a reduced strain is stored
        model = cylinder_model(model=kind)
        nT, n = model.mesh.num_triangles, model.basis.num_shapes
        n_regge, n_shear = model.operator.num_dofs, model.shear_space.num_shapes
        assert model._Mm.shape == (nT, n_regge, 3 * n)
        assert model._Wm.shape == (nT, 1, n_regge, n_regge)
        assert model._Ms.shape == (nT, n_shear, 5 * n)
        assert model._Ws.shape == (nT, 1, n_shear, n_shear)
        # the arrays with a point axis at the energy points are the geometry
        # tables and the unreduced bending
        nq = len(model._rule.points)
        for name, value in vars(model).items():
            for item in value if isinstance(value, tuple) else (value,):
                if (isinstance(item, np.ndarray) and item.ndim > 1 and len(item) == nT
                        and item.shape[1] % nq == 0):
                    assert name in ("_wJ", "_X", "_nu", "_Mb", "_Wb"), name


def model_nbytes(model):
    """Bytes of the distinct arrays a model holds, in attributes and in the
    tuples among them."""
    arrays = {}
    for value in vars(model).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                arrays[id(item)] = item.nbytes
    return sum(arrays.values())


class TestModelMemory:
    def test_order_4_reference_holds_under_half_its_point_map_size(self):
        # the level-2 cylinder reference of the locking sweep; with its
        # reduced strains sampled at the energy points its arrays took
        # 63.5 MiB, 40 MiB of them the membrane and shear point maps
        mesh, chart = make_benchmark_mesh("cylinder", 2)
        model = ShellModel(mesh, chart, MAT, ShellConfig(
            thickness=0.1, order=4, membrane_reduction="regge"))
        assert model.mesh.num_triangles == 128
        assert model_nbytes(model) <= 0.5 * 63.5 * 2 ** 20


class TestFrameInvariance:
    def test_green_membrane_energy_invariant_under_rigid_motion(self):
        model = cylinder_model(model="full_green", order=2, geometry_order=2)
        x = random_state(model, 0.05, seed=8)
        e0 = model.membrane_energy(x)

        # rotate and translate the deformed configuration
        th = 0.4
        R = np.array([
            [np.cos(th), -np.sin(th), 0.0],
            [np.sin(th), np.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ])
        c = np.array([0.2, -0.5, 0.9])
        X = scalar_node_positions(model)
        ns = model.num_scalar_dofs
        u = x[: 3 * ns].reshape(3, ns)
        u_rot = R @ (X.T + u) + c[:, None] - X.T
        x_rot = x.copy()
        x_rot[: 3 * ns] = u_rot.ravel()
        e1 = model.membrane_energy(x_rot)
        assert e1 == pytest.approx(e0, rel=1e-9)

    def test_linearized_membrane_not_invariant(self):
        # sanity check that the invariance above is a property of the model,
        # not of the test setup
        model = cylinder_model(model="linearized_membrane", order=2)
        x = np.zeros(model.num_dofs)
        th = 0.4
        R = np.array([
            [np.cos(th), -np.sin(th), 0.0],
            [np.sin(th), np.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ])
        X = scalar_node_positions(model)
        ns = model.num_scalar_dofs
        u_rot = R @ X.T - X.T
        x_rot = x.copy()
        x_rot[: 3 * ns] = u_rot.ravel()
        assert model.membrane_energy(x_rot) > 1e-6


def scalar_node_positions(model):
    lam = barycentric(model.basis.nodes)
    X = np.zeros((model.num_scalar_dofs, 3))
    for t in range(model.mesh.num_triangles):
        pverts = model.mesh.vertices[model.mesh.triangles[t]]
        pnodes = lam @ pverts
        for j, s in enumerate(model.element_scalar_dofs[t]):
            X[s] = model.chart.phi(pnodes[j])
    return X


class TestShearSpace:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_projection_reproduces_own_shapes(self, p):
        ss = ShearSpace(p, 10)
        coeff = ss.interpolate(np.moveaxis(ss.shapes(ss.points), 1, 2))
        assert np.allclose(coeff, np.eye(ss.num_shapes), atol=1e-10)


class TestBoundaryConditions:
    def test_clamped_edges_constrain_all_fields(self):
        mesh, chart = make_benchmark_mesh("unibend_cylinder")
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.01, order=2))
        ns = model.num_scalar_dofs
        clamped = mesh.edges_with_marker("clamped")
        assert len(clamped) > 0
        for e in clamped:
            for s in model._edge_scalar_dofs[e]:
                for f in range(5):
                    assert not model.free[f * ns + s]

    def test_symmetry_constrains_normal_displacement_only(self):
        model = cylinder_model()
        mesh = model.mesh
        ns = model.num_scalar_dofs
        for e in mesh.edges_with_marker("sym:x"):
            # skip the endpoint vertices, which may sit on other marked edges
            for s in model._edge_scalar_dofs[e][2:]:
                assert not model.free[0 * ns + s]   # u_x fixed
                assert model.free[1 * ns + s]       # u_y free
                assert model.free[2 * ns + s]       # u_z free

    def test_free_edges_unconstrained(self):
        model = cylinder_model()
        mesh = model.mesh
        constrained = set()
        for name in mesh.boundary_markers:
            if name != "free":
                constrained.update(model._edge_scalar_dofs[mesh.edges_with_marker(name)].flat)
        # a free edge's corner can still sit on a constrained edge
        dofs = set(model._edge_scalar_dofs[mesh.edges_with_marker("free")].flat) - constrained
        assert len(dofs) > 0
        assert model.free.reshape(5, -1)[:, sorted(dofs)].all()


class TestSolve:
    def test_zero_load_gives_zero_solution_in_one_iteration(self):
        model = cylinder_model()
        state, iters = model.solve()
        assert iters == 1
        assert np.max(np.abs(state.vector)) == 0.0

    def test_linearized_model_converges_in_one_iteration(self):
        model = cylinder_model()
        load = LoadSpec(volume=lambda X, nu: 1e-3 * nu)
        state, iters = model.solve(load)
        assert iters == 1
        assert np.max(np.abs(state.vector)) > 0

    def test_energy_decreases_under_load(self):
        model = cylinder_model()
        load = LoadSpec(volume=lambda X, nu: 1e-3 * nu)
        f = model.load_vector(load)
        state, _ = model.solve(load)
        assert model.total_energy(state.vector, f) < 0.0

    @pytest.mark.parametrize("make_model, load", [
        (cylinder_model, LoadSpec(volume=lambda X, nu: 1e-3 * nu)),
        (unibend_green_model,
         LoadSpec(edge_moments={"loaded": lambda X: np.array([1.0, 0.0])})),
    ], ids=["linearized", "full_green"])
    def test_assembled_load_vector_solves_bit_identically(self, make_model, load):
        model = make_model()
        from_spec, spec_iters = model.solve(load)
        from_vector, vector_iters = model.solve(model.load_vector(load))
        assert vector_iters == spec_iters
        assert np.array_equal(from_vector.vector, from_spec.vector)
        assert np.array_equal(from_vector.residual_history, from_spec.residual_history)

    def test_load_vector_of_wrong_length_rejected(self):
        model = cylinder_model()
        for n in (model.num_dofs - 1, model.num_dofs + 1):
            with pytest.raises(ValueError, match="load vector"):
                model.solve(np.zeros(n))

    def test_full_green_matches_linearized_for_small_data(self):
        mesh, chart = make_benchmark_mesh("cylinder")
        cfg = dict(thickness=0.1, order=1, membrane_reduction="regge")
        load = LoadSpec(volume=lambda X, nu: 1e-8 * nu)
        lin = ShellModel(mesh, chart, MAT,
                         ShellConfig(model="linearized_membrane", **cfg))
        non = ShellModel(mesh, chart, MAT, ShellConfig(model="full_green", **cfg))
        s_lin, _ = lin.solve(load)
        s_non, iters = non.solve(load)
        scale = np.max(np.abs(s_lin.vector))
        assert np.max(np.abs(s_lin.vector - s_non.vector)) < 1e-6 * scale + 1e-15

    def test_plate_with_transverse_load_deflects_downward(self):
        mesh = rectangle_mesh(4, 4, (0.0, 1.0), (0.0, 1.0),
                              {"bottom": "clamped", "top": "clamped",
                               "left": "clamped", "right": "clamped"})
        model = ShellModel(mesh, flat3_chart(), MAT,
                           ShellConfig(thickness=0.05, order=2))
        load = LoadSpec(volume=lambda X, nu: np.array([0.0, 0.0, -1.0]))
        state, _ = model.solve(load)
        w = model.evaluate_displacement(state.vector, (0.5, 0.5))
        assert w[2] < 0
        assert abs(w[2]) > 10 * max(abs(w[0]), abs(w[1]))


class TestEvaluation:
    def test_locate_and_evaluate_consistency(self):
        model = cylinder_model()
        state, _ = model.solve(LoadSpec(volume=lambda X, nu: 1e-3 * nu))
        p = model.mesh.vertices[4]
        u = model.evaluate_displacement(state.vector, p)
        assert u.shape == (3,)

    def test_locate_matches_per_triangle_loop(self):
        mesh, chart = make_benchmark_mesh("hyperboloid", 2)
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        x = random_state(model, 1.0, seed=4)

        def locate_loop(p):
            best = None
            for t in range(mesh.num_triangles):
                verts = mesh.vertices[mesh.triangles[t]]
                lam = np.linalg.solve(np.vstack([verts.T, np.ones(3)]), np.append(p, 1.0))
                if best is None or lam.min() > best[0]:
                    best = (lam.min(), t, lam)
            return best[1], best[2] @ REF_VERTICES

        rng = np.random.default_rng(2)
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        edges = mesh.vertices[mesh.triangles[:, [0, 1, 2]]] + mesh.vertices[
            mesh.triangles[:, [1, 2, 0]]]
        points = np.vstack([lo + (hi - lo) * rng.random((40, 2)), mesh.vertices,
                            0.5 * edges.reshape(-1, 2)])
        for p in points:
            t, xi = model.locate(p)
            t_ref, xi_ref = locate_loop(p)
            if t == t_ref:
                assert np.array_equal(xi, xi_ref)
            else:   # a tie on a shared vertex or edge
                u = model.evaluate_displacement(x, p)
                N = model.basis.eval(np.atleast_2d(xi_ref))[0]
                u_ref = x[model.element_dofs[t_ref, :3 * len(N)]].reshape(3, -1) @ N
                assert np.max(np.abs(u - u_ref)) <= 1e-14 * max(1.0, np.abs(u_ref).max())

    def test_point_outside_mesh_rejected(self):
        model = cylinder_model()
        with pytest.raises(ValueError):
            model.locate((100.0, 100.0))


class TestWholeMeshMap:
    def test_model_evaluates_its_element_map_once(self, monkeypatch):
        # a guard against per-element geometry loops in the model set-up
        calls = []
        evaluate = ElementMap.evaluate

        def counted(emap, points):
            calls.append(points)
            return evaluate(emap, points)

        monkeypatch.setattr(ElementMap, "evaluate", counted)
        mesh, chart = make_benchmark_mesh("hyperboloid", 2)
        ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2,
                                                 membrane_reduction="regge"))
        assert len(calls) == 1

    def test_load_vector_evaluates_no_element_map(self, monkeypatch):
        # the edge load reuses the geometry evaluated with the model
        mesh, chart = make_benchmark_mesh("hemisphere", 1)
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        calls = []
        evaluate = ElementMap.evaluate

        def counted(emap, points):
            calls.append(points)
            return evaluate(emap, points)

        monkeypatch.setattr(ElementMap, "evaluate", counted)
        f = model.load_vector(LoadSpec(
            volume=lambda X, nu: nu,
            edge_moments={"clamped": lambda X: np.array([X[0], X[2]])}))
        assert np.max(np.abs(f)) > 0
        assert calls == []

    def test_edge_moments_match_per_element_loop(self):
        mesh, chart = make_benchmark_mesh("hemisphere", 1)
        model = ShellModel(mesh, chart, MAT,
                           ShellConfig(thickness=0.1, order=3, geometry_order=2))

        def moment(X):
            return np.array([X[0] + X[2] ** 2, np.sin(X[1])])

        f = model.load_vector(LoadSpec(edge_moments={"clamped": moment}))
        # the same load, one marked (triangle, local edge) pair at a time
        ref = np.zeros(model.num_dofs)
        seg = segment_rule(model.deg_dual)
        m = 3 * model.basis.num_shapes
        marked = np.isin(mesh.tri_edges, mesh.edges_with_marker("clamped"))
        assert set(np.nonzero(marked)[1]) == {0, 2}
        for t, le in zip(*np.nonzero(marked)):
            emap = ElementMap(mesh, chart, t, 2)
            _, length = edge_tangent(le)
            pts = edge_point(le, seg.points)
            w = seg.weights * (length / 2.0) * emap.evaluate(pts).Jb(le)
            X = lagrange_basis(2).eval(pts) @ emap.control_points
            M = np.array([moment(x) for x in X])
            fe = np.einsum("q,qb,qs->bs", w, M, model.basis.eval(pts))
            ref[model.element_dofs[t, m:]] += fe.ravel()
        assert np.max(np.abs(ref)) > 0
        assert np.max(np.abs(f - ref)) <= 1e-14 * np.max(np.abs(ref))
