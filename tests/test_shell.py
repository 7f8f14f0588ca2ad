import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from reggeshell import assembly, shell
from reggeshell.assembly import (BACKWARD_TOL, RESIDUAL_TOL, SolverError, SparsityPattern,
                                 assemble, factor_solve, norm_inf)
from reggeshell.elements import (
    BARY_GRADS,
    GeometryError,
    barycentric,
    edge_point,
    edge_tangent,
    lagrange_basis,
    pseudo_inverse,
)
from reggeshell.geometry import (
    BENCHMARK_NAMES,
    BENCHMARKS,
    ChartGeometry,
    ElementMap,
    flat3_chart,
    flat_chart,
    make_benchmark_mesh,
)
from reggeshell.interpolation import (
    DualMassMatrix,
    InterpolationOperator,
    ShearSpace,
    get_operator,
)
from reggeshell.mesh import MeshError, rectangle_mesh
from reggeshell.quadrature import segment_rule, triangle_rule
from reggeshell.shell import (
    REF_VERTICES,
    SHEAR_CORRECTION,
    SHEAR_STABILIZATION,
    LoadSpec,
    MaterialParams,
    ShellConfig,
    ShellModel,
    _gram,
    _material_weights,
    _reduction,
    _reference_gram,
    _shear_B,
    _strain_B,
    _table_map,
)

from test_assembly import assert_is_free_part, full_tangent

MAT = MaterialParams(youngs_modulus=1000.0, poisson_ratio=0.3)


def textbook_law(material):
    """Isotropic law on strains in an orthonormal frame, Voigt (11, 22, 12)."""
    E, nu = material.youngs_modulus, material.poisson_ratio
    return E / (1.0 - nu * nu) * np.array([
        [1.0, nu, 0.0],
        [nu, 1.0, 0.0],
        [0.0, 0.0, 2.0 * (1.0 - nu)],
    ])


def shear_modulus(material):
    E, nu = material.youngs_modulus, material.poisson_ratio
    return SHEAR_CORRECTION * E / (2.0 * (1.0 + nu))


def frame_maps(F):
    """Frame maps of surface gradients F (..., 3, 2): the Voigt map T of
    sigma -> G^T sigma G and G^T, for G = R^{-1} of the QR factorization
    F = Q R with positive diagonal R.  T takes reference strains to strains
    in the orthonormal tangent frame Q, and G^T reference shear strains."""
    R = np.linalg.qr(F)[1]
    R = np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None] * R
    g00, g11 = 1.0 / R[..., 0, 0], 1.0 / R[..., 1, 1]
    g01 = -R[..., 0, 1] * g00 * g11
    z = np.zeros_like(g00)
    T = np.stack([g00 * g00, z, z,
                  g01 * g01, g11 * g11, 2.0 * g01 * g11,
                  g00 * g01, z, g00 * g11], axis=-1)
    Gt = np.stack([g00, z, g01, g11], axis=-1)
    return T.reshape(R.shape[:-2] + (3, 3)), Gt.reshape(R.shape)


def cylinder_model(**cfg):
    mesh, chart = make_benchmark_mesh("cylinder")
    defaults = dict(thickness=0.1, order=2, membrane_reduction="regge",
                    shear_reduction="edge_tangential")
    defaults.update(cfg)
    return ShellModel(mesh, chart, MAT, ShellConfig(**defaults))


def nodal_state(model, fields):
    """Coefficient vector whose five fields take the values fields(p) (nT, n, 5)
    at the parameter points p (nT, n, 2) of the element nodes."""
    mesh, ns = model.mesh, model.num_scalar_dofs
    values = fields(barycentric(model.basis.nodes) @ mesh.vertices[mesh.triangles])
    x = np.zeros(model.num_dofs)
    for f in range(5):
        x[f * ns + model.element_scalar_dofs] = values[..., f]
    return x


def rigid_rotation(model, omega, h=1e-3):
    """The infinitesimal rigid rotation u = omega x X, theta_a = nu . (omega x a_a)
    at the nodes, with the chart tangents a_a by fourth-order differences."""
    phi = model.chart.phi

    def fields(p):
        a = np.stack([(8.0 * (phi(p + h * e) - phi(p - h * e))
                       - (phi(p + 2 * h * e) - phi(p - 2 * h * e))) / (12.0 * h)
                      for e in np.eye(2)], axis=-1)
        nu = np.cross(a[..., 0], a[..., 1])
        nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
        # nu . (omega x a) = (nu x omega) . a
        theta = np.einsum("...i,...ia->...a", np.cross(nu, omega), a)
        return np.concatenate([np.cross(omega, phi(p)), theta], axis=-1)

    return nodal_state(model, fields)


def random_state(model, scale, seed=0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(model.num_dofs)


def fd_gradient(model, x, d, h=1e-6):
    return (model.total_energy(x + h * d) - model.total_energy(x - h * d)) / (2 * h)


class TestMaterial:
    def test_weights_in_orthonormal_frame_are_textbook_law(self):
        # at gradients with orthonormal columns the inverse metric is the
        # identity: C is the textbook law and the shear weight kG I
        F = np.linalg.qr(np.random.default_rng(3).standard_normal((10, 3, 2)))[0]
        C, S = _material_weights(F, np.ones(10), MAT)
        D = textbook_law(MAT)
        assert np.max(np.abs(C - D)) <= 1e-14 * np.max(np.abs(D))
        assert np.max(np.abs(S - shear_modulus(MAT) * np.eye(2))) <= 1e-14 * shear_modulus(MAT)
        E, nu = MAT.youngs_modulus, MAT.poisson_ratio
        v = np.array([1.0, 1.0, 0.0])
        assert v @ C[0] @ v == pytest.approx(2 * E / (1 - nu), rel=1e-14)

    @pytest.mark.parametrize("poisson_ratio", [0.0, 0.3, 0.49])
    def test_weights_spd_for_random_gradients(self, poisson_ratio):
        F = np.random.default_rng(4).standard_normal((50, 3, 2))
        C, S = _material_weights(F, np.ones(50), MaterialParams(1000.0, poisson_ratio))
        assert np.all(np.linalg.eigvalsh(C) > 0)
        assert np.all(np.linalg.eigvalsh(S) > 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MaterialParams(-1.0, 0.3)
        with pytest.raises(ValueError):
            MaterialParams(1.0, 0.5)
        for youngs_modulus in (np.inf, np.nan):
            with pytest.raises(ValueError):
                MaterialParams(youngs_modulus, 0.3)

    @pytest.mark.parametrize("args", [
        ("1", 0.3), (None, 0.3), (True, 0.3), (np.array([1.0]), 0.3), (1.0, None),
        (1.0, "0.3"), (1.0, False)],
        ids=["str_E", "none_E", "bool_E", "array_E", "none_nu", "str_nu", "bool_nu"])
    def test_parameters_must_be_numbers(self, args):
        # ("1", 0.3) and (1.0, None) raised a bare TypeError from a
        # comparison, (True, 0.3) was accepted
        with pytest.raises(ValueError, match="Young's modulus|Poisson ratio"):
            MaterialParams(*args)
        assert MaterialParams(np.float64(1.0), np.float32(0.25)).poisson_ratio == 0.25


class TestConfig:
    def test_defaults(self):
        c = ShellConfig(thickness=0.1, order=3)
        # the config keeps what it was given; the model takes the geometry
        # order from the displacement order
        assert c.geometry_order is None
        assert ShellModel(*make_benchmark_mesh("cylinder"), MAT, c).geometry_order == 3
        assert c.shear_reduction == "edge_tangential"

    def test_replaced_config_builds_the_model_its_fields_describe(self):
        # a config that filled in its own geometry order passed it on through
        # dataclasses.replace, which gave a subparametric order-3 model
        mesh, chart = make_benchmark_mesh("cylinder")
        replaced = ShellModel(mesh, chart, MAT,
                              dataclasses.replace(ShellConfig(thickness=0.1), order=3))
        direct = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=3))
        assert replaced.geometry_order == 3
        assert replaced._X.tobytes() == direct._X.tobytes()
        assert replaced._wJ.tobytes() == direct._wJ.tobytes()

    def test_invalid_choices_rejected(self):
        for thickness in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                ShellConfig(thickness=thickness)
        with pytest.raises(ValueError):
            ShellConfig(thickness=0.1, membrane_reduction="bogus")
        with pytest.raises(ValueError):
            ShellConfig(thickness=0.1, model="bogus")
        with pytest.raises(ValueError, match="order"):
            ShellConfig(thickness=0.1, order=0)
        with pytest.raises(ValueError, match="shear reduction"):
            ShellConfig(thickness=0.1, shear_reduction="bogus")

    @pytest.mark.parametrize("name, value", [
        ("order", 2.0), ("order", "2"), ("order", None), ("geometry_order", 1.5),
        ("geometry_order", 0), ("geometry_order", np.float64(2.0)), ("order", True),
        ("geometry_order", True)])
    def test_orders_must_be_integers_from_1(self, name, value):
        # a float order failed inside the model build with a TypeError, and
        # geometry order 0 only inside ElementMap; a bool was taken for 1
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            ShellConfig(thickness=0.1, **{name: value})
        assert ShellConfig(thickness=0.1, **{name: np.int64(2)}).order == 2

    @pytest.mark.parametrize("thickness", [0.0, -1.0, np.nan, np.inf])
    def test_thickness_checked_on_assignment(self, thickness):
        c = ShellConfig(thickness=0.1)
        with pytest.raises(ValueError):
            c.thickness = thickness
        assert c.thickness == 0.1

    @pytest.mark.parametrize("thickness", ["0.1", None, True, np.array([0.1]), 1j])
    def test_thickness_must_be_a_number(self, thickness):
        # "0.1" and None raised a bare TypeError from a comparison, True and
        # an array were accepted, at construction and on assignment
        with pytest.raises(ValueError, match="thickness"):
            ShellConfig(thickness=thickness)
        c = ShellConfig(thickness=np.float64(0.1))
        with pytest.raises(ValueError, match="thickness"):
            c.thickness = thickness
        c.thickness = np.float32(0.5)
        assert c.thickness == 0.5

    @pytest.mark.parametrize("name, value", [
        ("order", 3), ("geometry_order", 1), ("membrane_reduction", "none"),
        ("shear_reduction", "none"), ("model", "full_green")])
    def test_fields_other_than_thickness_fixed_once_built(self, name, value):
        # a model has built its spaces and tables from these: on the unibend
        # model a changed membrane reduction was ignored, a full_green model
        # or a geometry order 1 failed in the next solve or load
        mesh, chart = make_benchmark_mesh("unibend_cylinder")
        config = ShellConfig(thickness=0.1, order=2, membrane_reduction="regge")
        ShellModel(mesh, chart, MAT, config)
        before = dataclasses.asdict(config)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(config, name, value)
        assert dataclasses.asdict(config) == before
        config.thickness = 0.01
        assert config.thickness == 0.01


class TestKernelAndScaling:
    def test_rigid_translation_has_zero_energy(self):
        model = cylinder_model()
        x = np.zeros(model.num_dofs)
        ns = model.num_scalar_dofs
        for c, val in enumerate((0.3, -0.7, 1.1)):
            x[c * ns:(c + 1) * ns] = val
        assert model.energies(x)["membrane"] <= 1e-24
        assert model.energies(x)["bending"] <= 1e-24
        assert model.energies(x)["shear"] <= 1e-24

    @pytest.mark.parametrize("reductions", [("none", "none"), ("regge", "edge_tangential")],
                             ids=["unreduced", "reduced"])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("name", ["hemisphere", "hyperboloid", "cylinder"])
    def test_rigid_rotation_leaves_no_membrane_and_a_vanishing_shear(self, name, order,
                                                                     reductions):
        # the bending energy of a rigid rotation does not vanish (ROADMAP
        # item 10) and is not asserted; at E = t = 1 the membrane read at most
        # 5.9e-27 and the shear fell by 3.90-4.55 (k = 1) and 14.5-75 (k = 2)
        # per level
        membrane_reduction, shear_reduction = reductions
        config = ShellConfig(thickness=1.0, order=order, membrane_reduction=membrane_reduction,
                             shear_reduction=shear_reduction)
        omega = np.array([0.3, -0.5, 0.81])
        shear = []
        for level in range(3):
            model = ShellModel(*make_benchmark_mesh(name, level), MaterialParams(1.0, 0.3),
                               config)
            energies = model.energies(rigid_rotation(model, omega))
            assert energies["membrane"] <= 1.2e-26
            shear.append(energies["shear"])
        assert all(coarse >= 0.8 * 4 ** order * fine
                   for coarse, fine in zip(shear, shear[1:]))

    @pytest.mark.parametrize("name", ["hemisphere", "hyperboloid", "cylinder"])
    def test_lowest_order_rigid_rotation_on_quadratic_geometry(self, name):
        # at k = 1 and geometry order 2 the nodal interpolant of a rotation is
        # not rigid on the quadratic surface, so the unreduced membrane does
        # not vanish (4.15, 0.048 and 0.030 at level 0, falling about 4 times
        # per level); the Regge membrane does (at most 3.6e-28), as the
        # degree-0 moment of d_s X . (omega x (X_b - X_a)) along an edge is
        # (X_b - X_a) . (omega x (X_b - X_a)) = 0
        omega = np.array([0.3, -0.5, 0.81])
        for level in range(3):
            mesh, chart = make_benchmark_mesh(name, level)
            for reduction in ("regge", "none"):
                model = ShellModel(mesh, chart, MaterialParams(1.0, 0.3), ShellConfig(
                    thickness=1.0, order=1, geometry_order=2, membrane_reduction=reduction))
                membrane = model.energies(rigid_rotation(model, omega))["membrane"]
                if reduction == "regge":
                    assert membrane <= 1.2e-26
                else:
                    assert membrane >= 1e-6

    @pytest.mark.parametrize("poisson_ratio", [0.0, 0.3])
    def test_plate_energies_of_affine_states(self, poisson_ratio):
        E, t = 1000.0, 0.1
        eps, gamma, kappa = 1e-3, 2e-3, 0.5
        model = ShellModel(rectangle_mesh(2, 2, (0.0, 1.0), (0.0, 1.0)), flat3_chart(),
                           MaterialParams(E, poisson_ratio),
                           ShellConfig(thickness=t, order=2, shear_reduction="none"))
        kG = SHEAR_CORRECTION * E / (2.0 * (1.0 + poisson_ratio))
        plate = E / (1.0 - poisson_ratio ** 2)

        def state(field, slope):
            # the one field that is slope * x on the unit square, all others 0
            return nodal_state(model, lambda p: slope * p[..., :1] * np.eye(5)[field])

        stretch = model.energies(state(0, eps))
        assert stretch["membrane"] == pytest.approx(0.5 * plate * t * eps ** 2, rel=1e-12)
        assert model.energies(state(2, gamma))["shear"] == pytest.approx(
            0.5 * kG * t * gamma ** 2, rel=1e-12)
        naghdi = 0.5 * plate * t ** 3 / 12.0 * kappa ** 2
        bending = model.energies(state(3, kappa))["bending"]
        assert bending == pytest.approx(12.0 * naghdi, rel=1e-12), (
            "the bending weighs t^3, 12 times the Naghdi t^3/12: ROADMAP item 9 "
            "changes it, and this assertion with it")

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
            energies = model.energies(x)
            vals[t] = (energies["membrane"], energies["bending"], energies["shear"])
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
            vals[t] = model.energies(x)["shear"]

        def weight(t):
            return t ** 3 / (t ** 2 + SHEAR_STABILIZATION * h2)

        assert vals[0.1] / vals[0.01] == pytest.approx(
            weight(0.1) / weight(0.01), rel=1e-12)


def naghdi_parameters(E, t):
    """Young's modulus and thickness (E sqrt(12), t / sqrt(12)) at which the
    library's energy, whose bending weighs t^3, has the Naghdi weights of
    (E, t): the membrane E t, the shear kG t and the bending E t^3 / 12.
    With the shear reduction on, the stabilization becomes 12 c.  It stands
    in for ROADMAP item 9, the t^3 / 12 bending weight, which deletes it."""
    return E * np.sqrt(12.0), t / np.sqrt(12.0)


class TestNaghdiParameters:
    def test_energies_are_the_naghdi_weights(self):
        # with the shear reduction off; all three read within 4.5e-16
        mesh, chart = make_benchmark_mesh("cylinder")

        def model(E, t):
            return ShellModel(mesh, chart, MaterialParams(E, 0.3),
                              ShellConfig(thickness=t, order=2, membrane_reduction="regge",
                                          shear_reduction="none"))

        plain, naghdi = model(1000.0, 0.05), model(*naghdi_parameters(1000.0, 0.05))
        x = random_state(plain, 0.1, seed=5)
        plain, naghdi = plain.energies(x), naghdi.energies(x)
        assert naghdi["membrane"] == pytest.approx(plain["membrane"], rel=1e-14)
        assert naghdi["shear"] == pytest.approx(plain["shear"], rel=1e-14)
        assert naghdi["bending"] / plain["bending"] == pytest.approx(1.0 / 12.0, rel=1e-14)

    # the pure bending theta_1 = kappa x and the twist theta_1 = tau y of
    # the unit-square plate have the Naghdi bending energies (1/2) D kappa^2
    # and D (1 - nu) tau^2 / 4, D = E t^3 / (12 (1 - nu^2)), with the shear
    # reduction on and off; both read within 4.0e-15
    @pytest.mark.parametrize("shear_reduction", ["none", "edge_tangential"])
    @pytest.mark.parametrize("poisson_ratio", [0.0, 0.3])
    def test_plate_bending_and_twist_match_closed_forms(self, poisson_ratio, shear_reduction):
        E, t, kappa, tau = 1000.0, 0.1, 0.5, 0.4
        Eq, tq = naghdi_parameters(E, t)
        model = ShellModel(rectangle_mesh(2, 2, (0.0, 1.0), (0.0, 1.0)), flat3_chart(),
                           MaterialParams(Eq, poisson_ratio),
                           ShellConfig(thickness=tq, order=2, shear_reduction=shear_reduction))

        def rotation(gradient):
            # theta_1 = gradient . p, all other fields 0
            return nodal_state(model, lambda p: (p @ gradient)[..., None] * np.eye(5)[3])

        bending = model.energies(rotation([kappa, 0.0]))["bending"]
        assert bending == pytest.approx(
            0.5 * E * t ** 3 / 12.0 * kappa ** 2 / (1.0 - poisson_ratio ** 2), rel=1e-12)
        twist = model.energies(rotation([0.0, tau]))["bending"]
        assert twist == pytest.approx(E * t ** 3 * tau ** 2 / (48.0 * (1.0 + poisson_ratio)),
                                      rel=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1e-2, 1e-4])
    def test_unibend_tip_matches_closed_form(self, t):
        # a unit covariant end moment is the physical moment m = R, so the
        # tip moves by (m R^2 / D) (1, 0, pi/2 - 1); x and z read at most
        # 7.9e-8 and 9.4e-8 off, and y, unasserted, 1.6e-6 of |u| at t = 0.1
        R, E = 0.1, 2.0e5
        Eq, tq = naghdi_parameters(E, t)
        model = ShellModel(*make_benchmark_mesh("unibend_cylinder", 2), MaterialParams(Eq, 0.0),
                           ShellConfig(thickness=tq, order=2, membrane_reduction="regge"))
        state, _ = model.solve(LoadSpec(edge_moments={"loaded": lambda X: np.array([1.0, 0.0])}))
        u = model.evaluate_displacement(state.vector, (np.pi / 2.0, 0.0125))
        D = E * t ** 3 / 12.0
        np.testing.assert_allclose(u[[0, 2]], R ** 3 / D * np.array([1.0, np.pi / 2.0 - 1.0]),
                                   rtol=1e-6)


class TestDerivatives:
    @pytest.mark.parametrize("shear", ["none", "edge_tangential"])
    @pytest.mark.parametrize("reduction", ["none", "regge"])
    @pytest.mark.parametrize("model_kind", ["linearized_membrane", "full_green"])
    def test_gradient_matches_finite_differences(self, reduction, model_kind, shear):
        model = cylinder_model(membrane_reduction=reduction, model=model_kind,
                               shear_reduction=shear)
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
        # on every dof, the constrained ones included
        model = cylinder_model(model="full_green", order=1)
        x = random_state(model, 0.01, seed=4)
        H = full_tangent(model, x).toarray()
        assert np.max(np.abs(H - H.T)) < 1e-8 * np.max(np.abs(H))

    def test_full_green_hessian_matches_gradient_differences(self):
        model = cylinder_model(model="full_green", order=1)
        x = random_state(model, 0.01, seed=6)
        H = full_tangent(model, x)
        assert_is_free_part(model.hessian(x).matrix, H, model.free)
        rng = np.random.default_rng(7)
        d = rng.standard_normal(model.num_dofs)
        d /= np.linalg.norm(d)
        h = 1e-5
        fd = (model.gradient(x + h * d) - model.gradient(x - h * d)) / (2 * h)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(H @ d - fd)) < 1e-4 * scale

    @pytest.mark.parametrize("kind", ["linearized_membrane", "full_green"])
    def test_sums_do_not_depend_on_the_term_order(self, kind, monkeypatch):
        # each entry sums at most two terms into zeros; with the membrane
        # first the first term no longer covers every column
        model = cylinder_model(model=kind, order=1)
        x = random_state(model, 0.01, seed=5)
        g, H = model.gradient(x), model.hessian(x).data
        terms = model._terms
        monkeypatch.setattr(model, "_terms", lambda X: dict(reversed(terms(X).items())))
        assert list(model._terms(model._local(x))) == ["membrane", "bending", "shear"]
        assert model.gradient(x).tobytes() == g.tobytes()
        assert model.hessian(x).data.tobytes() == H.tobytes()


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
        # and on every dof, the constrained ones included
        assert np.array_equal(full_tangent(green, x).toarray(), full_tangent(linear, x).toarray())

    @pytest.mark.parametrize("shear", ["none", "edge_tangential"])
    @pytest.mark.parametrize("reduction", ["none", "regge"])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_hessian_matches_gradient_differences(self, name, reduction, shear):
        mesh, chart = make_benchmark_mesh(name)
        model = ShellModel(mesh, chart, MAT, ShellConfig(
            thickness=0.1, order=2, membrane_reduction=reduction, shear_reduction=shear,
            model="full_green"))
        x = random_state(model, 0.05, seed=8)
        d = np.random.default_rng(9).standard_normal(model.num_dofs)
        d /= np.linalg.norm(d)
        h = 1e-6
        fd = (model.gradient(x + h * d) - model.gradient(x - h * d)) / (2 * h)
        full = full_tangent(model, x)
        assert_is_free_part(model.hessian(x).matrix, full, model.free)
        # on every dof, the constrained ones included
        Hd = full @ d
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

    def test_newton_raises_when_out_of_iterations(self, monkeypatch):
        # M = 5 from rest takes more than two steps
        monkeypatch.setattr(shell, "NEWTON_MAX_ITER", 2)
        loads = LoadSpec(edge_moments={"loaded": lambda X: np.array([5.0, 0.0])})
        with pytest.raises(SolverError, match="Newton did not converge in 2 iterations"):
            unibend_green_model().solve(loads)

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
    T, _ = frame_maps(model.map.evaluate(points).F)
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
        # the energy's reference is the frame strain integrated point by point
        e = frame_strain(model, E)
        energy = 0.5 * model.config.thickness * np.einsum(
            "tq,tqa,tqa->", model._wJ, e, e @ textbook_law(MAT))
        assert model.energies(x)["membrane"] == pytest.approx(energy, rel=1e-12)


class TestReductionMatrices:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_regge_matrix_is_interpolant_at_points(self, k):
        op = get_operator(k)
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
        # the weight of a reduced strain is the material mass
        # A = sum_q w_q (T_q S_q)^T D (T_q S_q) of the interpolant's shapes
        # S, here at the moment rule's volume points: the energies c . W c
        # and a . A a of one field agree, a its coefficients in the
        # operator's basis
        op = get_operator(2)
        points, weights = op.rule.vol_points, op.rule.vol_weights
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 1.5, len(points))
        T = rng.standard_normal((len(points), 3, 3))
        C, S = _reduction(op, op.basis.eval(points), weights)
        V = rng.standard_normal((len(op.points), 3))
        D = textbook_law(MAT)
        Wq = w[:, None, None] * (np.swapaxes(T, -1, -2) @ D @ T)
        W = _reference_gram(S, Wq[None])
        TS = np.einsum("qab,qnb->qna", T, op.basis.eval(points))
        A = np.einsum("q,qna,ab,qmb->nm", w, TS, D, TS)
        a = op.interpolate(V)
        c = C @ V.ravel()
        assert W.shape == (1,) + A.shape
        assert c @ W[0] @ c == pytest.approx(a @ A @ a, rel=1e-13)

    @pytest.mark.parametrize("shape", [(6, 3, 4), (6, 3, 4, 2)])
    def test_table_map_is_the_geometry_table_contraction(self, shape):
        rng = np.random.default_rng(len(shape))
        G = rng.standard_normal(shape)
        K, r, n = int(np.prod(shape[2:])), 7, 5
        T = rng.standard_normal((K, r * n))
        want = np.einsum("tck,krs->trcs", G.reshape(6, 3, K), T.reshape(K, r, n))
        got = _table_map(G, T, r)
        assert got.shape == (6, r, 3 * n)
        assert np.allclose(got, want.reshape(6, r, 3 * n), rtol=1e-14, atol=1e-14)

    def test_unreduced_maps_are_sampled_at_energy_points(self):
        model = cylinder_model(membrane_reduction="none", shear_reduction="none")
        points = model._rule.points
        ev = model.map.evaluate(points)
        T, Gt = frame_maps(ev.F)
        verts = model.mesh.vertices[model.mesh.triangles]
        A = np.swapaxes(verts, 1, 2) @ BARY_GRADS
        N, dN = model.basis.eval(points), model.basis.grad(points)
        nT = model.mesh.num_triangles
        assert np.array_equal(model._Mm, _strain_B(ev.F, dN).reshape(nT, len(points) * 3, -1))
        assert np.array_equal(model._Ms, _shear_B(ev.nu, A, N, dN).reshape(
            nT, len(points) * 2, -1))
        # one weight wJ T^T D T per point of the membrane and wJ kG G G^T of
        # the shear
        wJ = model._wJ
        for W, frame, D in ((model._Wm, T, textbook_law(MAT)),
                            (model._Ws, Gt, shear_modulus(MAT) * np.eye(2))):
            ref = np.einsum("tq,tqab,bc,tqcd->tqad", wJ, np.swapaxes(frame, -1, -2), D, frame)
            assert np.max(np.abs(W - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["linearized_membrane", "full_green"])
    def test_reduced_strains_are_held_as_coefficients(self, kind):
        # no (element, energy point) array of a reduced strain is stored
        model = cylinder_model(model=kind)
        nT, n = model.mesh.num_triangles, model.basis.num_shapes
        n_regge, n_shear = model.operator.basis.num_shapes, model.shear_space.num_shapes
        assert model._Mm.shape == (nT, n_regge, 3 * n)
        assert model._Wm.shape == (nT, 1, n_regge, n_regge)
        assert model._Ms.shape == (nT, n_shear, 5 * n)
        assert model._Ws.shape == (nT, 1, n_shear, n_shear)
        # the arrays with a point axis at the energy points are the geometry
        # tables
        nq = len(model._rule.points)
        for name, value in vars(model).items():
            for item in value if isinstance(value, tuple) else (value,):
                if (isinstance(item, np.ndarray) and item.ndim > 1 and len(item) == nT
                        and item.shape[1] % nq == 0):
                    assert name in ("_wJ", "_X", "_nu"), name


def sampled_maps(model):
    """The strain maps and point weights as the model held them when it
    formed every (element, point, dof) map: the membrane and shear maps
    sampled at the moment rule, and the bending map at the energy points,
    with the point weights of the membrane and of the shear."""
    rule, nq, n = model._rule, len(model._rule.points), model.basis.num_shapes
    points = np.vstack([rule.points, model._moments.points])
    ev = model.map.evaluate(points)
    N, dN = model.basis.eval(points), model.basis.grad(points)
    nT = model.mesh.num_triangles
    verts = model.mesh.vertices[model.mesh.triangles]
    A = np.swapaxes(verts, 1, 2) @ BARY_GRADS
    Wq, Wq_shear = _material_weights(ev.F[:, :nq], model._wJ, MAT)
    membrane = _strain_B(ev.F[:, nq:], dN[nq:]).reshape(nT, -1, 3 * n)
    shear = _shear_B(ev.nu[:, nq:], A, N[nq:], dN[nq:]).reshape(nT, -1, 5 * n)
    bending = _strain_B(A[:, None], dN[:nq]).reshape(nT, -1, 2 * n)
    return membrane, shear, bending, Wq, Wq_shear


def assert_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestReferenceTables:
    """The maps and weights built from element independent tables agree
    with the products of the sampled (element, point, dof) maps."""

    @pytest.mark.parametrize("name, order", [("hyperboloid", 1), ("cylinder", 2),
                                             ("hemisphere", 3), ("unibend_cylinder", 4)])
    def test_maps_and_forms_match_sampled_maps(self, name, order):
        mesh, chart = make_benchmark_mesh(name)
        model = ShellModel(mesh, chart, MAT, ShellConfig(
            thickness=0.1, order=order, membrane_reduction="regge"))
        membrane, shear, bending, Wq, Wq_shear = sampled_maps(model)
        rule, nT = model._rule, model.mesh.num_triangles
        op, ss = model.operator, model.shear_space
        Cm, Sm = _reduction(op, op.basis.eval(rule.points), rule.weights)
        Cs, Ss = _reduction(ss, ss.shapes(rule.points), rule.weights)
        assert_close(model._Mm, Cm @ membrane)
        assert_close(model._Ms, Cs @ shear)
        for W, S, Wp in ((model._Wm, Sm, Wq), (model._Ws, Ss, Wq_shear)):
            assert_close(W[:, 0], _gram(np.broadcast_to(S, (nT,) + S.shape), Wp))
        # the bending's strain is the rotations, its weight the bending
        # map's form
        assert_close(model._Wb[:, 0], _gram(bending, Wq))
        x = random_state(model, 0.1, seed=order)
        theta = model._local(x)[:, 3 * model.basis.num_shapes:]
        e = np.einsum("tri,ti->tr", bending, theta).reshape(nT, -1, 3)
        energy = 0.5 * 0.1 ** 3 * np.einsum("tqa,tqab,tqb->", e, Wq, e)
        assert model.energies(x)["bending"] == pytest.approx(energy, rel=1e-13)


class TestElementBlocks:
    @pytest.mark.parametrize("name, cfg", [
        ("cylinder", dict(membrane_reduction="regge")),
        ("unibend_cylinder", dict(model="full_green", shear_reduction="none")),
        ("unibend_cylinder", dict(membrane_reduction="regge", model="full_green")),
    ])
    def test_block_sizes_give_the_same_tangent_and_load(self, name, cfg, monkeypatch):
        # the one budget sizes every block: one element or point per block,
        # the default blocks and the whole mesh as one block give the same
        # tangent, load vector and freshly built pattern bit for bit
        mesh, chart = make_benchmark_mesh(name, 1)
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.01, order=2, **cfg))
        x = random_state(model, 1e-3) * model.free
        load = LoadSpec(volume=lambda X, nu: np.cos(X[0]) * nu)
        results = set()
        for size in (1, assembly.BLOCK_BYTES, 2 ** 40):
            monkeypatch.setattr(assembly, "BLOCK_BYTES", size)
            pattern = SparsityPattern(model.num_scalar_dofs, model.element_scalar_dofs,
                                      model.free, fields=5)
            results.add((model.hessian(x).data.tobytes(), model.load_vector(load).tobytes())
                        + tuple(getattr(pattern, attr).tobytes() for attr in (
                            "slot", "order", "block_indptr", "block_indices")))
        assert len(results) == 1

    def test_default_budget_block_sizes(self, order_4_reference):
        # 36 elements per tangent block on the hyperboloid, 5 on the order-4
        # reference, and 1,820 points per load block
        mesh, chart = make_benchmark_mesh("hyperboloid", 2)
        hyperboloid = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.01, order=2))
        for model, size in ((hyperboloid, 36), (order_4_reference[0], 5)):
            terms = model._terms(model._local(np.zeros(model.num_dofs)))
            assert len(next(model._tangent_blocks(terms))) == size
        assert [b.stop - b.start for b in assembly.item_blocks(4000, 144)] == [1820, 1820, 360]

    @pytest.mark.parametrize("size", [1, 143])
    def test_budget_below_one_point_calls_one_point_per_block(self, size, monkeypatch):
        # a wrong value at the second point raises before the third is called
        model = cylinder_model()
        monkeypatch.setattr(assembly, "BLOCK_BYTES", size)
        calls = itertools.count()

        def volume(X, nu):
            return nu[:2] if next(calls) == 1 else nu

        with pytest.raises(ValueError, match=r"volume load .* expected \(3,\)"):
            model.load_vector(LoadSpec(volume=volume))
        assert next(calls) == 2


def model_nbytes(model):
    """Bytes of the distinct arrays a model (or its pattern) holds, in
    attributes and in the tuples among them.  A view counts as the whole
    array it was taken from, which it keeps alive, counted once."""
    arrays = {}
    for value in vars(model).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                while isinstance(item.base, np.ndarray):
                    item = item.base
                arrays[id(item)] = item.nbytes
    return sum(arrays.values())


def traced_peak(build):
    """Result of ``build()`` and the peak of the memory it allocated, in
    bytes, as tracemalloc counts it (the same on every run)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def order_4_reference():
    """The level-2 cylinder reference of the locking sweep (128 elements,
    5,445 dofs) and the traced peak of its construction."""
    mesh, chart = make_benchmark_mesh("cylinder", 2)
    return traced_peak(lambda: ShellModel(mesh, chart, MAT, ShellConfig(
        thickness=0.1, order=4, membrane_reduction="regge")))


class TestModelMemory:
    """Bounds fixed from the construction that formed the (element, point,
    dof) maps: 27.5 MiB of model arrays, a 61.0 MiB build peak and a
    20.4 MiB tangent and solve at t = 1e-3.  The model arrays are bounded
    from the bending held as its rotations and coefficient mass: 6.09 MiB,
    where a stored bending form and its point weights took 7.45 MiB.  The
    pattern arrays are bounded from an intp ``slot``: 8.2 MiB, 5.47 MiB
    with an int32 one and 5.20 MiB with the entries in a constrained row or
    column stored unsummed, without their CSR rows and columns.  The
    tangent, the solve and the load vector are bounded from the whole-mesh
    transients: the (128, 75, 75) tangent stack, two scaling gathers of the
    free block's size and a list of the load's 18,432 per-point values took
    10.25 MiB in ``hessian``, 11.56 MiB in ``hessian`` and ``factor_solve``
    and 3.56 MiB in ``load_vector``; formed one block at a time they take
    5.35, 5.35 and 0.95 MiB.  The pattern build is bounded from its layout
    on the supervariable graph: laid out through scipy's permutation of a
    matrix of the full pattern it peaked at 20.47 MiB and the model build
    at 26.82 MiB; built on the graph, one block at a time, they peak at
    7.20 and 13.61 MiB, and the pattern at 5.75 MiB with the constrained
    entries stored unsummed.  Summed into one discarded sink, the assembled
    values take 4.39 MiB instead of 4.70: ``assemble`` peaks at 4.44 MiB
    instead of 4.74, ``hessian`` at 5.30 instead of 5.60, and the pattern
    build at 5.68 MiB; the pattern's arrays take 5.16 MiB either way, as
    ``slot`` keeps its size."""

    def test_order_4_reference_arrays(self, order_4_reference):
        model, _ = order_4_reference
        assert model_nbytes(model) <= 6.5 * 2 ** 20

    def test_order_4_reference_pattern_arrays(self, order_4_reference):
        model, _ = order_4_reference
        assert model_nbytes(model._pattern) <= 5.25 * 2 ** 20

    def test_order_4_reference_assembly_makes_no_index_copy(self, order_4_reference):
        # a copy of the int32 slot as intp, as bincount makes, adds 5.49 MiB
        model, _ = order_4_reference
        pattern = model._pattern
        m = pattern.element_dofs.shape[1]
        values = np.random.default_rng(0).standard_normal((len(pattern.element_dofs), m, m))
        _, peak = traced_peak(lambda: assemble(pattern, values))
        assert peak <= (len(pattern.block_indices) + 1) * 8 + 0.5 * 2 ** 20

    def test_order_4_reference_build_peak(self, order_4_reference):
        _, peak = order_4_reference
        assert peak <= 14 * 2 ** 20

    def test_order_4_reference_pattern_peak(self, order_4_reference):
        # the pattern's 5.16 MiB of arrays and the transients of one block
        model, _ = order_4_reference
        _, peak = traced_peak(lambda: SparsityPattern(
            model.num_scalar_dofs, model.element_scalar_dofs, model.free, fields=5))
        assert peak <= 6 * 2 ** 20

    def test_order_4_reference_tangent_and_solve_peak(self, order_4_reference):
        model, _ = order_4_reference
        x = np.zeros(model.num_dofs)
        rhs = np.random.default_rng(0).standard_normal(model.num_dofs)
        model.config.thickness = 1e-3
        try:
            _, peak = traced_peak(lambda: factor_solve(model.hessian(x), rhs))
        finally:
            model.config.thickness = 0.1
        assert peak <= 6 * 2 ** 20

    def test_order_4_reference_hessian_peak(self, order_4_reference):
        # the assembled values (4.39 MiB) and blocks of element tangents
        model, _ = order_4_reference
        _, peak = traced_peak(lambda: model.hessian(np.zeros(model.num_dofs)))
        assert peak <= (len(model._pattern.block_indices) + 1) * 8 + 2 ** 20

    def test_order_4_reference_load_vector_peak(self, order_4_reference):
        model, _ = order_4_reference
        _, peak = traced_peak(lambda: model.load_vector(LoadSpec(**BENCHMARKS["cylinder"]["load"])))
        assert peak <= 1.5 * 2 ** 20

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
        e0 = model.energies(x)["membrane"]

        # rotate and translate the deformed configuration
        th = 0.4
        R = np.array([
            [np.cos(th), -np.sin(th), 0.0],
            [np.sin(th), np.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ])
        c = np.array([0.2, -0.5, 0.9])
        X = node_positions(model)
        ns = model.num_scalar_dofs
        u = x[: 3 * ns].reshape(3, ns)
        u_rot = R @ (X.T + u) + c[:, None] - X.T
        x_rot = x.copy()
        x_rot[: 3 * ns] = u_rot.ravel()
        e1 = model.energies(x_rot)["membrane"]
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
        X = node_positions(model)
        ns = model.num_scalar_dofs
        u_rot = R @ X.T - X.T
        x_rot = x.copy()
        x_rot[: 3 * ns] = u_rot.ravel()
        assert model.energies(x_rot)["membrane"] > 1e-6


def node_positions(model):
    """Chart positions (ns, 3) of the scalar nodes, which interpolate the
    isoparametric geometry."""
    lam = barycentric(model.basis.nodes)
    X = np.empty((model.num_scalar_dofs, 3))
    mesh = model.mesh
    X[model.element_scalar_dofs] = model.chart.phi(lam @ mesh.vertices[mesh.triangles])
    return X


class TestShearSpace:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_projection_reproduces_own_shapes(self, p):
        ss = ShearSpace(p, 10)
        coeff = ss.interpolate(np.moveaxis(ss.shapes(ss.points), 1, 2))
        assert np.allclose(coeff, np.eye(ss.num_shapes), atol=1e-10)

    @pytest.mark.parametrize("d", [4, 6, 8, 10])
    @pytest.mark.parametrize("p", [0, 1])
    def test_square_edge_moments_give_the_edge_interpolant(self, p, d):
        # as many edge moments as shapes leave the constrained L2 fit no
        # freedom: its edge block is inv(E), its volume block vanishes
        ss = ShearSpace(p, d)
        E = ss._edge_moments(ss.rule.split(np.moveaxis(ss.shapes(ss.points), 1, 2))[0])
        inv = np.linalg.inv(E)
        assert np.max(np.abs(ss._proj_edge - inv)) <= 1e-14 * np.max(np.abs(inv))
        assert np.max(np.abs(ss._proj_vol)) <= 1e-14


def expected_free(model, h=1e-6):
    """Free mask of a model's boundary markers from central differences of
    its chart, and the |<axis> components| (n, 2) of the two contravariant
    directions on each sym:<axis> marker's edges.  The rotation fixed on a
    symmetry edge is the one whose contravariant direction, pinv(dphi) at
    the edge's parameter midpoint, has the larger <axis> component."""
    mesh, chart = model.mesh, model.chart
    fixed = np.zeros((5, model.num_scalar_dofs), dtype=bool)
    components = []
    for name in mesh.boundary_markers:
        eids = mesh.edges_with_marker(name)
        dofs = model._edge_scalar_dofs[eids]
        if name == "clamped":
            fixed[:, dofs] = True
        elif name.startswith("sym:"):
            axis = "xyz".index(name[-1])
            mid = mesh.vertices[mesh.edges[eids]].mean(axis=1)
            dphi = np.stack([(chart.phi(mid + h * e) - chart.phi(mid - h * e)) / (2 * h)
                             for e in np.eye(2)], axis=-1)
            comp = np.abs(pseudo_inverse(dphi)[:, :, axis])
            fixed[axis, dofs] = True
            fixed[3 + np.argmax(comp, axis=1)[:, None], dofs] = True
            components.append(comp)
    return ~fixed.ravel(), components


def assert_symmetry_rotations_match_chart(model):
    free, components = expected_free(model)
    for comp in components:
        # no choice is near a tie (2.47 is the smallest ratio on the benchmarks)
        assert np.all(comp.max(axis=1) >= 2.0 * comp.min(axis=1))
    assert np.array_equal(model.free, free)


class TestBoundaryConditions:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_symmetry_rotation_matches_chart_oracle(self, name, level, order):
        mesh, chart = make_benchmark_mesh(name, level)
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.01, order=order))
        assert_symmetry_rotations_match_chart(model)

    def test_symmetry_rotation_changes_along_the_marker(self):
        # on u = 0 of phi(u, v) = (u, v + u d(v), 0), d(v) = 4v, the
        # contravariant basis is a^1 = (1, 0, 0) and a^2 = (-d, 1, 0), so the
        # fixed rotation switches from theta_1 to theta_2 where |d| passes 1;
        # the four sym:x edges have mean d 0.5, 1.5, 2.5 and 3.5
        def phi(p):
            u, v = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
            return np.stack([u, v + 4.0 * u * v, np.zeros_like(u)], axis=-1)

        mesh = rectangle_mesh(2, 4, (0.0, 1.0), (0.0, 1.0), {"left": "sym:x"})
        model = ShellModel(mesh, ChartGeometry("skew", 3, phi), MAT,
                           ShellConfig(thickness=0.01, order=2))
        free, (comp,) = expected_free(model)
        assert np.array_equal(np.sort(np.argmax(comp, axis=1)), [0, 1, 1, 1])
        assert np.all(comp.max(axis=1) >= 1.4 * comp.min(axis=1))
        assert np.array_equal(model.free, free)

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

    @pytest.mark.parametrize("marker", ["sym:", "sym:xy", "sym:w", "sym:X"])
    def test_malformed_symmetry_marker_rejected(self, marker):
        # "sym:" and "sym:xy" acted as sym:x, the others raised a bare ValueError
        mesh = rectangle_mesh(1, 1, (0.0, 1.0), (0.0, 1.0), {"left": marker})
        with pytest.raises(MeshError, match=f"'{marker}'"):
            ShellModel(mesh, flat3_chart(), MAT, ShellConfig(thickness=0.01))

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

    def test_load_vector_of_wrong_shape_rejected_by_every_user(self):
        # gradient returned a (2, n) array for a (2, n) load and total_energy
        # an array; a short load raised numpy's broadcast error
        model = cylinder_model()
        n, x = model.num_dofs, np.zeros(model.num_dofs)
        for shape in ((n - 1,), (n + 1,), (2, n), (n, 1)):
            f = np.zeros(shape)
            for use in (lambda f: model.gradient(x, f), lambda f: model.total_energy(x, f),
                        model.solve):
                with pytest.raises(ValueError, match=re.escape(
                        f"load vector of shape {shape}, expected ({n},)")):
                    use(f)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_load_vector_rejected(self, entry):
        # gradient and total_energy returned non-finite values silently
        model = cylinder_model()
        x, f = np.zeros(model.num_dofs), np.zeros(model.num_dofs)
        f[7] = entry
        for use in (lambda f: model.gradient(x, f), lambda f: model.total_energy(x, f),
                    model.solve):
            with pytest.raises(ValueError, match="load vector has non-finite"):
                use(f)

    def test_load_spec_returning_nan_rejected(self):
        model = cylinder_model()
        with pytest.raises(ValueError, match="load vector has non-finite"):
            model.solve(LoadSpec(volume=lambda X, nu: np.full(3, np.nan)))

    def test_complex_load_vector_rejected_by_every_user(self):
        # the imaginary parts were dropped with one ComplexWarning, so a
        # purely imaginary load solved to x = 0 in one step
        model = cylinder_model()
        x = np.zeros(model.num_dofs)
        f = np.zeros(model.num_dofs, dtype=complex)
        f[np.flatnonzero(model.free)[0]] = 1j
        for use in (lambda f: model.gradient(x, f), lambda f: model.total_energy(x, f),
                    model.solve):
            with pytest.raises(ValueError, match="load vector has complex entries"):
                use(f)

    def test_complex_initial_state_rejected(self):
        model = cylinder_model()
        x0 = np.zeros(model.num_dofs, dtype=complex)
        x0[np.flatnonzero(model.free)[0]] = 1j
        with pytest.raises(ValueError, match="initial state has complex entries"):
            model.solve(x0=x0)

    def test_non_finite_initial_state_rejected(self):
        model = cylinder_model()
        x0 = np.zeros(model.num_dofs)
        x0[np.flatnonzero(model.free)[0]] = np.nan
        with pytest.raises(ValueError, match="initial state has non-finite"):
            model.solve(x0=x0)

    def test_state_of_wrong_length_rejected(self):
        model = cylinder_model()
        p = model.mesh.vertices[4]
        for n in (model.num_dofs - 1, model.num_dofs + 1):
            x = np.zeros(n)
            for evaluate in (model.energies, model.total_energy, model.gradient,
                             model.hessian, lambda x: model.evaluate_displacement(x, p)):
                with pytest.raises(ValueError, match=rf"state of shape \({n},\), "
                                                     rf"expected \({model.num_dofs},\)"):
                    evaluate(x)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, entry):
        # energies, total_energy, gradient and hessian returned non-finite
        # values silently
        model = cylinder_model()
        x = np.zeros(model.num_dofs)
        x[np.flatnonzero(model.free)[0]] = entry
        p = model.mesh.vertices[4]
        for evaluate in (model.energies, model.total_energy, model.gradient, model.hessian,
                         lambda x: model.evaluate_displacement(x, p)):
            with pytest.raises(ValueError, match="state has non-finite entries"):
                evaluate(x)

    def test_complex_state_rejected(self):
        # energies were complex, and gradient and hessian raised numpy's
        # casting error
        model = cylinder_model()
        x = np.zeros(model.num_dofs, dtype=complex)
        x[np.flatnonzero(model.free)[0]] = 1j
        p = model.mesh.vertices[4]
        for evaluate in (model.energies, model.total_energy, model.gradient, model.hessian,
                         lambda x: model.evaluate_displacement(x, p)):
            with pytest.raises(ValueError, match="state has complex entries"):
                evaluate(x)

    def test_initial_state_of_wrong_length_rejected(self):
        model = cylinder_model()
        for n in (model.num_dofs - 1, model.num_dofs + 1):
            with pytest.raises(ValueError, match=rf"expected \({model.num_dofs},\)"):
                model.solve(x0=np.zeros(n))

    @pytest.mark.parametrize("volume", [lambda X, nu: nu[:2], lambda X, nu: 1.0],
                             ids=["two", "scalar"])
    def test_volume_load_of_wrong_shape_rejected(self, volume):
        model = cylinder_model()
        with pytest.raises(ValueError, match=r"volume load .* expected \(3,\)"):
            model.load_vector(LoadSpec(volume=volume))

    def test_volume_load_of_wrong_shape_in_a_later_block_rejected(self, order_4_reference):
        # at the default budget a block of the load's values takes 1,820
        # points of about 144 bytes each
        model, _ = order_4_reference
        points = assembly.BLOCK_BYTES // 144
        bad = points + 5
        assert model._X.size // 3 > bad
        calls = itertools.count()

        def volume(X, nu):
            return nu[:2] if next(calls) == bad else nu

        with pytest.raises(ValueError, match=r"volume load .* expected \(3,\)"):
            model.load_vector(LoadSpec(volume=volume))
        assert next(calls) == points * 2

    def test_edge_moment_of_wrong_shape_rejected(self):
        mesh, chart = make_benchmark_mesh("unibend_cylinder")
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        with pytest.raises(ValueError, match=r"edge moment on 'loaded' .* expected \(2,\)"):
            model.load_vector(LoadSpec(edge_moments={"loaded": lambda X: np.ones(3)}))

    def test_edge_moment_of_wrong_shape_in_a_later_block_rejected(self, monkeypatch):
        mesh, chart = make_benchmark_mesh("unibend_cylinder", 1)
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        block = 3   # points per block, under a budget of their values' bytes
        monkeypatch.setattr(assembly, "BLOCK_BYTES", block * 144)
        bad = block + 1
        calls = itertools.count()

        def moment(X):
            return np.ones(3) if next(calls) == bad else np.ones(2)

        points = itertools.count()
        model.load_vector(LoadSpec(edge_moments={"loaded": lambda X: next(points) * np.ones(2)}))
        assert next(points) > 2 * block
        with pytest.raises(ValueError, match=r"edge moment on 'loaded' .* expected \(2,\)"):
            model.load_vector(LoadSpec(edge_moments={"loaded": moment}))
        assert next(calls) == block * 2

    @pytest.mark.parametrize("load", ["volume", "edge_moment"])
    def test_ragged_per_point_values_rejected(self, load):
        # 3 (or 2) components at every other point, one fewer at the rest
        calls = itertools.count()

        def ragged(value):
            return value if next(calls) % 2 else value[:-1]

        mesh, chart = make_benchmark_mesh("unibend_cylinder")
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        if load == "volume":
            spec, match = LoadSpec(volume=lambda X, nu: ragged(nu)), r"volume load .*\(3,\)"
        else:
            spec = LoadSpec(edge_moments={"loaded": lambda X: ragged(np.ones(2))})
            match = r"edge moment on 'loaded' .*\(2,\)"
        with pytest.raises(ValueError, match=match):
            model.load_vector(spec)

    @pytest.mark.parametrize("load", ["volume", "edge_moment"])
    def test_complex_per_point_values_rejected(self, load, monkeypatch):
        # complex values were cast to their real parts with one ComplexWarning
        # per point, so the load (0, 0, 1j) assembled a zero load vector
        mesh, chart = make_benchmark_mesh("unibend_cylinder", 1)
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        block = 3   # points per block, under a budget of their values' bytes
        monkeypatch.setattr(assembly, "BLOCK_BYTES", block * 144)
        calls = itertools.count()

        def value(real, complex_value):
            return complex_value if next(calls) == 1 else real

        if load == "volume":
            spec = LoadSpec(volume=lambda X, nu: value(nu, np.array([0, 0, 1j])))
            what = "volume load"
        else:
            spec = LoadSpec(edge_moments={"loaded": lambda X: value(np.ones(2),
                                                                    np.array([0, 1j]))})
            what = "edge moment on 'loaded'"
        with pytest.raises(ValueError, match=f"{what} returned complex values"):
            model.load_vector(spec)
        assert next(calls) == block

    def test_volume_load_cannot_write_the_model_points(self):
        # the callable gets rows of the model's points: one that scaled them
        # in place moved the next load vector of an unchanged load by 0.217
        mesh, chart = make_benchmark_mesh("hyperboloid")
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        spec = LoadSpec(volume=lambda X, nu: np.array([X[0], X[1], 0.0]))
        first = model.load_vector(spec)

        def scaling(X, nu):
            X *= 2.0
            return nu

        with pytest.raises(ValueError, match="read-only"):
            model.load_vector(LoadSpec(volume=scaling))
        assert model.load_vector(spec).tobytes() == first.tobytes()

    def test_kept_arrays_are_read_only_but_the_assembled_values(self):
        model = cylinder_model(model="full_green")
        for owner in (model, model._pattern):
            for name, value in vars(owner).items():
                for array in value if isinstance(value, tuple) else (value,):
                    if isinstance(array, np.ndarray):
                        assert not array.flags.writeable, name
        # factor_solve scales the assembled values in place
        assert model.hessian(np.zeros(model.num_dofs)).data.flags.writeable

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

    @pytest.mark.parametrize("length", [1e8, 1e6, 1e4, 1.0, 1e-3, 1e-6, 1e-7, 1e-12])
    def test_scaled_plate_solves_alike(self, length):
        # a well-shaped 2 x 2 plate clamped on one side, t = L/100, under a
        # unit normal pressure: its rotations and its displacements over L do
        # not depend on the length L, the degeneracy tests compare areas with
        # areas, and Newton's backward-error test is scale free at every L
        mesh = rectangle_mesh(2, 2, (0.0, length), (0.0, length), {"left": "clamped"})
        model = ShellModel(mesh, flat3_chart(), MAT, ShellConfig(thickness=length / 100))
        state, iterations = model.solve(LoadSpec(volume=lambda X, nu: nu))
        assert iterations == 1
        u, theta = np.split(state.vector.reshape(5, -1), [3])
        assert np.max(np.abs(theta)) == pytest.approx(176.1199011677, rel=1e-12)
        assert np.max(np.abs(u)) / length == pytest.approx(135.1674825582, rel=1e-12)

    def test_newton_acceptance_rule(self):
        # relative residual first, without reading the tangent; then the
        # backward error |r| / (|H|_inf |x| + |f|), behind a 1e-3 guard
        mesh = rectangle_mesh(2, 2, (0.0, 1.0), (0.0, 1.0), {"left": "clamped"})
        model = ShellModel(mesh, flat3_chart(), MAT, ShellConfig(thickness=0.01))
        H = model.hessian(np.zeros(model.num_dofs))
        x, f = np.ones(model.free.sum()), np.full(model.free.sum(), 2.0)
        bound = BACKWARD_TOL * (norm_inf(H) * np.linalg.norm(x) + np.linalg.norm(f))
        assert shell._newton_converged([1.0, RESIDUAL_TOL], x, f, None)
        assert shell._newton_converged([1e4 * bound, bound], x, f, H)
        assert not shell._newton_converged([1e4 * bound, 1.01 * bound], x, f, H)
        assert not shell._newton_converged([100 * bound, bound], x, f, H)

    @pytest.mark.parametrize("case", ["plate", "hemisphere"])
    def test_free_translation_raises_before_factoring(self, case, monkeypatch):
        # a constant translation (u = c, theta = 0) is in the kernel of every
        # energy term, so a model that leaves a displacement component free
        # everywhere is singular; at one Newton step the unclamped hemisphere
        # reads a relative residual of 7.4e-8 and a backward error of 8.3e-17,
        # which no residual test would reject
        if case == "plate":
            mesh, chart = rectangle_mesh(2, 2, (0.0, 1.0), (0.0, 1.0)), flat3_chart()
            free = "u_x, u_y, u_z"
        else:
            mesh, chart = make_benchmark_mesh("hemisphere")
            mesh = dataclasses.replace(mesh, marker_pairs={
                name: pairs for name, pairs in mesh.marker_pairs.items() if name != "clamped"})
            free = "u_z"
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.01))

        def splu(*args, **kwargs):
            raise AssertionError("a singular model was factored")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        with pytest.raises(SolverError, match=f"no dof of {free} is constrained"):
            model.solve(LoadSpec(volume=lambda X, nu: nu))

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
            t, lam = mesh.locate(p)
            xi = lam @ REF_VERTICES
            t_ref, xi_ref = locate_loop(p)
            if t == t_ref:
                assert np.array_equal(xi, xi_ref)
            else:   # a tie on a shared vertex or edge
                u = model.evaluate_displacement(x, p)
                N = model.basis.eval(np.atleast_2d(xi_ref))[0]
                u_ref = x[model.element_dofs[t_ref, :3 * len(N)]].reshape(3, -1) @ N
                assert np.max(np.abs(u - u_ref)) <= 1e-14 * max(1.0, np.abs(u_ref).max())

    @pytest.mark.parametrize("point", [(100.0, 100.0), (np.nan, 0.5), (np.inf, 0.5),
                                       (0.5, 0.5, 0.0)],
                             ids=["outside", "nan", "inf", "three_coordinates"])
    def test_point_outside_mesh_rejected(self, point):
        # a non-finite point gave triangle 0 with NaN coordinates
        model = cylinder_model()
        with pytest.raises(ValueError, match="parameter point"):
            model.evaluate_displacement(np.zeros(model.num_dofs), point)


class TestWholeMeshMap:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_chart_fails_while_the_model_is_built(self, value):
        # the chart is bad for u > 0.5 only; the error names the chart, not
        # the load that a later solve would find non-finite
        mesh, chart = make_benchmark_mesh("cylinder")

        def phi(p):
            X = chart.phi(p)
            return np.where(np.asarray(p)[..., :1] > 0.5, value, X)

        broken = ChartGeometry("broken_cylinder", 3, phi)
        with pytest.raises(GeometryError, match="broken_cylinder"):
            ShellModel(mesh, broken, MAT, ShellConfig(thickness=0.01, order=2))

    def test_plane_chart_rejected(self):
        mesh, _ = make_benchmark_mesh("cylinder")
        with pytest.raises(ValueError, match="surface chart"):
            ShellModel(mesh, flat_chart(), MAT, ShellConfig(thickness=0.01))

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
            tangent, length = edge_tangent(le)
            pts = edge_point(le, seg.points)
            jb = np.linalg.norm(emap.evaluate(pts).F @ tangent, axis=-1)
            w = seg.weights * (length / 2.0) * jb
            X = lagrange_basis(2).eval(pts) @ emap.control_points
            M = np.array([moment(x) for x in X])
            fe = np.einsum("q,qb,qs->bs", w, M, model.basis.eval(pts))
            ref[model.element_dofs[t, m:]] += fe.ravel()
        assert np.max(np.abs(ref)) > 0
        assert np.max(np.abs(f - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_unknown_edge_moment_marker_rejected(self):
        mesh, chart = make_benchmark_mesh("unibend_cylinder")
        model = ShellModel(mesh, chart, MAT, ShellConfig(thickness=0.1, order=2))
        with pytest.raises(ValueError, match="laoded"):
            model.load_vector(LoadSpec(edge_moments={"laoded": lambda X: np.ones(2)}))
