"""Naghdi-type shell energies with optional strain interpolation.

Unknowns are the three displacement components at the H1 nodes and two
rotation components in the chart covariant basis.  All strain measures are
formed in reference coordinates of each element.  The material law weighs
them with the inverse surface metric A = (F^T F)^{-1} of the geometry
gradient F, which is the isotropic law on the strain in any orthonormal
tangent frame, so physical units are correct on curved charts.

Energy split: W = (t/2) E_mem + (t^3/2) E_bend + (t/2) E_shear - f(u).
The membrane strain may be interpolated element-wise into the symmetric
tensor element space of order k-1, which removes membrane locking; the
shear strain may analogously be interpolated into a tangential-continuous
edge element space.

Element data are arrays with a leading element axis.  One element map
covers the whole mesh and is evaluated once per model, at the energy
quadrature points and at the sampling points of the interpolations.  Both
interpolations, and the edge load, sample on the same reference moment rule
(``interpolation.moment_rule``).  Every strain is a map M from the element
dofs to a strain vector and a block diagonal weight W, so that each energy
is the sum of e . W e over the elements and each element form is M^T W M.
The vector of a reduced strain is its interpolant's coefficients: the dual
mass matrix is geometry free, so the map C from values at the sampling
points to coefficients is the same on every element, built once per model
from a single ``interpolate`` of the identity, and W is the coefficient
mass of the interpolant's shapes at the energy points, one small block per
element.  A strain whose reduction is off is its reference values at the
energy points, weighted point by point.  Energies, gradients and tangents
make no interpolation call.

The Green strain E(u) = B(F)u + sym(grad u^T grad u)/2 is quadratic in the
displacements and C is linear, so the derivative of the Green strain vector
has a closed form in two stored maps: G(U) = Mm + K U, where Mm is the
linearized membrane map (the Green one at rest) and K the element
independent (reduced) second derivative.  The strain itself, (Mm + G(U)) U / 2
in exact arithmetic, is sampled as sym((F + grad u/2)^T grad u) and reduced
as one vector per element: summed after the reduction, its two parts would
cancel on rigid motions only to the rounding of the reduced maps.  The
tangent is G^T W G plus the geometric term (W e) . K.  A Newton iterate
evaluates (e, G) once and forms from it both its residual and, when another
step is needed, its tangent.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import SolverError, SparsityPattern, assemble, factor_solve
from .elements import BARY_GRADS, REF_VERTICES, lagrange_basis, pseudo_inverse
from .geometry import ElementMap
from .interpolation import get_operator, get_shear_space, moment_rule
from .quadrature import triangle_rule

__all__ = [
    "MaterialParams",
    "ShellConfig",
    "ShellState",
    "LoadSpec",
    "ShellModel",
]

NEWTON_MAX_ITER = 20
NEWTON_REL_TOL = 1e-10
NEWTON_ABS_TOL = 1e-14
SHEAR_CORRECTION = 5.0 / 6.0
SHEAR_STABILIZATION = 0.002


@dataclass(frozen=True)
class MaterialParams:
    youngs_modulus: float
    poisson_ratio: float

    def __post_init__(self):
        if not 0.0 < self.youngs_modulus < np.inf:
            raise ValueError("Young's modulus must be positive and finite")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")


@dataclass
class ShellConfig:
    thickness: float
    order: int = 2
    geometry_order: int = None
    membrane_reduction: str = "none"      # none | regge
    shear_reduction: str = "edge_tangential"  # none | edge_tangential
    model: str = "linearized_membrane"    # linearized_membrane | full_green

    def __setattr__(self, name, value):
        # checked on every assignment: solves rescale a built model's thickness
        if name == "thickness" and not 0.0 < value < np.inf:
            raise ValueError("thickness must be positive and finite")
        super().__setattr__(name, value)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("displacement order must be >= 1")
        if self.geometry_order is None:
            self.geometry_order = self.order
        if self.membrane_reduction not in ("none", "regge"):
            raise ValueError(f"unknown membrane reduction '{self.membrane_reduction}'")
        if self.shear_reduction not in ("none", "edge_tangential"):
            raise ValueError(f"unknown shear reduction '{self.shear_reduction}'")
        if self.model not in ("linearized_membrane", "full_green"):
            raise ValueError(f"unknown model '{self.model}'")


@dataclass
class LoadSpec:
    """Closed-form loads: a surface force density P(x, nu) and optional
    generalized edge moments (covariant rotation work density) per marker."""

    volume: object = None               # callable (X, nu) -> (3,)
    edge_moments: dict = field(default_factory=dict)  # marker -> callable (X,) -> (2,)


class ShellState:
    """Global coefficient vector of a model.  A state returned by ``solve``
    also holds the free-dof residual norm of every Newton iterate, the first
    at the initial guess."""

    def __init__(self, vector, residual_history=()):
        self.vector = np.asarray(vector, float)
        self.residual_history = np.array(residual_history, dtype=float)


def _material_weights(F, wJ, material):
    """Weights wJ C(A) (..., 3, 3) of the membrane and bending strains and
    wJ kG A (..., 2, 2) of the shear at surface gradients F (..., 3, 2), for
    the inverse metric A = (F^T F)^{-1} = [[a, d], [d, b]].  The law
    e . C(A) e = E/(1-nu^2) (nu tr(A e)^2 + (1-nu) tr(A e A e)) on Voigt
    (11, 22, 12) strains e is the isotropic one in any orthonormal frame."""
    E, nu = material.youngs_modulus, material.poisson_ratio
    f0, f1 = F[..., 0], F[..., 1]
    g00, g11, g01 = (np.sum(u * v, axis=-1) for u, v in ((f0, f0), (f1, f1), (f0, f1)))
    det = g00 * g11 - g01 * g01
    a, b, d = g11 / det, g00 / det, -g01 / det
    m = nu * a * b + (1.0 - nu) * d * d
    C = np.stack([a * a, m, 2.0 * a * d, m, b * b, 2.0 * b * d, 2.0 * a * d, 2.0 * b * d,
                  2.0 * (1.0 - nu) * a * b + 2.0 * (1.0 + nu) * d * d], axis=-1)
    kG = SHEAR_CORRECTION * E / (2.0 * (1.0 + nu))
    Ws = (kG * wJ)[..., None] * np.stack([a, d, d, b], axis=-1)
    W = (E / (1.0 - nu * nu) * wJ)[..., None] * C
    return W.reshape(wJ.shape + (3, 3)), Ws.reshape(wJ.shape + (2, 2))


def _strain_B(F, dN):
    """Covariant strain sym(F^T grad u) per dof of a vector field u.

    F (..., d, 2) and shape gradients dN (..., n, 2) broadcast over the
    leading axes; returns (..., 3, d*n), Voigt rows and dofs ordered
    (component, shape).
    """
    a = F[..., :, None, :]
    b = dN[..., None, :, :]
    B = np.stack([a[..., 0] * b[..., 0], a[..., 1] * b[..., 1],
                  0.5 * (a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0])], axis=-3)
    return B.reshape(B.shape[:-2] + (-1,))


def _shear_B(nu, A, N, dN):
    """Reference-covariant shear strain per dof, (element, point, 2, 5n).

    gamma_xi = nu . grad_xi u - A^T theta with chart-covariant theta.
    """
    nT, P, n = len(nu), len(N), N.shape[-1]
    # (element, point, xi, field, shape): nu_c dN_s/dxi on the displacements,
    # -A_b,xi N_s on the rotations
    B = np.empty((nT, P, 2, 5, n))
    np.multiply(nu[:, :, None, :, None], np.swapaxes(dN, 1, 2)[None, :, :, None],
                out=B[..., :3, :])
    np.multiply(np.swapaxes(A, 1, 2)[:, None, ..., None], -N[:, None, None],
                out=B[..., 3:, :])
    return B.reshape(nT, P, 2, -1)


def _weighted(W, V):
    """Block-diagonal weights W (nT, nb, b, b) applied to strain vectors V
    (nT, nb*b) or to the columns of maps V (nT, nb*b, m)."""
    nT, nb, b, _ = W.shape
    return (W @ V.reshape(nT, nb, b, -1)).reshape(V.shape)


def _integrals(W, e):
    """Per-element energy integrals e . W e of strain vectors e (nT, r)."""
    return np.einsum("tr,tr->t", e, _weighted(W, e))


def _gram(M, W):
    """Element forms M^T W M of strain maps M (nT, r, m), weights W."""
    return np.swapaxes(M, 1, 2) @ _weighted(W, M)


def _reduction(space, shapes, weights):
    """Coefficient map C (n, P*c) and shape values S (nq*c, n) of a space's
    interpolation: C takes c-component values V at the P points
    ``space.points`` to the interpolant's n coefficients, and S C V is the
    interpolant at the nq energy points, where the space's shapes (nq, n, c)
    were taken.  The dual mass matrix is geometry free, so C is the same on
    every element; it is one interpolation of the identity.  The basis is
    orthonormal under the reference energy quadrature ``weights``: in the
    space's own basis the coefficient masses of the order-4 cylinder
    reference have condition numbers up to 4.7e4, in this one up to 165."""
    _, n, c = shapes.shape
    P = len(space.points)
    C = space.interpolate(np.eye(P * c).reshape(P, c, P * c))
    root = np.sqrt(np.repeat(weights, c))[:, None]
    Q, R = np.linalg.qr(root * np.swapaxes(shapes, 1, 2).reshape(-1, n))
    return R @ C, Q / root


def _strain_map(B, Wq, reduction):
    """Map M (nT, r, m) and weight W (nT, nb, b, b) of a strain with point
    maps B (nT, P, c, m) and point weights Wq (nT, nq, c, c) at the energy
    points.

    Without a reduction, B was sampled at the energy points: the strain
    vector is the reference strain there and W is Wq.  With one, (C, S) of
    ``_reduction``, B was sampled at the space's points: the vector is the
    interpolant's coefficients C B, and W the coefficient mass
    sum_q S_q^T Wq S_q, one block per element."""
    nT, m = len(B), B.shape[-1]
    if reduction is None:
        return B.reshape(nT, -1, m), Wq
    C, S = reduction
    W = _gram(np.broadcast_to(S, (nT,) + S.shape), Wq)
    return C @ B.reshape(nT, -1, m), W[:, None]


def _per_point(values, c, what):
    """Array (n, c) of the values of a per-point load callable."""
    V = np.array(values, dtype=float)
    if len(V) and V.shape[1:] != (c,):
        raise ValueError(f"{what} returned values of shape {V.shape[1:]} per point, "
                         f"expected ({c},)")
    return V


def _newton_converged(history):
    """Whether Newton accepts its last iterate, given the free residual
    norms of all iterates, the first at the initial guess."""
    r0, rnorm = history[0], history[-1]
    if rnorm <= NEWTON_ABS_TOL or (r0 > 0 and rnorm <= NEWTON_REL_TOL * r0):
        return True
    # severely ill conditioned thin cases bottom out at the floating point
    # noise floor of the gradient before reaching the relative tolerance;
    # accept stagnation at a small residual
    return len(history) > 2 and rnorm > 0.5 * history[-2] and rnorm <= 1e-6 * r0


class ShellModel:
    """Discretized shell on one chart mesh: energies, derivatives, solver."""

    def __init__(self, mesh, chart, material, config):
        if chart.ambient_dim != 3:
            raise ValueError("shell model requires a surface chart (use flat3_chart "
                             "for plates)")
        self.mesh = mesh
        self.chart = chart
        self.material = material
        self.config = config
        k = config.order
        g = config.geometry_order
        self.basis = lagrange_basis(k)
        self._build_dof_map()

        self.deg_energy = 4 * k + 2 * (g - 1)
        self.deg_dual = 2 * k + 2 * (g - 1) + 2
        self._rule = triangle_rule(self.deg_energy)
        # sampling points of both reductions and of the edge load
        self._moments = moment_rule(k, self.deg_dual)
        if config.membrane_reduction == "regge":
            self.operator = get_operator(k - 1, self.deg_dual)
        else:
            self.operator = None
        if config.shear_reduction == "edge_tangential":
            self.shear_space = get_shear_space(k - 1, self.deg_dual)
        else:
            self.shear_space = None

        self._build_element_arrays()
        self._apply_boundary_conditions()
        # the dof map and the constraints do not depend on the thickness or
        # the state, so every tangent of this model has the same sparsity
        self._pattern = SparsityPattern(self.num_scalar_dofs, self.element_scalar_dofs,
                                        self.free, fields=5)
        self.element_dofs = self._pattern.element_dofs

    # ------------------------------------------------------------------
    # dof management
    # ------------------------------------------------------------------

    def _build_dof_map(self):
        """Scalar dofs per element (nT, n).  Each of the five fields
        (u_x, u_y, u_z, th_1, th_2) has a dof at every scalar dof: field f of
        scalar dof a is dof f * num_scalar_dofs + a, and the pattern's
        ``element_dofs`` (nT, 5n) list them field by field."""
        mesh, k = self.mesh, self.config.order
        n_edge_nodes = k - 1
        n_int = (k - 1) * (k - 2) // 2
        nV, nE, nT = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
        self.num_scalar_dofs = nV + nE * n_edge_nodes + nT * n_int
        self.num_dofs = 5 * self.num_scalar_dofs

        edge_nodes = nV + np.arange(nE)[:, None] * n_edge_nodes + np.arange(n_edge_nodes)
        # scalar dofs of every mesh edge (nE, k+1): end vertices, then nodes
        self._edge_scalar_dofs = np.hstack([mesh.edges, edge_nodes])
        edge = edge_nodes[mesh.tri_edges]
        flip = mesh.tri_edge_signs < 0
        edge[flip] = edge[flip][:, ::-1]
        interior = nV + nE * n_edge_nodes + np.arange(nT)[:, None] * n_int + np.arange(n_int)
        self.element_scalar_dofs = np.hstack(
            [mesh.triangles, edge.reshape(nT, -1), interior]).astype(int)

    def _apply_boundary_conditions(self):
        mesh = self.mesh
        fixed = np.zeros((5, self.num_scalar_dofs), dtype=bool)  # (field, scalar dof)
        for name in mesh.boundary_markers:
            eids = mesh.edges_with_marker(name)
            if name == "clamped":
                fixed[:, self._edge_scalar_dofs[eids]] = True
            elif name.startswith("sym:"):
                axis = "xyz".index(name.split(":")[1])
                t, le = np.nonzero(np.isin(mesh.tri_edges, eids))
                dofs = self._edge_scalar_dofs[mesh.tri_edges[t, le]]
                # rotation component whose contravariant direction crosses
                # the symmetry plane
                alpha = np.argmax(np.abs(self._edge_dual[t, le, :, axis]), axis=1)
                fixed[axis, dofs] = True
                fixed[3 + alpha[:, None], dofs] = True
        self.free = ~fixed.ravel()

    # ------------------------------------------------------------------
    # element arrays: geometry, strain maps and forms
    # ------------------------------------------------------------------

    def _build_element_arrays(self):
        """Geometry tables at the energy points, the strain maps and weights,
        and the element forms.

        The element map of the whole mesh is evaluated once, on the energy
        quadrature points followed by the points of the moment rule that
        both interpolations sample.  Every strain is held as a map M
        (nT, r, m) from the element dofs to a strain vector and a block
        diagonal weight W whose quadratic form is the strain's energy
        integral (see ``_strain_map``):

        - a reduced strain (the Regge membrane, the edge-tangential shear) is
          sampled at the moment rule, and its vector is the interpolant's
          n coefficients; W is one n x n coefficient mass per element;
        - an unreduced strain (the bending, and the membrane or shear when
          its reduction is off) is the reference strain at the energy
          points; W has one block per point from ``_material_weights``.

        Mm acts on the displacements (3n dofs), Mb on the rotations (2n) and
        Ms on the full element vector (5n).  No (element, energy point) map
        of a reduced strain is formed.  Energies are evaluated from M and W, so
        states in the strain kernel give energies at squared round-off level.
        The forms Am, Ab, As = M^T W M are the quadratic membrane, bending and
        shear element matrices without thickness factors.
        """
        mesh, rule, op, ss = self.mesh, self._rule, self.operator, self.shear_space
        g = self.config.geometry_order
        nT, nq = mesh.num_triangles, len(rule.points)
        points = np.vstack([rule.points, self._moments.points])
        self.map = ElementMap(mesh, self.chart, np.arange(nT), g)
        ev = self.map.evaluate(points)
        F, nu, N, dN = ev.F, ev.nu, self.basis.eval(points), self.basis.grad(points)

        self._wJ = rule.weights * ev.J[:, :nq]
        self._N, self._nu = N[:nq], nu[:, :nq]
        self._X = lagrange_basis(g).eval(rule.points) @ self.map.control_points
        Wq, Wq_shear = _material_weights(F[:, :nq], self._wJ, self.material)
        verts = mesh.vertices[mesh.triangles]
        # affine reference -> chart-parameter Jacobian; rotation dofs are
        # chart-covariant, strains are formed in reference coordinates
        A = np.swapaxes(verts, 1, 2) @ BARY_GRADS
        sides = verts[:, [1, 2, 2]] - verts[:, [0, 0, 1]]
        self.h2 = np.max(np.sum(sides * sides, axis=-1), axis=1)

        # a reduced strain is sampled at the moment rule, an unreduced one
        # at the energy points
        sm = slice(nq) if op is None else slice(nq, None)
        regge = None if op is None else _reduction(op, op.basis.eval(rule.points),
                                                   rule.weights)
        # the linearized membrane map is the Green strain derivative at rest
        self._Mm, self._Wm = _strain_map(_strain_B(F[:, sm], dN[sm]), Wq, regge)
        if self.config.model == "full_green":
            # second derivative of the Green strain vector, the (reduced)
            # sym(grad N_i^T grad N_j) per pair of shapes; it does not
            # depend on the element or the state
            dNs, n = dN[sm], self.basis.num_shapes
            K = _strain_B(dNs, dNs).reshape(-1, n * n)
            self._Cm = None if regge is None else regge[0]
            self._K = (K if regge is None else self._Cm @ K).reshape(-1, n, n)
            self._green_tables = (F[:, sm], dNs)
        self._Mb = _strain_B(A[:, None], dN[:nq]).reshape(nT, -1, 2 * self.basis.num_shapes)
        self._Wb = Wq
        sg = slice(nq) if ss is None else slice(nq, None)
        shear = None if ss is None else _reduction(ss, ss.shapes(rule.points), rule.weights)
        self._Ms, self._Ws = _strain_map(_shear_B(nu[:, sg], A, N[sg], dN[sg]), Wq_shear,
                                         shear)

        self._Am = _gram(self._Mm, self._Wm)
        self._Ab = _gram(self._Mb, self._Wb)
        self._As = _gram(self._Ms, self._Ws)

        # edge Jacobians of the edge load: the edge points of the moment
        # rule are its first rows, one block per local edge
        mr = self._moments
        ne = mr.edge_points.shape[1]
        Fe = F[:, nq:nq + 3 * ne].reshape(nT, 3, ne, 3, 2)
        self._edge_Jb = np.linalg.norm((Fe @ mr.tangents[:, None, :, None])[..., 0], axis=-1)
        # chart-contravariant basis on each local edge at its mean gradient,
        # pinv(F A^-1) = A pinv(F): it picks the rotation fixed on sym: edges
        self._edge_dual = A[:, None] @ pseudo_inverse(Fe.mean(axis=2))

    # ------------------------------------------------------------------
    # energies
    # ------------------------------------------------------------------

    def _local(self, x):
        """Element vectors (nT, 5n) of a global coefficient vector."""
        return np.asarray(x)[self.element_dofs]

    def _green_strain(self, U):
        """Green membrane strain vector (nT, r) of the element displacements
        U (nT, 3n).  The strain is sampled in the factored form
        sym((F + grad u / 2)^T grad u), so that rigid motions cancel before
        the reduction, and one product with C takes it to its coefficients."""
        F, dN = self._green_tables
        nT = len(U)
        gu = U.reshape(nT, 1, 3, -1) @ dN
        A = np.swapaxes(F + 0.5 * gu, -1, -2) @ gu
        E = np.stack([A[..., 0, 0], A[..., 1, 1], 0.5 * (A[..., 0, 1] + A[..., 1, 0])], -1)
        E = E.reshape(nT, -1)
        return E if self._Cm is None else E @ self._Cm.T

    def _green_membrane(self, U):
        """Green membrane strain vector e (nT, r) and its derivative G
        (nT, r, 3n) in the element displacements U (nT, 3n).  G = Mm + K U
        in closed form, with K U one product of U against K, which is
        symmetric in its two shapes."""
        nT, m = U.shape
        n = m // 3
        KU = (U.reshape(-1, n) @ self._K.reshape(-1, n).T).reshape(nT, 3, -1, n)
        G = self._Mm + np.moveaxis(KU, 1, 2).reshape(self._Mm.shape)
        return self._green_strain(U), G

    def membrane_energy(self, x):
        """(t/2) E_mem at a coefficient vector."""
        m = 3 * self.basis.num_shapes
        U = self._local(x)[:, :m]
        if self.config.model == "linearized_membrane":
            e = np.einsum("tri,ti->tr", self._Mm, U)
        else:
            e = self._green_strain(U)
        return 0.5 * self.config.thickness * _integrals(self._Wm, e).sum()

    def bending_energy(self, x):
        """(t^3/2) E_bend at a coefficient vector."""
        m = 3 * self.basis.num_shapes
        e = np.einsum("tri,ti->tr", self._Mb, self._local(x)[:, m:])
        return 0.5 * self.config.thickness ** 3 * _integrals(self._Wb, e).sum()

    def _shear_weights(self):
        """Thickness weights of the element shear energies, (nT,).

        With the edge-tangential reduction the weight is the stabilized
        t^3/(t^2 + c h^2), which matches t as the mesh resolves the shear
        scale and removes the residual coarse-mesh shear stiffness that would
        otherwise inhibit bending-dominated states.  Without reduction the
        plain Naghdi weight t is kept."""
        thick = self.config.thickness
        if self.shear_space is None:
            return np.full(len(self.h2), thick)
        return thick ** 3 / (thick ** 2 + SHEAR_STABILIZATION * self.h2)

    def shear_energy(self, x):
        """Weighted shear energy at a coefficient vector."""
        g = np.einsum("tri,ti->tr", self._Ms, self._local(x))
        return 0.5 * self._shear_weights() @ _integrals(self._Ws, g)

    def total_energy(self, x, load_vector=None):
        W = self.membrane_energy(x) + self.bending_energy(x) + self.shear_energy(x)
        if load_vector is not None:
            W -= load_vector @ x
        return W

    # ------------------------------------------------------------------
    # derivatives
    # ------------------------------------------------------------------

    def _membrane_state(self, X):
        """Green membrane (e, G) at element vectors X (nT, 5n), or None for
        the linearized model, whose membrane forms are stored."""
        if self.config.model == "linearized_membrane":
            return None
        return self._green_membrane(X[:, :3 * self.basis.num_shapes])

    def gradient(self, x, load_vector=None, *, membrane=None):
        """Energy gradient at x, less the load vector if one is given.
        ``membrane`` is ``_membrane_state`` at x when the caller has it."""
        thick = self.config.thickness
        m = 3 * self.basis.num_shapes
        X = self._local(x)
        if membrane is None:
            membrane = self._membrane_state(X)
        g = self._shear_weights()[:, None] * np.einsum("tij,tj->ti", self._As, X)
        g[:, m:] += thick ** 3 * np.einsum("tij,tj->ti", self._Ab, X[:, m:])
        if membrane is None:
            g[:, :m] += thick * np.einsum("tij,tj->ti", self._Am, X[:, :m])
        else:
            e, G = membrane
            g[:, :m] += thick * (_weighted(self._Wm, e)[:, None] @ G)[:, 0]
        grad = np.bincount(self.element_dofs.ravel(), g.ravel(), minlength=self.num_dofs)
        if load_vector is not None:
            grad -= load_vector
        return grad

    def hessian(self, x, *, membrane=None):
        """Assembled tangent as a sparse matrix with constrained dofs masked.
        ``membrane`` is ``_membrane_state`` at x when the caller has it."""
        thick = self.config.thickness
        n = self.basis.num_shapes
        m = 3 * n
        if membrane is None:
            membrane = self._membrane_state(self._local(x))
        H = self._shear_weights()[:, None, None] * self._As
        H[:, m:, m:] += thick ** 3 * self._Ab
        if membrane is None:
            H[:, :m, :m] += thick * self._Am
        else:
            # material term G^T W G plus the geometric term: the weighted
            # strain W e against the second derivative K of the strain, which
            # is the same for the three displacement components
            e, G = membrane
            Hg = (_weighted(self._Wm, e) @ self._K.reshape(e.shape[1], -1)).reshape(-1, n, n)
            Hm = _gram(G, self._Wm)
            for c in range(0, m, n):
                Hm[:, c:c + n, c:c + n] += Hg
            H[:, :m, :m] += thick * Hm
        return assemble(self._pattern, H)

    # ------------------------------------------------------------------
    # loads and solve
    # ------------------------------------------------------------------

    def load_vector(self, loads):
        """Assemble the external work functional f(u) of a load spec."""
        f = np.zeros(self.num_dofs)
        if loads.volume is not None:
            P = _per_point([loads.volume(X, nu) for X, nu in
                            zip(self._X.reshape(-1, 3), self._nu.reshape(-1, 3))],
                           3, "volume load").reshape(self._X.shape)
            fe = np.swapaxes(self._wJ[..., None] * P, 1, 2) @ self._N
            m = 3 * self.basis.num_shapes
            f += np.bincount(self.element_dofs[:, :m].ravel(), fe.ravel(),
                             minlength=self.num_dofs)
        for marker, moment in loads.edge_moments.items():
            if marker not in self.mesh.boundary_markers:
                raise ValueError(f"edge moment on unknown boundary marker '{marker}'")
            self._add_edge_moments(f, marker, moment)
        return f

    def _add_edge_moments(self, f, marker, moment):
        """Add the work of an edge moment density on the marked edges,
        batched over the marked (triangle, local edge) pairs."""
        m = 3 * self.basis.num_shapes
        mr = self._moments
        nq = mr.edge_points.shape[1]
        t, le = np.nonzero(np.isin(self.mesh.tri_edges, self.mesh.edges_with_marker(marker)))
        pts = mr.edge_points.reshape(-1, 2)
        rows = le[:, None] * nq + np.arange(nq)  # rows of pts on each pair's edge
        # the Legendre moment of degree 0 is the plain edge quadrature
        w = mr.edge_weights[le, 0] * self._edge_Jb[t, le]
        geo = lagrange_basis(self.config.geometry_order).eval(pts)
        X = geo[rows] @ self.map.control_points[t]
        M = _per_point([moment(x) for x in X.reshape(-1, 3)], 2,
                       f"edge moment on '{marker}'").reshape(len(t), nq, 2)
        fe = np.einsum("pq,pqb,pqs->pbs", w, M, self.basis.eval(pts)[rows])
        np.add.at(f, self.element_dofs[t, m:], fe.reshape(len(t), -1))
        return f

    def solve(self, loads=None, x0=None):
        """Newton iteration on the energy gradient.

        ``loads`` is a ``LoadSpec`` or an assembled load vector.  Returns
        (state, iterations); the state holds the residual history.  For the
        quadratic linearized model the first step is exact."""
        if loads is None:
            f = np.zeros(self.num_dofs)
        elif isinstance(loads, LoadSpec):
            f = self.load_vector(loads)
        else:
            f = np.asarray(loads, dtype=float)
            if f.shape != (self.num_dofs,):
                raise ValueError(f"load vector of shape {f.shape}, "
                                 f"expected ({self.num_dofs},)")
        if not np.all(np.isfinite(f)):
            raise ValueError("load vector has non-finite entries")
        x = np.zeros(self.num_dofs) if x0 is None else np.array(x0, dtype=float)
        if x.shape != (self.num_dofs,):
            raise ValueError(f"initial state of shape {x.shape}, expected ({self.num_dofs},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("initial state has non-finite entries")
        x[~self.free] = 0.0
        history = []
        for iterations in range(NEWTON_MAX_ITER + 1):
            # one membrane evaluation per iterate serves the residual and the
            # tangent
            membrane = self._membrane_state(self._local(x))
            r = self.gradient(x, f, membrane=membrane)
            history.append(np.linalg.norm(r[self.free]))
            if iterations > 0 and _newton_converged(history):
                return ShellState(x, history), iterations
            if iterations < NEWTON_MAX_ITER:
                x = x + factor_solve(self.hessian(x, membrane=membrane), -r)
        raise SolverError(
            f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
            f"(last residual {history[-1]:.3e}, initial {history[0]:.3e})"
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def locate(self, param_point):
        """Triangle index and reference coordinates of a parameter point.

        The point belongs to the triangle whose smallest barycentric
        coordinate is largest (the first such triangle at a tie)."""
        p = np.asarray(param_point, dtype=float)
        verts = self.mesh.vertices[self.mesh.triangles]
        Amat = np.concatenate([np.swapaxes(verts, 1, 2),
                               np.ones((len(verts), 1, 3))], axis=1)
        rhs = np.broadcast_to(np.append(p, 1.0), (len(verts), 3))
        lam = np.linalg.solve(Amat, rhs[..., None])[..., 0]
        margin = lam.min(axis=1)
        t = int(np.argmax(margin))
        if margin[t] < -1e-8:
            raise ValueError(f"parameter point {p} outside the mesh")
        return t, lam[t] @ REF_VERTICES

    def evaluate_displacement(self, x, param_point):
        """Displacement vector of a state at a parameter-space point."""
        t, xi = self.locate(param_point)
        N = self.basis.eval(np.atleast_2d(xi))[0]
        u = np.asarray(x)[self.element_dofs[t, : 3 * len(N)]]
        return u.reshape(3, -1) @ N
