"""Naghdi-type shell energies with optional strain interpolation.

Unknowns are the three displacement components at the H1 nodes and two
rotation components in the chart covariant basis.  All strain measures are
formed in reference coordinates of each element.  The material law weighs
them with the inverse surface metric A = (F^T F)^{-1} of the geometry
gradient F, which is the isotropic law on the strain in any orthonormal
tangent frame, so physical units are correct on curved charts.

The energy is three terms less the load work f(u):

    (t/2) m(u) + (t^3/2) b(theta) + (s/2) g(u, theta) - f(u),

with m, b and g the membrane, bending and shear strain energies under
the material law of unit thickness (E/(1-nu^2) on the membrane and the
bending strains, kG = (5/6) E/(2(1+nu)) on the shear), and the shear
factor s = t or, with the shear reduction, the stabilized
t^3/(t^2 + c h^2).  The bending weighs t^3, where the Naghdi shell weighs
t^3/12: every bending stiffness is twelve times the Naghdi one.

All three terms are one kind.  A term is a strain vector e of some
element dofs, its derivative G, a block diagonal weight W and a thickness
factor per element.  Its energy is (factor/2) sum_T e . W e, its element
gradient factor G^T W e and its element tangent factor G^T W G, formed
from G and W when a tangent is assembled.  The energies, the gradient and
the tangent are each one loop over the terms, the tangent one block of
elements at a time.  The membrane strain may be interpolated element-wise
into the symmetric tensor element space of order k-1, which removes
membrane locking; the shear strain may analogously be interpolated into a
tangential-continuous edge element space.  An interpolation only changes
a term's strain map and weight.

Element data are arrays with a leading element axis.  One element map
covers the whole mesh and is evaluated once per model, at the energy
quadrature points and at the sampling points of the interpolations.  Both
interpolations, and the edge load, sample on the same reference moment rule
(``interpolation.moment_rule``).  The vector of a reduced strain is its
interpolant's coefficients: the dual mass matrix is geometry free, so the
map C from values at the sampling points to coefficients is the same on
every element, built once per model from a single ``interpolate`` of the
identity, and W is the coefficient mass of the interpolant's shapes at the
energy points, one small block per element.  A strain whose reduction is
off is its reference values at the energy points, weighted point by point.
Energies, gradients and tangents make no interpolation call.

No (element, point, dof) map of a reduced strain is formed: a reduced map
or coefficient mass is one product of the per-point geometry or weights
with a table of C and the reference shapes, built once per model.  The
bending strain is linear in the element rotations through element
independent reference shapes, so it is held the same way: its vector is
the rotations, G the identity and W their coefficient mass.

The Green strain E(u) = B(F)u + sym(grad u^T grad u)/2 is quadratic in the
displacements and C is linear, so its derivative has a closed form in two
stored maps: G(U) = Mm + K U, where Mm is the linearized membrane map (the
Green one at rest) and K the element independent (reduced) second
derivative, and its tangent adds the geometric term (W e) . K.  The strain
itself, (Mm + G(U)) U / 2 in exact arithmetic, is sampled as
sym((F + grad u/2)^T grad u) and reduced as one vector per element: summed
after the reduction, its two parts would cancel on rigid motions only to
the rounding of the reduced maps.

Loads are per-point callables, called at the points and normals of the
model's one element-map evaluation; ``LoadSpec`` states their contract.
"""

import numbers
import operator
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from .assembly import (BACKWARD_TOL, RESIDUAL_TOL, SolverError, SparsityPattern, assemble,
                       factor_solve, item_blocks, norm_inf, read_only)
from .elements import BARY_GRADS, REF_VERTICES, lagrange_basis, pseudo_inverse, sym_dyad
from .geometry import ElementMap
from .interpolation import get_operator, get_shear_space, moment_rule
from .mesh import MeshError
from .quadrature import triangle_rule

__all__ = [
    "MaterialParams",
    "ShellConfig",
    "ShellState",
    "LoadSpec",
    "ShellModel",
]

NEWTON_MAX_ITER = 20
SHEAR_CORRECTION = 5.0 / 6.0
SHEAR_STABILIZATION = 0.002


@dataclass(frozen=True)
class MaterialParams:
    youngs_modulus: float
    poisson_ratio: float

    def __post_init__(self):
        if not (_is_real(self.youngs_modulus) and 0.0 < self.youngs_modulus < np.inf):
            raise ValueError("Young's modulus must be a positive finite number")
        if not (_is_real(self.poisson_ratio) and 0.0 <= self.poisson_ratio < 0.5):
            raise ValueError("Poisson ratio must be a number in [0, 0.5)")


def _is_integer_at_least(value, least):
    """Whether a value is an integer (``operator.index`` takes it), not a
    bool, >= least."""
    try:
        return not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        return False


def _is_real(value):
    """Whether a value is a real scalar, a NumPy one included, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class ShellConfig:
    thickness: float
    order: int = 2
    geometry_order: int = None            # None: the displacement order
    membrane_reduction: str = "none"      # none | regge
    shear_reduction: str = "edge_tangential"  # none | edge_tangential
    model: str = "linearized_membrane"    # linearized_membrane | full_green

    def __setattr__(self, name, value):
        # solves rescale a built model's thickness, so it alone may change
        # and is checked on every assignment; a model has built its spaces,
        # maps and tables from the other fields
        if name == "thickness":
            if not (_is_real(value) and 0.0 < value < np.inf):
                raise ValueError("thickness must be a positive finite number")
        elif name in vars(self):
            raise FrozenInstanceError(f"cannot assign to field '{name}': only the "
                                      f"thickness of a shell config may change")
        super().__setattr__(name, value)

    def __post_init__(self):
        if not _is_integer_at_least(self.order, 1):
            raise ValueError("displacement order must be an integer >= 1")
        if self.geometry_order is not None and not _is_integer_at_least(self.geometry_order, 1):
            raise ValueError("geometry order must be an integer >= 1")
        if self.membrane_reduction not in ("none", "regge"):
            raise ValueError(f"unknown membrane reduction '{self.membrane_reduction}'")
        if self.shear_reduction not in ("none", "edge_tangential"):
            raise ValueError(f"unknown shear reduction '{self.shear_reduction}'")
        if self.model not in ("linearized_membrane", "full_green"):
            raise ValueError(f"unknown model '{self.model}'")


@dataclass
class LoadSpec:
    """Closed-form loads: a surface force density and optional generalized
    edge moments (covariant rotation work density) per boundary marker.

    ``volume(X, nu)`` takes a point X (3,) and the unit normal nu (3,)
    there and returns the force density (3,); each ``edge_moments[marker](X)``
    returns the moment density (2,).  ``ShellModel.load_vector`` calls them
    once per quadrature point, at the read-only points (``MapEvaluation.X``)
    and normals of the model's one element-map evaluation, in blocks of
    points whose values, array objects of about 144 bytes each, take at most
    ``assembly.BLOCK_BYTES``.  A block whose values form no array, are
    complex or have another shape per point raises ``ValueError`` naming the
    load ("volume load", "edge moment on 'loaded'") and the expected shape,
    e.g. "volume load returned values of shape (2,) per point, expected
    (3,)", before the next block is called."""

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
    B = np.moveaxis(sym_dyad(F[..., :, None, :], dN[..., None, :, :]), -1, -3)
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


def _gram(M, W):
    """Element forms M^T W M of strain maps M (nT, r, m), weights W."""
    return np.swapaxes(M, 1, 2) @ _weighted(W, M)


def _reference_gram(S, W):
    """Element forms sum_q S_q^T W_tq S_q (nT, r, r) of an element independent
    map S (nq*c, r) under symmetric point weights W (nT, nq, c, c): one
    product of the weight entry W[..., v, w] (nT, nq) with the table of
    S_v (x) S_w (nq, r*r) per entry v <= w."""
    nT, nq, c, _ = W.shape
    S = S.reshape(nq, c, -1)
    r = S.shape[-1]
    out = np.zeros((nT, r * r))
    for v in range(c):
        for w in range(v, c):
            SS = S[:, v, :, None] * S[:, w, None, :]
            if w != v:
                SS = SS + np.swapaxes(SS, 1, 2)
            out += W[:, :, v, w] @ SS.reshape(nq, r * r)
    return out.reshape(nT, r, r)


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


def _table_map(G, T, r):
    """Strain map (nT, r, c*n) of per-element geometry G (nT, c, ...) times an
    element independent table T (K, r*n), G flattened to (nT*c, K): the
    coefficient r of field (c, shape) is sum_k G[:, c, k] T[k, (r, shape)]."""
    nT, c = G.shape[:2]
    M = (G.reshape(nT * c, len(T)) @ T).reshape(nT, c, r, -1)
    return np.swapaxes(M, 1, 2).reshape(nT, r, -1)


def _reduced_membrane_map(C, F, dN):
    """Coefficients C (r, P*3) of the strain sym(F^T grad u) sampled at the P
    points per displacement dof, (nT, r, 3n), for gradients F (nT, P, 3, 2)
    and shape gradients dN (P, n, 2) there.  The strain of the dof (c, s)
    is sum_i F_ci B_ref(e_i N_s), B_ref the reference strain
    ``_strain_B(I, dN)``, so the map is one product of F with the element
    independent table Y[(p, i), (r, s)] = C[r, (p, v)] B_ref[p, v, (i, s)]."""
    P, n = dN.shape[:2]
    r = len(C)
    Bref = _strain_B(np.eye(2), dN).reshape(P, 3, 2, n)
    Y = np.einsum("rpv,pvis->pirs", C.reshape(r, P, 3), Bref).reshape(2 * P, r * n)
    return _table_map(np.swapaxes(F, 1, 2), Y, r)


def _reduced_shear_map(C, nu, A, N, dN):
    """Coefficients C (r, P*2) of the shear strain ``_shear_B`` sampled at the
    P points per element dof, (nT, r, 5n), for normals nu (nT, P, 3) and
    shapes N (P, n), dN (P, n, 2) there: the displacements give nu times the
    table Z[p, (r, s)] = C[r, (p, xi)] dN[p, s, xi], the rotations -A times
    U[xi, (r, s)] = C[r, (p, xi)] N[p, s]."""
    (P, n), r = N.shape, len(C)
    C = C.reshape(r, P, 2)
    Z = np.einsum("rpx,psx->prs", C, dN).reshape(P, r * n)
    U = np.einsum("rpx,ps->xrs", C, N).reshape(2, r * n)
    # the sign stays outside the product: -A would flip the signed zeros
    return np.concatenate([_table_map(np.swapaxes(nu, 1, 2), Z, r), -_table_map(A, U, r)], -1)


def _per_point(call, X, nu, c, what):
    """Values (..., c) of a load callable at points X (..., 3) with normals nu
    (..., 3), one call ``call(X_i, nu_i)`` per point, as ``LoadSpec`` states."""
    V = np.empty(X.shape[:-1] + (c,))
    X, nu, flat = X.reshape(-1, 3), nu.reshape(-1, 3), V.reshape(-1, c)
    for b in item_blocks(len(flat), 144):
        values = [call(x, n) for x, n in zip(X[b], nu[b])]
        try:
            # a cast of complex values to float would drop their imaginary parts
            Vb = np.array(values)
            if not np.iscomplexobj(Vb):
                Vb = np.asarray(Vb, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} returned per-point values that form no array, "
                             f"expected ({c},) per point") from exc
        if np.iscomplexobj(Vb):
            raise ValueError(f"{what} returned complex values, expected real ({c},) per point")
        if Vb.shape[1:] != (c,):
            raise ValueError(f"{what} returned values of shape {Vb.shape[1:]} per point, "
                             f"expected ({c},)")
        flat[b] = Vb
    return V


# energy term (factor/2) sum_T e . W e of a strain vector e of the dofs ``cols``, with
# one thickness factor per element, the derivative G of e and the second derivative K
# of a Green strain
_Term = namedtuple("_Term", "cols factor W e G K", defaults=(None,))


def _newton_converged(history, x, f, tangent):
    """Whether Newton accepts its last iterate x (free dofs), reached by a step
    on the ``tangent`` H, for the free load f.  ``history`` holds the free
    residual norms of all iterates, the first r0 at the initial guess.  The
    last, |r|, is at most ``RESIDUAL_TOL`` r0, or at most 1e-3 r0 with a
    scale-free normwise backward error |r| / (|H|_inf |x| + |f|) of at most
    ``BACKWARD_TOL`` (Higham, Accuracy and Stability, 7.1)."""
    r0, rnorm = history[0], history[-1]
    return rnorm <= RESIDUAL_TOL * r0 or (rnorm <= 1e-3 * r0 and rnorm <= BACKWARD_TOL * (
        norm_inf(tangent) * np.linalg.norm(x) + np.linalg.norm(f)))


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
        g = self.geometry_order = k if config.geometry_order is None else config.geometry_order
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
        # a load callable that writes into its point arguments raises
        read_only(self)

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
                if name not in ("sym:x", "sym:y", "sym:z"):
                    raise MeshError(f"unknown symmetry marker '{name}': "
                                    f"expected sym:x, sym:y or sym:z")
                axis = "xyz".index(name[-1])
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
        """Geometry tables at the energy points and the strain maps and
        weights.

        The element map of the whole mesh is evaluated once, on the energy
        quadrature points followed by the points of the moment rule that
        both interpolations sample.  Every strain is held as a map M
        (nT, r, m) from the element dofs to a strain vector and a block
        diagonal weight W whose quadratic form is the strain's energy
        integral:

        - a reduced strain (the Regge membrane, the edge-tangential shear) is
          the interpolant's n coefficients; M is one product of the geometry
          at the moment rule with a table built once per model from the
          element independent map C of ``_reduction``, and W is one n x n
          coefficient mass per element;
        - an unreduced strain (the membrane or shear when its reduction is
          off) is the reference strain at the energy points; W has one block
          per point from ``_material_weights``;
        - the bending strain sym(A^T grad theta) = B_ref (A^T x I) theta,
          for the affine Jacobian A and the element independent reference
          strain B_ref at the energy points, is the rotations themselves:
          Mb is the identity, one 2n x 2n matrix broadcast over the
          elements, and Wb the coefficient mass
          (A x I) (sum_q B_ref_q^T Wq_q B_ref_q) (A^T x I) of the membrane's
          point weights Wq.

        Mm acts on the displacements (3n dofs), Mb on the rotations (2n) and
        Ms on the full element vector (5n).  No (element, point, dof) map of
        a reduced strain or of the bending is formed.  Energies are
        evaluated from the strains and weights, so states in the strain
        kernel give energies at squared round-off level.  Slices of the
        all-points tables are kept as copies, so that no kept array pins the
        whole table.
        """
        mesh, rule, op, ss = self.mesh, self._rule, self.operator, self.shear_space
        g, n = self.geometry_order, self.basis.num_shapes
        nT, nq = mesh.num_triangles, len(rule.points)
        points = np.vstack([rule.points, self._moments.points])
        self.map = ElementMap(mesh, self.chart, np.arange(nT), g)
        ev = self.map.evaluate(points)
        F, nu, N, dN = ev.F, ev.nu, self.basis.eval(points), self.basis.grad(points)

        self._wJ = rule.weights * ev.J[:, :nq]
        self._X, self._nu, self._N = ev.X[:, :nq].copy(), nu[:, :nq].copy(), N[:nq].copy()
        Wq, Wq_shear = _material_weights(F[:, :nq], self._wJ, self.material)
        verts = mesh.vertices[mesh.triangles]
        # affine reference -> chart-parameter Jacobian; rotation dofs are
        # chart-covariant, strains are formed in reference coordinates
        A = np.swapaxes(verts, 1, 2) @ BARY_GRADS
        sides = verts[:, [1, 2, 2]] - verts[:, [0, 0, 1]]
        self.h2 = np.max(np.sum(sides * sides, axis=-1), axis=1)

        # a reduced strain is sampled at the moment rule, an unreduced one
        # at the energy points; the linearized membrane map is the Green
        # strain derivative at rest
        if op is None:
            sm = slice(nq)
            self._Mm = _strain_B(F[:, sm], dN[sm]).reshape(nT, -1, 3 * n)
            self._Wm = Wq
        else:
            sm = slice(nq, None)
            Cm, S = _reduction(op, op.basis.eval(rule.points), rule.weights)
            self._Mm = _reduced_membrane_map(Cm, F[:, sm], dN[sm])
            self._Wm = _reference_gram(S, Wq)[:, None]
        if self.config.model == "full_green":
            # second derivative of the Green strain vector, the (reduced)
            # sym(grad N_i^T grad N_j) per pair of shapes; it does not
            # depend on the element or the state
            dNs = dN[sm]
            K = _strain_B(dNs, dNs).reshape(-1, n * n)
            self._Cm = None if op is None else Cm
            self._K = (K if op is None else Cm @ K).reshape(-1, n, n)
            self._green_tables = (F[:, sm].copy(), dNs.copy())
        # Wb = (A x I) H (A^T x I) for H (nT, (b, s), (c, x)): A acts on b,
        # then, row by row, on c
        H = _reference_gram(_strain_B(np.eye(2), dN[:nq]).reshape(-1, 2 * n), Wq)
        H = (A @ H.reshape(nT, 2, -1)).reshape(nT, 2 * n, 2, n)
        self._Wb = (A[:, None] @ H).reshape(nT, 1, 2 * n, 2 * n)
        self._Mb = np.broadcast_to(np.eye(2 * n), (nT, 2 * n, 2 * n))
        if ss is None:
            self._Ms = _shear_B(nu[:, :nq], A, N[:nq], dN[:nq]).reshape(nT, -1, 5 * n)
            self._Ws = Wq_shear
        else:
            Cs, S = _reduction(ss, ss.shapes(rule.points), rule.weights)
            self._Ms = _reduced_shear_map(Cs, nu[:, nq:], A, N[nq:], dN[nq:])
            self._Ws = _reference_gram(S, Wq_shear)[:, None]

        # the edge load's points, normals, weights (the Legendre moment of degree 0)
        # and shapes: the moment rule's first rows, one block per local edge
        mr = self._moments
        ne = mr.edge_points.shape[1]
        e = slice(nq, nq + 3 * ne)
        Fe = F[:, e].reshape(nT, 3, ne, 3, 2)
        Jb = np.linalg.norm((Fe @ mr.tangents[:, None, :, None])[..., 0], axis=-1)
        self._edge_w = mr.edge_weights[:, 0] * Jb
        self._edge_X = ev.X[:, e].reshape(nT, 3, ne, 3).copy()
        self._edge_nu = nu[:, e].reshape(nT, 3, ne, 3).copy()
        self._edge_N = N[e].reshape(3, ne, n).copy()
        # chart-contravariant basis on each local edge at its mean gradient,
        # pinv(F A^-1) = A pinv(F): it picks the rotation fixed on sym: edges
        self._edge_dual = A[:, None] @ pseudo_inverse(Fe.mean(axis=2))

    # ------------------------------------------------------------------
    # energies
    # ------------------------------------------------------------------

    def _local(self, x):
        """Element vectors (nT, 5n) of a global coefficient vector."""
        x = np.asarray(x)
        if x.shape != (self.num_dofs,):
            raise ValueError(f"state of shape {x.shape}, expected ({self.num_dofs},)")
        return x[self.element_dofs]

    def _load(self, f):
        """An assembled load vector, checked to be of shape (num_dofs,)."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.num_dofs,):
            raise ValueError(f"load vector of shape {f.shape}, expected ({self.num_dofs},)")
        return f

    def _green_membrane(self, U):
        """Green membrane strain vector e (nT, r), sampled in the factored
        form and taken to its coefficients by one product with C, and its
        derivative G = Mm + K U (nT, r, 3n) in the element displacements U
        (nT, 3n), with K U one product of U against the symmetric K."""
        F, dN = self._green_tables
        nT, n = len(U), self.basis.num_shapes
        gu = U.reshape(nT, 1, 3, -1) @ dN
        A = np.swapaxes(F + 0.5 * gu, -1, -2) @ gu
        e = np.stack([A[..., 0, 0], A[..., 1, 1], 0.5 * (A[..., 0, 1] + A[..., 1, 0])], -1)
        e = e.reshape(nT, -1) if self._Cm is None else e.reshape(nT, -1) @ self._Cm.T
        return e, self._Mm + _table_map(U.reshape(nT, 3, n), self._K.reshape(-1, n).T, len(self._K))

    def _terms(self, X):
        """The shear, bending and membrane terms at element vectors X (nT, 5n),
        by name; the gradient and the tangent sum them into zeros, so the
        sums do not depend on the order of the terms.  With the
        edge-tangential reduction the shear factor is the stabilized
        t^3/(t^2 + c h^2), which matches t as the mesh resolves the shear
        scale and removes the residual coarse-mesh shear stiffness that would
        otherwise inhibit bending-dominated states."""
        thick, nT = self.config.thickness, len(X)
        m = 3 * self.basis.num_shapes
        t = np.full(nT, thick)
        factor = t if self.shear_space is None else (
            thick ** 3 / (thick ** 2 + SHEAR_STABILIZATION * self.h2))
        shear = _Term(slice(None), factor, self._Ws, np.einsum("tri,ti->tr", self._Ms, X),
                      self._Ms)
        bending = _Term(slice(m, None), np.full(nT, thick ** 3), self._Wb, X[:, m:], self._Mb)
        if self.config.model == "full_green":
            membrane = _Term(slice(m), t, self._Wm, *self._green_membrane(X[:, :m]), self._K)
        else:
            membrane = _Term(slice(m), t, self._Wm,
                             np.einsum("tri,ti->tr", self._Mm, X[:, :m]), self._Mm)
        return {"shear": shear, "bending": bending, "membrane": membrane}

    def energies(self, x):
        """The shear, bending and membrane energies (factor/2) sum_T e . W e
        at a coefficient vector, by name, from one evaluation of the terms."""
        terms = self._terms(self._local(x))
        return {name: 0.5 * np.sum(t.factor * np.einsum("tr,tr->t", t.e, _weighted(t.W, t.e)))
                for name, t in terms.items()}

    def total_energy(self, x, load_vector=None):
        W = sum(self.energies(x).values())
        return W if load_vector is None else W - self._load(load_vector) @ x

    # ------------------------------------------------------------------
    # derivatives
    # ------------------------------------------------------------------

    def gradient(self, x, load_vector=None, *, terms=None):
        """Energy gradient at x, less the load vector if one is given, summed
        over the terms into zeros in any order; ``terms`` are the ``_terms``
        at x when the caller has them."""
        g = np.zeros(self.element_dofs.shape)
        for term in (terms or self._terms(self._local(x))).values():
            gt = (_weighted(term.W, term.e)[:, None] @ term.G)[:, 0]
            g[:, term.cols] += term.factor[:, None] * gt
        grad = np.bincount(self.element_dofs.ravel(), g.ravel(), minlength=self.num_dofs)
        return grad if load_vector is None else grad - self._load(load_vector)

    def hessian(self, x, *, terms=None):
        """Assembled tangent as a sparse matrix with constrained dofs masked;
        ``terms`` as in ``gradient``.  The element tangents are summed into
        it block by block, as ``_tangent_blocks`` forms them."""
        return assemble(self._pattern,
                        self._tangent_blocks(terms or self._terms(self._local(x))))

    def _tangent_blocks(self, terms):
        """The element tangents (nT, 5n, 5n), summed over the terms into
        zeros, in any order, one block of consecutive elements of
        ``item_blocks`` at a time."""
        n = self.basis.num_shapes
        nT, m = self.element_dofs.shape
        # geometric term (W e) . K of a Green strain, K shared by the
        # displacement components: one product for the whole mesh, n^2 values
        # per element, as a product of fewer rows need not round the same
        geometric = {name: (_weighted(t.W, t.e) @ t.K.reshape(-1, n * n)).reshape(-1, n, n)
                     for name, t in terms.items() if t.K is not None}
        for b in item_blocks(nT, 8 * m * m):
            H = np.zeros((b.stop - b.start, m, m))
            for name, term in terms.items():
                Ht = _gram(term.G[b], term.W[b])
                if name in geometric:
                    for c in range(0, 3 * n, n):
                        Ht[:, c:c + n, c:c + n] += geometric[name][b]
                Ht *= term.factor[b, None, None]
                H[:, term.cols, term.cols] += Ht
            yield H

    # ------------------------------------------------------------------
    # loads and solve
    # ------------------------------------------------------------------

    def load_vector(self, loads):
        """Assemble the external work functional f(u) of a load spec.

        Each load is a source: a callable of (X, nu), its points X and
        normals nu, quadrature weights w, shape values N and element dof
        rows; an edge moment M(X) is called as one of (X, nu) that reads X.
        ``_per_point`` gets the values V (3,) or (2,) per point, and the work
        N^T (w V) of every element is summed into f by one ``bincount``."""
        m = 3 * self.basis.num_shapes
        sources = []
        if loads.volume is not None:
            sources.append(("volume load", 3, loads.volume, self._X, self._nu, self._wJ,
                            self._N, self.element_dofs[:, :m]))
        for marker, moment in loads.edge_moments.items():
            if marker not in self.mesh.boundary_markers:
                raise ValueError(f"edge moment on unknown boundary marker '{marker}'")
            t, le = np.nonzero(np.isin(self.mesh.tri_edges, self.mesh.edges_with_marker(marker)))
            sources.append((f"edge moment on '{marker}'", 2, lambda X, nu, M=moment: M(X),
                            self._edge_X[t, le], self._edge_nu[t, le], self._edge_w[t, le],
                            self._edge_N[le], self.element_dofs[t, m:]))
        f = np.zeros(self.num_dofs)
        for what, c, call, X, nu, w, N, dofs in sources:
            V = _per_point(call, X, nu, c, what)
            fe = np.swapaxes(w[..., None] * V, -1, -2) @ N
            f += np.bincount(dofs.ravel(), fe.ravel(), minlength=self.num_dofs)
        return f

    def solve(self, loads=None, x0=None):
        """Newton iteration on the energy gradient.

        ``loads`` is a ``LoadSpec`` or an assembled load vector.  Returns
        (state, iterations); the state holds the residual history.  For the
        quadratic linearized model the first step is exact.  ``SolverError``
        is raised before any factorization when a displacement component has
        no constrained dof (a constant translation costs no energy), on a
        failed factorization, and when ``_newton_converged`` accepts no
        iterate in ``NEWTON_MAX_ITER`` steps."""
        if loads is None:
            f = np.zeros(self.num_dofs)
        elif isinstance(loads, LoadSpec):
            f = self.load_vector(loads)
        else:
            f = self._load(loads)
        if not np.all(np.isfinite(f)):
            raise ValueError("load vector has non-finite entries")
        x = np.zeros(self.num_dofs) if x0 is None else np.array(x0, dtype=float)
        if x.shape != (self.num_dofs,):
            raise ValueError(f"initial state of shape {x.shape}, expected ({self.num_dofs},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("initial state has non-finite entries")
        x[~self.free] = 0.0
        unfixed = [f"u_{c}" for c, on in zip("xyz", self.free.reshape(5, -1)) if on.all()]
        if unfixed:
            raise SolverError(f"singular model: no dof of {', '.join(unfixed)} is constrained")
        history, H = [], None
        for iterations in range(NEWTON_MAX_ITER + 1):
            # one evaluation of the terms serves the iterate's residual and tangent
            terms = self._terms(self._local(x))
            r = self.gradient(x, f, terms=terms)
            history.append(np.linalg.norm(r[self.free]))
            if H is not None and _newton_converged(history, x[self.free], f[self.free], H):
                return ShellState(x, history), iterations
            if iterations < NEWTON_MAX_ITER:
                H = self.hessian(x, terms=terms)
                x = x + factor_solve(H, -r)
        raise SolverError(
            f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
            f"(last residual {history[-1]:.3e}, initial {history[0]:.3e})"
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate_displacement(self, x, param_point):
        """Displacement vector of a state at a parameter-space point."""
        t, lam = self.mesh.locate(param_point)
        N = self.basis.eval(lam @ REF_VERTICES)[0]
        u = self._local(x)[t, : 3 * len(N)]
        return u.reshape(3, -1) @ N
