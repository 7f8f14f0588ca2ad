"""Naghdi-type shell energies with optional strain interpolation.

Unknowns are the three displacement components at the H1 nodes and two
rotation components in the chart covariant basis.  All strain measures are
formed in reference coordinates of each element; before the material norm
is applied they are transformed into an orthonormal tangent frame obtained
from the QR factorization of the geometry gradient, so physical units are
correct on curved charts.

Energy split: W = (t/2) E_mem + (t^3/2) E_bend + (t/2) E_shear - f(u).
The membrane strain may be interpolated element-wise into the symmetric
tensor element space of order k-1, which removes membrane locking; the
shear strain may analogously be interpolated into a tangential-continuous
edge element space.

Element data are arrays shaped (element, point, ...): geometry tables at the
energy quadrature points and at the sampling points of the interpolations,
and the strain-displacement maps built from them.  One element map covers
the whole mesh and is evaluated once per model.  Both interpolations, and
the edge load, sample on the same reference moment rule
(``interpolation.moment_rule``).  Because the dual mass matrix is geometry
free, an interpolation followed by evaluation at the energy points is the
same linear map on every element: each strain has one matrix R, built once
per model from a single ``interpolate`` of the identity, and is the
identity on values sampled at the energy points when its reduction is off.
Every reduced point map is one product with R, so the linearized membrane
map is the Green one at rest, and energies, gradients and tangents make no
interpolation call.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import SolverError, SparsityPattern, assemble, factor_solve
from .elements import BARY_GRADS, REF_VERTICES, lagrange_basis, pseudo_inverse
from .geometry import ElementMap, tangent_frame
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
        if self.youngs_modulus <= 0:
            raise ValueError("Young's modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")

    @property
    def norm_matrix(self):
        """Material norm in an orthonormal frame, Voigt (11, 22, 12) form."""
        nu = self.poisson_ratio
        fac = self.youngs_modulus / (1.0 - nu * nu)
        return fac * np.array([
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, 2.0 * (1.0 - nu)],
        ])


@dataclass
class ShellConfig:
    thickness: float
    order: int = 2
    geometry_order: int = None
    membrane_reduction: str = "none"      # none | regge
    shear_reduction: str = "edge_tangential"  # none | edge_tangential
    model: str = "linearized_membrane"    # linearized_membrane | full_green

    def __post_init__(self):
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")
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
    """Global coefficient vector of a model."""

    def __init__(self, model, vector=None):
        self.model = model
        self.vector = np.zeros(model.num_dofs) if vector is None else np.asarray(vector, float)


def _frame_maps(R):
    """Voigt map of sigma -> G^T sigma G, and G^T, for G = R^{-1} of the
    upper triangular frame factor R (..., 2, 2)."""
    g00, g11 = 1.0 / R[..., 0, 0], 1.0 / R[..., 1, 1]
    g01 = -R[..., 0, 1] * g00 * g11
    z = np.zeros_like(g00)
    T = np.stack([g00 * g00, z, z,
                  g01 * g01, g11 * g11, 2.0 * g01 * g11,
                  g00 * g01, z, g00 * g11], axis=-1)
    Gt = np.stack([g00, z, g01, g11], axis=-1)
    return T.reshape(R.shape[:-2] + (3, 3)), Gt.reshape(R.shape)


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
    Bu = np.einsum("tpc,psd->tpdcs", nu, dN)
    Bt = -np.einsum("tbd,ps->tpdbs", A, N)
    B = np.concatenate([Bu, Bt], axis=-2)
    return B.reshape(B.shape[:-2] + (-1,))


def _gram(wJ, G, D=None):
    """Element matrices sum_q wJ G^T D G of point maps G (nT, nq, r, m)."""
    DG = G if D is None else D @ G
    nT, m = G.shape[0], G.shape[-1]
    rows = (wJ[:, :, None, None] * DG).reshape(nT, -1, m)
    return np.swapaxes(G.reshape(nT, -1, m), 1, 2) @ rows


def _reduction(space, shapes):
    """Matrix R (nq*c, P*c) taking c-component values at the P points
    ``space.points`` to the space's interpolant at the nq points where its
    shape values ``shapes`` (nq, n, c) were taken; one interpolation of the
    identity."""
    nq, n, c = shapes.shape
    P = len(space.points)
    coeff = space.interpolate(np.eye(P * c).reshape(P, c, P * c))
    return np.swapaxes(shapes, 1, 2).reshape(nq * c, n) @ coeff


def _reduced(R, B):
    """Point maps B (nT, P, c, m) at the sampling points taken to the energy
    points by R (nq*c, P*c): (nT, nq, c, m)."""
    nT, _, c, m = B.shape
    return (R @ B.reshape(nT, -1, m)).reshape(nT, -1, c, m)


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
        self.D = material.norm_matrix
        self.Gshear = SHEAR_CORRECTION * material.youngs_modulus / (
            2.0 * (1.0 + material.poisson_ratio)
        )

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
        self._pattern = SparsityPattern(self.num_dofs, self.element_dofs, self.free)

    # ------------------------------------------------------------------
    # dof management
    # ------------------------------------------------------------------

    def _build_dof_map(self):
        """Scalar dofs per element (nT, n) and field dofs (nT, 5n) ordered
        (u_x, u_y, u_z, th_1, th_2)."""
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
        ns = self.num_scalar_dofs
        self.element_dofs = np.hstack([f * ns + self.element_scalar_dofs for f in range(5)])

    def _apply_boundary_conditions(self):
        mesh = self.mesh
        fixed = np.zeros((5, self.num_scalar_dofs), dtype=bool)  # (field, scalar dof)
        for name in mesh.boundary_markers:
            eids = mesh.edges_with_marker(name)
            dofs = self._edge_scalar_dofs[eids]
            if name == "clamped":
                fixed[:, dofs] = True
            elif name.startswith("sym:"):
                axis = "xyz".index(name.split(":")[1])
                mid = mesh.vertices[mesh.edges[eids]].mean(axis=1)
                F = np.array([self.chart.dphi(p) for p in mid]).reshape(-1, 3, 2)
                Fdag = pseudo_inverse(F)
                # rotation component whose contravariant direction crosses
                # the symmetry plane
                alpha = np.argmax(np.abs(Fdag[:, :, axis]), axis=1)
                fixed[axis, dofs] = True
                fixed[3 + alpha[:, None], dofs] = True
        self.free = ~fixed.ravel()

    # ------------------------------------------------------------------
    # element arrays: geometry, strain maps and forms
    # ------------------------------------------------------------------

    def _build_element_arrays(self):
        """Tables shaped (element, point, ...) and the element forms.

        The element map of the whole mesh is evaluated once, on the energy
        quadrature points followed by the points of the moment rule that
        both interpolations sample.  Each strain is sampled at one of these
        two sets and taken to the energy points by its matrix R (see
        ``_reduction``).  The strain maps hold, per energy point, the frame
        strain of every element dof: Gm (nT, nq, 3, 3n) on the
        displacements, Gb (nT, nq, 3, 2n) on the rotations and Gs
        (nT, nq, 2, 5n) on the full element vector.  Energies are evaluated
        point-wise from these maps so that states in the strain kernel give
        energies at squared round-off level.  The forms Am, Ab, As are the
        quadratic membrane, bending and shear element matrices without
        thickness factors.
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
        self._T, Gt = _frame_maps(tangent_frame(F[:, :nq])[1])
        verts = mesh.vertices[mesh.triangles]
        # affine reference -> chart-parameter Jacobian; rotation dofs are
        # chart-covariant, strains are formed in reference coordinates
        A = np.swapaxes(verts, 1, 2) @ BARY_GRADS
        sides = verts[:, [1, 2, 2]] - verts[:, [0, 0, 1]]
        self.h2 = np.max(np.sum(sides * sides, axis=-1), axis=1)

        # a reduced strain is sampled at the moment rule, an unreduced one
        # at the energy points
        if op is None:
            sm, self._Rm = slice(nq), np.eye(3 * nq)
        else:
            sm, self._Rm = slice(nq, None), _reduction(op, op.basis.eval(rule.points))
        self._green_tables = (F[:, sm], dN[sm])
        # the linearized membrane map is the Green strain derivative at rest
        self._Gm = self._green_membrane(np.zeros((nT, 3 * self.basis.num_shapes)))[1]
        if self.config.model == "full_green":
            # second derivative of the Green strain, sym(grad N_i^T grad N_j)
            # per pair of shapes; it does not depend on the element or state
            dNs, n = dN[sm], self.basis.num_shapes
            self._K = _reduced(self._Rm, _strain_B(dNs, dNs)[None])[0].reshape(-1, 3, n, n)
        self._Gb = self._T @ _strain_B(A[:, None], dN[:nq])
        if ss is None:
            sg, Rs = slice(nq), np.eye(2 * nq)
        else:
            sg, Rs = slice(nq, None), _reduction(ss, ss.shapes(rule.points))
        self._Gs = Gt @ _reduced(Rs, _shear_B(nu[:, sg], A, N[sg], dN[sg]))

        self._Am = _gram(self._wJ, self._Gm, self.D)
        self._Ab = _gram(self._wJ, self._Gb, self.D)
        self._As = self.Gshear * _gram(self._wJ, self._Gs)

    # ------------------------------------------------------------------
    # energies
    # ------------------------------------------------------------------

    def _local(self, x):
        """Element vectors (nT, 5n) of a global coefficient vector."""
        return np.asarray(x)[self.element_dofs]

    def _integrals(self, e, De):
        """Per-element integrals of e . De over the energy quadrature."""
        return np.einsum("tq,tqa,tqa->t", self._wJ, e, De)

    def _green_membrane(self, U):
        """Frame Green membrane strain e (nT, nq, 3) at the energy points and
        its derivative G (nT, nq, 3, 3n) in the element displacements U
        (nT, 3n).  One product with the reduction matrix takes the strain and
        its derivative from the sampling points to the energy points."""
        F, dN = self._green_tables
        Fd = F + U.reshape(len(U), 1, 3, -1) @ dN
        C = np.swapaxes(Fd, -1, -2) @ Fd - np.swapaxes(F, -1, -2) @ F
        E = 0.5 * np.stack([C[..., 0, 0], C[..., 1, 1], C[..., 0, 1]], axis=-1)
        eG = self._T @ _reduced(self._Rm, np.concatenate([E[..., None], _strain_B(Fd, dN)], -1))
        return eG[..., 0], eG[..., 1:]

    def membrane_energy(self, x):
        """(t/2) E_mem at a coefficient vector."""
        m = 3 * self.basis.num_shapes
        U = self._local(x)[:, :m]
        if self.config.model == "linearized_membrane":
            e = np.einsum("tqai,ti->tqa", self._Gm, U)
        else:
            e, _ = self._green_membrane(U)
        return 0.5 * self.config.thickness * self._integrals(e, e @ self.D).sum()

    def bending_energy(self, x):
        """(t^3/2) E_bend at a coefficient vector."""
        m = 3 * self.basis.num_shapes
        e = np.einsum("tqai,ti->tqa", self._Gb, self._local(x)[:, m:])
        return 0.5 * self.config.thickness ** 3 * self._integrals(e, e @ self.D).sum()

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
        g = np.einsum("tqai,ti->tqa", self._Gs, self._local(x))
        return 0.5 * self.Gshear * (self._shear_weights() @ self._integrals(g, g))

    def total_energy(self, x, load_vector=None):
        W = self.membrane_energy(x) + self.bending_energy(x) + self.shear_energy(x)
        if load_vector is not None:
            W -= load_vector @ x
        return W

    # ------------------------------------------------------------------
    # derivatives
    # ------------------------------------------------------------------

    def gradient(self, x, load_vector=None):
        thick = self.config.thickness
        m = 3 * self.basis.num_shapes
        X = self._local(x)
        g = self._shear_weights()[:, None] * np.einsum("tij,tj->ti", self._As, X)
        g[:, m:] += thick ** 3 * np.einsum("tij,tj->ti", self._Ab, X[:, m:])
        if self.config.model == "linearized_membrane":
            g[:, :m] += thick * np.einsum("tij,tj->ti", self._Am, X[:, :m])
        else:
            e, G = self._green_membrane(X[:, :m])
            g[:, :m] += thick * np.einsum("tq,tqci,tqc->ti", self._wJ, G, e @ self.D)
        grad = np.bincount(self.element_dofs.ravel(), g.ravel(), minlength=self.num_dofs)
        if load_vector is not None:
            grad -= load_vector
        return grad

    def hessian(self, x):
        """Assembled tangent as a sparse matrix with constrained dofs masked."""
        thick = self.config.thickness
        m = 3 * self.basis.num_shapes
        H = self._shear_weights()[:, None, None] * self._As
        H[:, m:, m:] += thick ** 3 * self._Ab
        if self.config.model == "linearized_membrane":
            H[:, :m, :m] += thick * self._Am
        else:
            # material term G^T D G plus the geometric term: the membrane
            # stress against the second derivative K of the strain, which is
            # the same for the three displacement components
            e, G = self._green_membrane(self._local(x)[:, :m])
            sigma = np.einsum("tq,tqa,tqab->tqb", self._wJ, e @ self.D, self._T)
            Hg = np.einsum("tqa,qaij->tij", sigma, self._K)
            H[:, :m, :m] += thick * (_gram(self._wJ, G, self.D) + np.kron(np.eye(3), Hg))
        return assemble(self._pattern, H)

    # ------------------------------------------------------------------
    # loads and solve
    # ------------------------------------------------------------------

    def load_vector(self, loads):
        """Assemble the external work functional f(u) of a load spec."""
        f = np.zeros(self.num_dofs)
        if loads.volume is not None:
            P = np.array([[loads.volume(X, nu) for X, nu in zip(Xt, nut)]
                          for Xt, nut in zip(self._X, self._nu)], dtype=float)
            fe = np.einsum("tq,tqc,qs->tcs", self._wJ, P, self._N)
            m = 3 * self.basis.num_shapes
            f += np.bincount(self.element_dofs[:, :m].ravel(), fe.ravel(),
                             minlength=self.num_dofs)
        for marker, moment in loads.edge_moments.items():
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
        F = self.map.evaluate(pts).F[t[:, None], rows]  # (pair, nq, 3, 2)
        Jb = np.linalg.norm((F @ mr.tangents[le, None, :, None])[..., 0], axis=-1)
        # the Legendre moment of degree 0 is the plain edge quadrature
        w = mr.edge_weights[le, 0] * Jb
        geo = lagrange_basis(self.config.geometry_order).eval(pts)
        X = geo[rows] @ self.map.control_points[t]
        M = np.array([moment(x) for x in X.reshape(-1, 3)]).reshape(len(t), nq, 2)
        fe = np.einsum("pq,pqb,pqs->pbs", w, M, self.basis.eval(pts)[rows])
        np.add.at(f, self.element_dofs[t, m:], fe.reshape(len(t), -1))
        return f

    def solve(self, loads=None, x0=None):
        """Newton iteration on the energy gradient.

        Returns (state, iterations).  For the quadratic linearized model the
        first step is exact."""
        f = self.load_vector(loads) if loads is not None else np.zeros(self.num_dofs)
        x = np.zeros(self.num_dofs) if x0 is None else np.asarray(x0, float).copy()
        x[~self.free] = 0.0
        r = self.gradient(x, f)
        r0_norm = np.linalg.norm(r[self.free])
        iterations = 0
        prev_norm = None
        for _ in range(NEWTON_MAX_ITER):
            H = self.hessian(x)
            dx = factor_solve(H, -r)
            x = x + dx
            iterations += 1
            r = self.gradient(x, f)
            rnorm = np.linalg.norm(r[self.free])
            if rnorm <= NEWTON_ABS_TOL or (r0_norm > 0 and rnorm <= NEWTON_REL_TOL * r0_norm):
                return ShellState(self, x), iterations
            # severely ill conditioned thin cases bottom out at the floating
            # point noise floor of the gradient before reaching the relative
            # tolerance; accept stagnation at a small residual
            if (prev_norm is not None and rnorm > 0.5 * prev_norm
                    and rnorm <= 1e-6 * r0_norm):
                return ShellState(self, x), iterations
            prev_norm = rnorm
        raise SolverError(
            f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
            f"(last residual {rnorm:.3e}, initial {r0_norm:.3e})"
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
