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
energy quadrature points and at the sampling points of the two
interpolations, and the strain-displacement maps built from them.  Because
the dual mass matrix is geometry free, the Regge strain maps of all elements
come from one dual-mass solve whose right-hand side has one column per
(element, dof) pair; the shear projection is batched the same way.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .assembly import SolverError, SparsityPattern, assemble, factor_solve
from .elements import (
    BARY_GRADS,
    EDGE_VERTS,
    REF_VERTICES,
    barycentric,
    edge_point,
    edge_tangent,
    lagrange_basis,
)
from .geometry import ElementMap, tangent_frame
from .interpolation import get_operator
from .quadrature import segment_rule, triangle_rule

__all__ = [
    "MaterialParams",
    "ShellConfig",
    "ShellState",
    "LoadSpec",
    "ShellModel",
    "material_norm_sq",
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


def material_norm_sq(material, sym_voigt):
    """Squared material norm of a symmetric tensor in an orthonormal frame."""
    v = np.asarray(sym_voigt, dtype=float)
    D = material.norm_matrix
    return float(v @ D @ v)


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
    """Global coefficient vector with a displacement view."""

    def __init__(self, model, vector=None):
        self.model = model
        self.vector = np.zeros(model.num_dofs) if vector is None else np.asarray(vector, float)

    @property
    def displacement(self):
        return self.vector[: 3 * self.model.num_scalar_dofs].reshape(3, -1)

    def copy(self):
        return ShellState(self.model, self.vector.copy())


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


class _ShearSpace:
    """Tangential-continuous edge element space of order p = k - 1 used for
    the shear reduction, with edge-moment matched projection.

    For p = 0 the lowest-order rotated Whitney space is used (three shapes,
    one tangential moment per edge).  For p >= 1 the local space is the full
    vector polynomial space of degree p; the 3(p+1) edge moments are matched
    exactly and the remaining freedom is fixed by least squares in L2."""

    def __init__(self, p, quad_degree):
        from .polynomials import eval_legendre

        self.p = p
        seg = segment_rule(quad_degree)
        self.edge_points = [edge_point(e, seg.points) for e in range(3)]
        self.edge_tangents = [edge_tangent(e)[0] for e in range(3)]
        n_mom = max(p, 0) + 1 if p >= 1 else 1
        self.edge_weights = []
        for e in range(3):
            _, length = edge_tangent(e)
            leg = np.array([eval_legendre(l, seg.points) for l in range(n_mom)])
            self.edge_weights.append(leg * seg.weights * (length / 2.0))
        tri = triangle_rule(quad_degree)
        self.vol_points = tri.points
        self.vol_weights = tri.weights
        self.points = np.vstack(self.edge_points + [self.vol_points])

        if p == 0:
            self.num_shapes = 3
        else:
            self.exps = [(a, b) for tot in range(p + 1)
                         for a in range(tot, -1, -1) for b in (tot - a,)]
            self.num_shapes = 2 * len(self.exps)

        E = self._edge_moments_of_shapes()
        if p == 0 or E.shape[0] == E.shape[1]:
            self._proj_edge = np.linalg.inv(E)
            self._proj_vol = None
        else:
            # KKT system of the constrained L2 fit
            phi = self.shapes(self.vol_points)  # (nq, ns, 2)
            M = np.einsum("q,qsd,qtd->st", self.vol_weights, phi, phi)
            ns, nc = E.shape[1], E.shape[0]
            KKT = np.zeros((ns + nc, ns + nc))
            KKT[:ns, :ns] = M
            KKT[:ns, ns:] = E.T
            KKT[ns:, :ns] = E
            inv = np.linalg.inv(KKT)
            self._proj_vol = inv[:ns, :ns]   # applied to the L2 load vector
            self._proj_edge = inv[:ns, ns:]  # applied to the edge moments

    def shapes(self, points):
        pts = np.atleast_2d(points)
        if self.p == 0:
            lam = barycentric(pts)
            out = np.zeros((len(pts), 3, 2))
            for s, (i, j) in enumerate(EDGE_VERTS):
                out[:, s, :] = (
                    lam[:, i, None] * BARY_GRADS[j][None, :]
                    - lam[:, j, None] * BARY_GRADS[i][None, :]
                )
            return out
        out = np.zeros((len(pts), self.num_shapes, 2))
        for m, (a, b) in enumerate(self.exps):
            mono = pts[:, 0] ** a * pts[:, 1] ** b
            out[:, 2 * m, 0] = mono
            out[:, 2 * m + 1, 1] = mono
        return out

    def _edge_moments_of_shapes(self):
        rows = []
        for e in range(3):
            t = self.edge_tangents[e]
            vals = self.shapes(self.edge_points[e])  # (nq, ns, 2)
            tang = vals @ t
            rows.append(self.edge_weights[e] @ tang)
        return np.vstack(rows)

    def project_matrix(self, edge_B, vol_B):
        """Projection of a dof-linear field given by its value tables.

        edge_B[e]: (nq_e, 2, n) covariant values at the edge points;
        vol_B: (nq_v, 2, n) values at the volume points.
        Returns coefficients (num_shapes, n).
        """
        moments = []
        for e in range(3):
            tang = np.einsum("d,qdn->qn", self.edge_tangents[e], edge_B[e])
            moments.append(self.edge_weights[e] @ tang)
        f = np.vstack(moments)
        coeff = self._proj_edge @ f
        if self._proj_vol is not None:
            phi = self.shapes(self.vol_points)
            b = np.einsum("q,qsd,qdn->sn", self.vol_weights, phi, vol_B)
            coeff = coeff + self._proj_vol @ b
        return coeff


@lru_cache(maxsize=None)
def _shear_space(p, quad_degree):
    return _ShearSpace(p, quad_degree)


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
        if config.membrane_reduction == "regge":
            self.operator = get_operator(k - 1, self.deg_dual)
        else:
            self.operator = None
        if config.shear_reduction == "edge_tangential":
            self.shear_space = _shear_space(k - 1, self.deg_dual)
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

        edge = nV + mesh.tri_edges[:, :, None] * n_edge_nodes + np.arange(n_edge_nodes)
        flip = mesh.tri_edge_signs < 0
        edge[flip] = edge[flip][:, ::-1]
        interior = nV + nE * n_edge_nodes + np.arange(nT)[:, None] * n_int + np.arange(n_int)
        self.element_scalar_dofs = np.hstack(
            [mesh.triangles, edge.reshape(nT, -1), interior]).astype(int)
        ns = self.num_scalar_dofs
        self.element_dofs = np.hstack([f * ns + self.element_scalar_dofs for f in range(5)])

    def _scalar_dofs_of_edge(self, e):
        mesh, k = self.mesh, self.config.order
        n_edge_nodes = k - 1
        dofs = list(mesh.edges[e])
        base = mesh.num_vertices + e * n_edge_nodes
        dofs.extend(range(base, base + n_edge_nodes))
        return dofs

    def _apply_boundary_conditions(self):
        ns = self.num_scalar_dofs
        free = np.ones(self.num_dofs, dtype=bool)
        axes = {"x": 0, "y": 1, "z": 2}
        for name, eids in self.mesh.boundary_markers.items():
            if name == "clamped":
                for e in eids:
                    for s in self._scalar_dofs_of_edge(e):
                        for f in range(5):
                            free[f * ns + s] = False
            elif name.startswith("sym:"):
                axis = axes[name.split(":")[1]]
                nhat = np.zeros(3)
                nhat[axis] = 1.0
                for e in eids:
                    mid = 0.5 * (self.mesh.vertices[self.mesh.edges[e][0]]
                                 + self.mesh.vertices[self.mesh.edges[e][1]])
                    F = self.chart.dphi(mid)
                    Fdag = np.linalg.solve(F.T @ F, F.T)
                    # rotation component whose contravariant direction
                    # crosses the symmetry plane
                    alpha = int(np.argmax(np.abs(Fdag @ nhat)))
                    for s in self._scalar_dofs_of_edge(e):
                        free[axis * ns + s] = False
                        free[(3 + alpha) * ns + s] = False
        self.free = free

    # ------------------------------------------------------------------
    # element arrays: geometry, strain maps and forms
    # ------------------------------------------------------------------

    def _build_element_arrays(self):
        """Tables shaped (element, point, ...) and the element forms.

        Each element map is evaluated once, on the energy quadrature points
        followed by the sampling points of the membrane and the shear
        interpolation.  The strain maps hold, per energy point, the
        frame strain of every element dof: Gm (nT, nq, 3, 3n) on the
        displacements, Gb (nT, nq, 3, 2n) on the rotations and Gs
        (nT, nq, 2, 5n) on the full element vector.  Energies are evaluated
        point-wise from these maps so that states in the strain kernel give
        energies at squared round-off level.  The forms Am, Ab, As are the
        quadratic membrane, bending and shear element matrices without
        thickness factors.
        """
        mesh, rule, op, ss = self.mesh, self._rule, self.operator, self.shear_space
        g = self.config.geometry_order
        nT = mesh.num_triangles
        groups = [rule.points] + [np.empty((0, 2)) if space is None else space.points
                                  for space in (op, ss)]
        points = np.vstack(groups)
        cuts = np.cumsum([len(p) for p in groups])[:-1]
        self.maps = [ElementMap(mesh, self.chart, t, g) for t in range(nT)]
        evals = [emap.evaluate(points) for emap in self.maps]
        F_vol, F_op, _ = np.split(np.stack([ev.F for ev in evals]), cuts, axis=1)
        nu_vol, _, nu_sh = np.split(np.stack([ev.nu for ev in evals]), cuts, axis=1)
        J_vol = np.stack([ev.J[: len(rule.points)] for ev in evals])
        N_vol, _, N_sh = np.split(self.basis.eval(points), cuts)
        dN_vol, dN_op, dN_sh = np.split(self.basis.grad(points), cuts)

        self._wJ = rule.weights * J_vol
        self._N, self._nu = N_vol, nu_vol
        control = np.stack([emap.control_points for emap in self.maps])
        self._X = lagrange_basis(g).eval(rule.points) @ control
        self._T, Gt = _frame_maps(tangent_frame(F_vol)[1])
        verts = mesh.vertices[mesh.triangles]
        # affine reference -> chart-parameter Jacobian; rotation dofs are
        # chart-covariant, strains are formed in reference coordinates
        A = np.swapaxes(verts, 1, 2) @ BARY_GRADS
        sides = verts[:, [1, 2, 2]] - verts[:, [0, 0, 1]]
        self.h2 = np.max(np.sum(sides * sides, axis=-1), axis=1)

        if op is None:
            self._green_tables = (F_vol, dN_vol)
            self._Gm = self._T @ _strain_B(F_vol, dN_vol)
        else:
            self._green_tables = (F_op, dN_op)
            self._S = op.basis.eval(rule.points)
            coeff = self._regge_coefficients(_strain_B(F_op, dN_op))
            self._Gm = self._T @ np.einsum("qrc,rtj->tqcj", self._S, coeff)
        self._Gb = self._T @ _strain_B(A[:, None], dN_vol)
        if ss is None:
            self._Gs = Gt @ _shear_B(nu_vol, A, N_vol, dN_vol)
        else:
            Bs = np.moveaxis(_shear_B(nu_sh, A, N_sh, dN_sh), 0, 2)
            *edge_B, vol_B = np.split(Bs.reshape(len(ss.points), 2, -1),
                                      np.cumsum([len(p) for p in ss.edge_points]))
            coeff = ss.project_matrix(edge_B, vol_B).reshape(ss.num_shapes, nT, -1)
            self._Gs = Gt @ np.einsum("qsd,ste->tqde", ss.shapes(rule.points), coeff)

        self._Am = _gram(self._wJ, self._Gm, self.D)
        self._Ab = _gram(self._wJ, self._Gb, self.D)
        self._As = self.Gshear * _gram(self._wJ, self._Gs)

    def _regge_coefficients(self, vals):
        """Regge interpolation of element tables (nT, P, 3, ...) given at the
        operator's points: coefficients (n_regge, nT, ...) from one solve."""
        op = self.operator
        f = op.functionals(np.moveaxis(vals, 0, 2))
        return op.dual_mass.solve(f.reshape(len(f), -1)).reshape(f.shape)

    # ------------------------------------------------------------------
    # energies
    # ------------------------------------------------------------------

    def _local(self, x):
        """Element vectors (nT, 5n) of a global coefficient vector."""
        return np.asarray(x)[self.element_dofs]

    def _integrals(self, e, De):
        """Per-element integrals of e . De over the energy quadrature."""
        return np.einsum("tq,tqa,tqa->t", self._wJ, e, De)

    def _green_strain(self, U):
        """Frame Green membrane strain at the energy points, (nT, nq, 3).

        U (nT, 3n) are element displacements.  Also returns the deformed
        gradient at the points where the strain is sampled: the operator's
        points with the Regge reduction, the energy points without.
        """
        F, dN = self._green_tables
        Fd = F + U.reshape(len(U), 1, 3, -1) @ dN
        C = np.swapaxes(Fd, -1, -2) @ Fd - np.swapaxes(F, -1, -2) @ F
        E = 0.5 * np.stack([C[..., 0, 0], C[..., 1, 1], C[..., 0, 1]], axis=-1)
        if self.operator is not None:
            E = np.einsum("qrc,rt->tqc", self._S, self._regge_coefficients(E))
        return np.einsum("tqab,tqb->tqa", self._T, E), Fd

    def membrane_energy(self, x):
        """(t/2) E_mem at a coefficient vector."""
        m = 3 * self.basis.num_shapes
        U = self._local(x)[:, :m]
        if self.config.model == "linearized_membrane":
            e = np.einsum("tqai,ti->tqa", self._Gm, U)
        else:
            e, _ = self._green_strain(U)
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

    def _green_gradient(self, U):
        """Gradient of the Green membrane integral per element, (nT, 3n)."""
        e, Fd = self._green_strain(U)
        B = _strain_B(Fd, self._green_tables[1])
        s = np.einsum("tq,tqac,tqa->tqc", self._wJ, self._T, e @ self.D)
        op = self.operator
        if op is None:
            return np.einsum("tqci,tqc->ti", B, s)
        lam = op.dual_mass.solve_transposed(np.einsum("qrc,tqc->rt", self._S, s))
        P = op.functionals(np.moveaxis(B, 0, 2))  # (n_regge, nT, 3n)
        return np.einsum("rtj,rt->tj", P, lam)

    def gradient(self, x, load_vector=None):
        thick = self.config.thickness
        m = 3 * self.basis.num_shapes
        X = self._local(x)
        g = self._shear_weights()[:, None] * np.einsum("tij,tj->ti", self._As, X)
        g[:, m:] += thick ** 3 * np.einsum("tij,tj->ti", self._Ab, X[:, m:])
        if self.config.model == "linearized_membrane":
            g[:, :m] += thick * np.einsum("tij,tj->ti", self._Am, X[:, :m])
        else:
            g[:, :m] += thick * self._green_gradient(X[:, :m])
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
            H[:, :m, :m] += self._green_hessian_fd(self._local(x))
        return assemble(self.num_dofs, zip(self.element_dofs, H), free=self.free,
                        pattern=self._pattern)

    def _green_hessian_fd(self, X):
        """Directional finite differences of the analytic membrane gradient,
        one local displacement dof of every element at a time."""
        thick = self.config.thickness
        m = 3 * self.basis.num_shapes
        h = 1e-6 * np.maximum(1.0, np.linalg.norm(X, axis=1))
        H = np.zeros((len(X), m, m))
        for j in range(m):
            Up, Um = X[:, :m].copy(), X[:, :m].copy()
            Up[:, j] += h
            Um[:, j] -= h
            diff = self._green_gradient(Up) - self._green_gradient(Um)
            H[:, :, j] = thick * diff / (2.0 * h[:, None])
        return 0.5 * (H + np.swapaxes(H, 1, 2))

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
        m = 3 * self.basis.num_shapes
        seg = segment_rule(self.deg_dual)
        geo_basis = lagrange_basis(self.config.geometry_order)
        marked = np.isin(self.mesh.tri_edges, self.mesh.edges_with_marker(marker))
        for t, le in zip(*np.nonzero(marked)):
            emap = self.maps[t]
            _, length = edge_tangent(le)
            pts = edge_point(le, seg.points)
            w = seg.weights * (length / 2.0) * emap.evaluate(pts).Jb(le)
            M = np.array([moment(X) for X in geo_basis.eval(pts) @ emap.control_points])
            fe = np.einsum("q,qb,qs->bs", w, M, self.basis.eval(pts))
            f[self.element_dofs[t, m:]] += fe.ravel()
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
