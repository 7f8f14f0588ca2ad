"""Element-local interpolation into the symmetric tensor element space.

The dual degrees of freedom are edge moments against Legendre polynomials
and interior moments against a monomial tensor basis.  Pairing shapes with
the duals gives a block lower triangular dual mass matrix, which is
geometry free: with the covariant primal and the weighted dual pull-backs
every physical element produces the same matrix as the reference element,
so one factorization serves the whole mesh, curved elements included.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .elements import (
    edge_point,
    edge_tangent,
    regge_basis,
    voigt_to_matrix,
)
from .polynomials import eval_legendre
from .quadrature import segment_rule, triangle_rule

__all__ = [
    "DualMassMatrix",
    "InterpolationOperator",
    "reference_dual_mass",
    "assemble_dual_mass",
    "three_field_blocks",
]


def _interior_dual_basis(k):
    """Monomial symmetric tensor basis of the interior moments, order k-1."""
    exps = [(a, b) for tot in range(k) for a in range(tot, -1, -1) for b in (tot - a,)]
    units = np.eye(3)
    return [(a, b, u) for (a, b) in exps for u in units]


@dataclass
class DualMassMatrix:
    """Block lower triangular pairing of shapes with dual functionals."""

    k: int
    M_EE: np.ndarray
    M_TE: np.ndarray
    M_TT: np.ndarray

    def __post_init__(self):
        self._lu_EE = scipy.linalg.lu_factor(self.M_EE)
        if self.M_TT.size:
            self._lu_TT = scipy.linalg.lu_factor(self.M_TT)

    @property
    def full(self):
        n_e = self.M_EE.shape[0]
        n_t = self.M_TT.shape[0]
        M = np.zeros((n_e + n_t, n_e + n_t))
        M[:n_e, :n_e] = self.M_EE
        M[n_e:, :n_e] = self.M_TE
        M[n_e:, n_e:] = self.M_TT
        return M

    def solve(self, f):
        """Block forward substitution for the coefficient vector."""
        n_e = self.M_EE.shape[0]
        f = np.asarray(f)
        alpha_e = scipy.linalg.lu_solve(self._lu_EE, f[:n_e])
        if not self.M_TT.size:
            return alpha_e
        rhs = f[n_e:] - self.M_TE @ alpha_e
        alpha_t = scipy.linalg.lu_solve(self._lu_TT, rhs)
        return np.concatenate([alpha_e, alpha_t])

    def solve_transposed(self, g):
        """Block back substitution for M^T lam = g."""
        n_e = self.M_EE.shape[0]
        g = np.asarray(g)
        if not self.M_TT.size:
            return scipy.linalg.lu_solve(self._lu_EE, g, trans=1)
        lam_t = scipy.linalg.lu_solve(self._lu_TT, g[n_e:], trans=1)
        rhs = g[:n_e] - self.M_TE.T @ lam_t
        lam_e = scipy.linalg.lu_solve(self._lu_EE, rhs, trans=1)
        return np.concatenate([lam_e, lam_t])


class InterpolationOperator:
    """Interpolation of symmetric 2x2 fields into the order-k element space.

    All data lives on the reference element; fields to interpolate must be
    supplied in reference (pulled back) coordinates at ``points``: the
    quadrature points of the three edges, then those of the interior.  A
    sampler is a callable mapping reference points (n, 2) to Voigt values
    (n, 3) or to value tables (n, 3, ...) that are linear in trailing axes.
    """

    def __init__(self, k, quad_degree=None):
        self.k = k
        self.basis = regge_basis(k)
        if quad_degree is None:
            quad_degree = 2 * k + 2
        self.quad_degree = quad_degree

        seg = segment_rule(quad_degree)
        self.edge_points = []   # reference coordinates of edge quadrature points
        self.edge_weights = []  # (k+1, nq) moment weight tables
        self.edge_tangents = []
        for e in range(3):
            t, length = edge_tangent(e)
            pts = edge_point(e, seg.points)
            leg = np.array([eval_legendre(l, seg.points) for l in range(k + 1)])
            self.edge_points.append(pts)
            self.edge_weights.append(leg * seg.weights * (length / 2.0))
            self.edge_tangents.append(t)

        tri = triangle_rule(quad_degree)
        self.vol_points = tri.points
        self.vol_weights = tri.weights
        duals = _interior_dual_basis(k)
        nq = len(tri.points)
        self.vol_dual = np.zeros((len(duals), nq, 3))
        for i, (a, b, u) in enumerate(duals):
            mono = tri.points[:, 0] ** a * tri.points[:, 1] ** b
            self.vol_dual[i] = mono[:, None] * u[None, :]

        self.points = np.vstack(self.edge_points + [self.vol_points])
        self._splits = np.cumsum([len(p) for p in self.edge_points])
        # the duals applied to the shapes: M[i, j] = q_i(phi_j)
        M = self.functionals(np.moveaxis(self.basis.eval(self.points), 1, 2))
        n_edge = self.basis.num_edge_shapes
        self.dual_mass = DualMassMatrix(k=k, M_EE=M[:n_edge, :n_edge],
                                        M_TE=M[n_edge:, :n_edge], M_TT=M[n_edge:, n_edge:])

    @property
    def num_dofs(self):
        return self.basis.num_shapes

    def functionals(self, sampler):
        """Apply all dual functionals to a field given in reference form.

        ``sampler`` is called once on ``points``; the values at ``points``
        may also be passed directly instead of a callable."""
        vals = np.asarray(sampler(self.points) if callable(sampler) else sampler)
        *edge_vals, vol_vals = np.split(vals, self._splits)
        parts = []
        for t, w, v in zip(self.edge_tangents, self.edge_weights, edge_vals):
            tt = t[0] * t[0] * v[:, 0] + t[1] * t[1] * v[:, 1] + 2.0 * t[0] * t[1] * v[:, 2]
            parts.append(np.tensordot(w, tt, axes=(1, 0)))
        scale = self.vol_weights[:, None] * np.array([1.0, 1.0, 2.0])
        sig_w = vol_vals * scale.reshape(scale.shape + (1,) * (vals.ndim - 2))
        parts.append(np.tensordot(self.vol_dual, sig_w, axes=([1, 2], [0, 1])))
        return np.concatenate(parts)

    def interpolate(self, sampler):
        """Coefficients of the interpolant of a reference-form field."""
        return self.dual_mass.solve(self.functionals(sampler))

    def evaluate(self, coeffs, points):
        """Evaluate a coefficient vector at reference points, Voigt form."""
        S = self.basis.eval(points)
        return np.einsum("qnc,n...->qc...", S, np.asarray(coeffs))


@lru_cache(maxsize=None)
def _cached_operator(k, quad_degree):
    return InterpolationOperator(k, quad_degree)


def get_operator(k, quad_degree=None):
    if quad_degree is None:
        quad_degree = 2 * k + 2
    return _cached_operator(k, quad_degree)


def reference_dual_mass(k, quad_degree=None):
    """Dual mass matrix of the reference element (shared by all elements)."""
    return get_operator(k, quad_degree).dual_mass


def assemble_dual_mass(element_map, k, quad_degree=None):
    """Dual mass matrix assembled on a physical element.

    Uses the covariant shape pull-back and the determinant-weighted dual
    pull-backs explicitly; by construction the result equals the reference
    matrix, which the tests exercise as the geometry-free property.
    """
    if quad_degree is None:
        quad_degree = 2 * k + 2
    basis = regge_basis(k)
    n_edge = basis.num_edge_shapes
    n = basis.num_shapes
    dim = element_map.ambient_dim

    seg = segment_rule(quad_degree)
    M_edge = np.zeros((n_edge, n))
    row = 0
    for e in range(3):
        that, length = edge_tangent(e)
        pts = edge_point(e, seg.points)
        shape_vals = basis.eval(pts)
        tt_phys = np.zeros((len(pts), n))
        jb = np.zeros(len(pts))
        for q, xi in enumerate(pts):
            ev = element_map.evaluate(xi)
            jb[q] = ev.Jb(e)
            t_phys = (ev.F @ that) / jb[q]
            for s in range(n):
                sig = ev.Fdag.T @ voigt_to_matrix(shape_vals[q, s]) @ ev.Fdag
                tt_phys[q, s] = t_phys @ sig @ t_phys
        for l in range(k + 1):
            leg = eval_legendre(l, seg.points)
            # q_E pulled back with J_b, arclength measure contributes J_b again
            M_edge[row] = (seg.weights * (length / 2.0) * leg * jb * jb) @ tt_phys
            row += 1

    tri = triangle_rule(quad_degree)
    shape_vals = basis.eval(tri.points)
    duals = _interior_dual_basis(k)
    M_cell = np.zeros((len(duals), n))
    for q, xi in enumerate(tri.points):
        ev = element_map.evaluate(xi)
        sig_phys = np.array([
            ev.Fdag.T @ voigt_to_matrix(shape_vals[q, s]) @ ev.Fdag for s in range(n)
        ])
        for i, (a, b, u) in enumerate(duals):
            mono = xi[0] ** a * xi[1] ** b
            q_phys = (ev.F @ voigt_to_matrix(mono * u) @ ev.F.T) / ev.J
            M_cell[i] += tri.weights[q] * ev.J * np.einsum("sij,ij->s", sig_phys, q_phys)

    return DualMassMatrix(
        k=k,
        M_EE=M_edge[:, :n_edge],
        M_TE=M_cell[:, :n_edge],
        M_TT=M_cell[:, n_edge:],
    )


def three_field_blocks(operator, weights, frame_maps, material):
    """Local blocks of the three-field form (displacement, strain, multiplier).

    Parameters
    ----------
    operator : InterpolationOperator
    weights : (nq,) quadrature weights including the surface determinant
    frame_maps : (nq, 3, 3) Voigt maps from reference to orthonormal frame
    material : (3, 3) material norm matrix in the orthonormal frame

    Returns the material mass A of the shape functions and the dual mass M;
    eliminating the strain and multiplier blocks against a functional vector
    f(u) gives the condensed membrane energy f^T M^{-T} A M^{-1} f.
    """
    S = operator.basis.eval(operator.vol_points)  # (nq, n, 3)
    TS = np.einsum("qab,qnb->qna", frame_maps, S)
    A = np.einsum("q,qna,ab,qmb->nm", weights, TS, material, TS)
    return A, operator.dual_mass.full


def condensed_membrane_energy(A, dual_mass, f):
    """Energy after eliminating the local strain and multiplier unknowns."""
    alpha = dual_mass.solve(np.asarray(f))
    return float(alpha @ A @ alpha)
