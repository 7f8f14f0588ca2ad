"""Element-local interpolation into the Regge and the shear spaces.

The dual degrees of freedom are edge moments against Legendre polynomials
and interior moments against a monomial tensor basis.  Pairing shapes with
the duals gives a block lower triangular dual mass matrix, which is
geometry free: with the covariant primal and the weighted dual pull-backs
every physical element produces the same matrix as the reference element,
so one factorization serves the whole mesh, curved elements included.

One ``moment_rule`` fixes where the reference moment functionals sample a
field: the Gauss points of the three edges, then the volume points.  The
Regge operator, the edge-tangential shear space and the edge load of the
shell model all take their points, tangents and weights from it, and both
spaces map values at those points to coefficients with ``interpolate``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .elements import (
    BARY_GRADS,
    EDGE_VERTS,
    _monomial_exponents,
    barycentric,
    covariant_pullback,
    dual_volume_pullback,
    edge_point,
    edge_tangent,
    regge_basis,
)
from .polynomials import eval_legendre
from .quadrature import segment_rule, triangle_rule

__all__ = [
    "MomentRule",
    "moment_rule",
    "DualMassMatrix",
    "InterpolationOperator",
    "ShearSpace",
    "get_operator",
    "get_shear_space",
    "reference_dual_mass",
    "assemble_dual_mass",
]


@dataclass(frozen=True)
class MomentRule:
    """Sampling points and weights of the reference moment functionals.

    ``points`` stacks the Gauss points of the three local edges and then
    those of the volume rule; ``split`` cuts values given at ``points`` into
    edge values (3, nq, ...) and volume values.
    """

    edge_points: np.ndarray   # (3, nq, 2)
    tangents: np.ndarray      # (3, 2) unit edge tangents
    edge_weights: np.ndarray  # (3, n_moments, nq) Legendre moments, half length included
    vol_points: np.ndarray    # (nv, 2)
    vol_weights: np.ndarray   # (nv,)
    points: np.ndarray        # (3 nq + nv, 2)

    def split(self, vals):
        n = 3 * self.edge_points.shape[1]
        return vals[:n].reshape((3, -1) + vals.shape[1:]), vals[n:]


@lru_cache(maxsize=None)
def moment_rule(n_moments, quad_degree):
    """Moment rule with Legendre moments of degree < n_moments per edge."""
    seg = segment_rule(quad_degree)
    tri = triangle_rule(quad_degree)
    tangents, lengths = zip(*(edge_tangent(e) for e in range(3)))
    leg = np.array([eval_legendre(l, seg.points) for l in range(n_moments)])
    edge_points = np.array([edge_point(e, seg.points) for e in range(3)])
    return MomentRule(
        edge_points=edge_points,
        tangents=np.array(tangents),
        edge_weights=np.array([leg * seg.weights * (length / 2.0) for length in lengths]),
        vol_points=tri.points,
        vol_weights=tri.weights,
        points=np.vstack([*edge_points, tri.points]),
    )


def _interior_dual_basis(k):
    """Monomial symmetric tensor basis of the interior moments, order k-1."""
    units = np.eye(3)
    return [(a, b, u) for (a, b) in _monomial_exponents(k - 1) for u in units]


@dataclass
class DualMassMatrix:
    """Block lower triangular pairing of shapes with dual functionals."""

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


class InterpolationOperator:
    """Interpolation of symmetric 2x2 fields into the order-k element space.

    All data lives on the reference element; fields to interpolate must be
    supplied in reference (pulled back) coordinates at ``points``, those of
    the moment rule.  A sampler is a callable mapping reference points
    (n, 2) to Voigt values (n, 3) or to value tables (n, 3, ...) that are
    linear in trailing axes.
    """

    def __init__(self, k, quad_degree):
        self.k = k
        self.basis = regge_basis(k)
        self.rule = moment_rule(k + 1, quad_degree)
        self.points = self.rule.points

        vol = self.rule.vol_points
        duals = _interior_dual_basis(k)
        self.vol_dual = np.zeros((len(duals), len(vol), 3))
        for i, (a, b, u) in enumerate(duals):
            mono = vol[:, 0] ** a * vol[:, 1] ** b
            self.vol_dual[i] = mono[:, None] * u[None, :]

        # the duals applied to the shapes: M[i, j] = q_i(phi_j)
        M = self.functionals(np.moveaxis(self.basis.eval(self.points), 1, 2))
        n_edge = self.basis.num_edge_shapes
        self.dual_mass = DualMassMatrix(M_EE=M[:n_edge, :n_edge], M_TE=M[n_edge:, :n_edge],
                                        M_TT=M[n_edge:, n_edge:])

    @property
    def num_dofs(self):
        return self.basis.num_shapes

    def functionals(self, sampler):
        """Apply all dual functionals to a field given in reference form.

        ``sampler`` is called once on ``points``; the values at ``points``
        may also be passed directly instead of a callable."""
        vals = np.asarray(sampler(self.points) if callable(sampler) else sampler)
        edge_vals, vol_vals = self.rule.split(vals)
        parts = []
        for t, w, v in zip(self.rule.tangents, self.rule.edge_weights, edge_vals):
            tt = t[0] * t[0] * v[:, 0] + t[1] * t[1] * v[:, 1] + 2.0 * t[0] * t[1] * v[:, 2]
            parts.append(np.tensordot(w, tt, axes=(1, 0)))
        scale = self.rule.vol_weights[:, None] * np.array([1.0, 1.0, 2.0])
        sig_w = vol_vals * scale.reshape(scale.shape + (1,) * (vals.ndim - 2))
        parts.append(np.tensordot(self.vol_dual, sig_w, axes=([1, 2], [0, 1])))
        return np.concatenate(parts)

    def interpolate(self, sampler):
        """Coefficients (num_dofs, ...) of the interpolant of a reference-form
        field; trailing axes of its values share one dual-mass solve."""
        f = self.functionals(sampler)
        return self.dual_mass.solve(f.reshape(len(f), -1)).reshape(f.shape)

    def evaluate(self, coeffs, points):
        """Evaluate a coefficient vector at reference points, Voigt form."""
        S = self.basis.eval(points)
        return np.einsum("qnc,n...->qc...", S, np.asarray(coeffs))


class ShearSpace:
    """Tangential-continuous edge element space of order p, the target of
    the shear reduction, with an edge-moment matched projection.

    For p = 0 the lowest-order rotated Whitney space is used (three shapes,
    one tangential moment per edge).  For p >= 1 the local space is the full
    vector polynomial space of degree p; the 3(p+1) edge moments are matched
    exactly and the remaining freedom is fixed by least squares in L2."""

    def __init__(self, p, quad_degree):
        self.p = p
        self.rule = moment_rule(p + 1, quad_degree)
        self.points = self.rule.points
        self._exps = _monomial_exponents(p)
        self.num_shapes = 3 if p == 0 else 2 * len(self._exps)

        E = self._edge_moments(self.rule.split(np.moveaxis(self.shapes(self.points), 1, 2))[0])
        if E.shape[0] == E.shape[1]:
            self._proj_edge = np.linalg.inv(E)
            self._proj_vol = None
        else:
            # KKT system of the constrained L2 fit
            self._vol_shapes = self.shapes(self.rule.vol_points)  # (nq, ns, 2)
            M = np.einsum("q,qsd,qtd->st", self.rule.vol_weights,
                          self._vol_shapes, self._vol_shapes)
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
        for m, (a, b) in enumerate(self._exps):
            mono = pts[:, 0] ** a * pts[:, 1] ** b
            out[:, 2 * m, 0] = mono
            out[:, 2 * m + 1, 1] = mono
        return out

    def _edge_moments(self, edge_vals):
        """Tangential Legendre moments (3(p+1), n) of edge values (3, nq, 2, n)."""
        return np.vstack([w @ np.einsum("d,qdn->qn", t, v) for t, w, v in
                          zip(self.rule.tangents, self.rule.edge_weights, edge_vals)])

    def interpolate(self, values):
        """Coefficients (num_shapes, ...) of the projection of covariant
        vector values (P, 2, ...) given at ``points``."""
        vals = np.asarray(values)
        edge_vals, vol_vals = self.rule.split(vals.reshape(len(vals), 2, -1))
        coeff = self._proj_edge @ self._edge_moments(edge_vals)
        if self._proj_vol is not None:
            b = np.einsum("q,qsd,qdn->sn", self.rule.vol_weights, self._vol_shapes, vol_vals)
            coeff = coeff + self._proj_vol @ b
        return coeff.reshape((self.num_shapes,) + vals.shape[2:])


@lru_cache(maxsize=None)
def get_operator(k, quad_degree=None):
    """Shared order-k operator whose moment rule is exact to degree
    ``quad_degree``, by default 2k + 2."""
    if quad_degree is None:
        return get_operator(k, 2 * k + 2)
    return InterpolationOperator(k, quad_degree)


@lru_cache(maxsize=None)
def get_shear_space(p, quad_degree):
    return ShearSpace(p, quad_degree)


def reference_dual_mass(k, quad_degree=None):
    """Dual mass matrix of the reference element (shared by all elements)."""
    return get_operator(k, quad_degree).dual_mass


def assemble_dual_mass(element_map, k, quad_degree=None):
    """Dual mass matrix assembled on a physical element.

    Uses the covariant shape pull-back and the determinant-weighted dual
    pull-backs explicitly; by construction the result equals the reference
    matrix, which the tests exercise as the geometry-free property.
    """
    op = get_operator(k, quad_degree)
    rule, basis = op.rule, op.basis
    n_edge = basis.num_edge_shapes
    n = basis.num_shapes

    M_edge = []
    for e, (pts, that, weights) in enumerate(zip(rule.edge_points, rule.tangents,
                                                 rule.edge_weights)):
        shape_vals = basis.eval(pts)
        tt_phys = np.zeros((len(pts), n))
        jb = np.zeros(len(pts))
        for q, xi in enumerate(pts):
            ev = element_map.evaluate(xi)
            jb[q] = ev.Jb(e)
            t_phys = (ev.F @ that) / jb[q]
            tt_phys[q] = covariant_pullback(ev.F, shape_vals[q]) @ t_phys @ t_phys
        # q_E pulled back with J_b, arclength measure contributes J_b again
        M_edge.append((weights * jb * jb) @ tt_phys)
    M_edge = np.vstack(M_edge)

    shape_vals = basis.eval(rule.vol_points)
    duals = _interior_dual_basis(k)
    M_cell = np.zeros((len(duals), n))
    for q, xi in enumerate(rule.vol_points):
        ev = element_map.evaluate(xi)
        sig_phys = covariant_pullback(ev.F, shape_vals[q])
        for i, (a, b, u) in enumerate(duals):
            q_phys = dual_volume_pullback(ev.F, ev.J, xi[0] ** a * xi[1] ** b * u)
            M_cell[i] += rule.vol_weights[q] * ev.J * np.einsum("sij,ij->s", sig_phys, q_phys)

    return DualMassMatrix(M_EE=M_edge[:, :n_edge], M_TE=M_cell[:, :n_edge],
                          M_TT=M_cell[:, n_edge:])
