"""Element-local interpolation into the Regge and the shear spaces.

The dual degrees of freedom are edge moments against Legendre polynomials
and interior moments against a monomial tensor basis.  Pairing shapes with
the duals gives a block lower triangular dual mass matrix, which is
geometry free: with the covariant primal and the weighted dual pull-backs
every physical element produces the same matrix as the reference element,
so one factorization serves the whole mesh, curved elements included.
``DualMassMatrix`` keeps the pairing whole as computed, its vanishing
edge-by-cell block included.

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
    _monomial_exponents,
    _monomials,
    barycentric,
    covariant_pullback,
    dual_volume_pullback,
    edge_point,
    edge_tangent,
    regge_basis,
)
from .mesh import LOCAL_EDGES
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
    """The pairing ``full[i, j] = q_i(phi_j)`` of the dual functionals with
    the shapes as computed, edge rows and columns first.

    It is block lower triangular: ``solve`` factors the two diagonal blocks
    once and substitutes forward through ``full[n_edge:, :n_edge]``, which
    is exact only because the edge-by-cell block ``full[:n_edge, n_edge:]``
    vanishes.  At order 0 there are no cell shapes: the cell block is 0 x 0,
    and its factorization and substitution are empty."""

    full: np.ndarray
    n_edge: int

    def __post_init__(self):
        n_e = self.n_edge
        self._lu_EE = scipy.linalg.lu_factor(self.full[:n_e, :n_e])
        self._lu_TT = scipy.linalg.lu_factor(self.full[n_e:, n_e:])

    def solve(self, f):
        """Block forward substitution for the coefficient vector."""
        n_e = self.n_edge
        f = np.asarray(f)
        alpha_e = scipy.linalg.lu_solve(self._lu_EE, f[:n_e])
        rhs = f[n_e:] - self.full[n_e:, :n_e] @ alpha_e
        return np.concatenate([alpha_e, scipy.linalg.lu_solve(self._lu_TT, rhs)])


class InterpolationOperator:
    """Interpolation of symmetric 2x2 fields into the order-k element space.

    All data lives on the reference element; a field is given in reference
    (pulled back) coordinates by its Voigt values (P, 3, ...) at ``points``,
    those of the moment rule, linear in any trailing axes.
    """

    def __init__(self, k, quad_degree):
        self.basis = regge_basis(k)
        self.rule = moment_rule(k + 1, quad_degree)
        self.points = self.rule.points

        # each monomial of degree < k times each unit tensor, (3m, nv, 3)
        mono = _monomials(self.rule.vol_points, k - 1)
        self.vol_dual = (mono.T[:, None, :, None] * np.eye(3)[:, None]).reshape(-1, len(mono), 3)

        # the duals applied to the shapes: M[i, j] = q_i(phi_j)
        M = self.functionals(np.moveaxis(self.basis.eval(self.points), 1, 2))
        self.dual_mass = DualMassMatrix(M, self.basis.num_edge_shapes)

    def functionals(self, values):
        """Apply all dual functionals to a field given by its values at
        ``points``."""
        vals = np.asarray(values)
        edge_vals, vol_vals = self.rule.split(vals)
        parts = []
        for t, w, v in zip(self.rule.tangents, self.rule.edge_weights, edge_vals):
            tt = t[0] * t[0] * v[:, 0] + t[1] * t[1] * v[:, 1] + 2.0 * t[0] * t[1] * v[:, 2]
            parts.append(np.tensordot(w, tt, axes=(1, 0)))
        scale = self.rule.vol_weights[:, None] * np.array([1.0, 1.0, 2.0])
        sig_w = vol_vals * scale.reshape(scale.shape + (1,) * (vals.ndim - 2))
        parts.append(np.tensordot(self.vol_dual, sig_w, axes=([1, 2], [0, 1])))
        return np.concatenate(parts)

    def interpolate(self, values):
        """Coefficients (num_shapes, ...) of the interpolant of a field given
        by its values at ``points``; trailing axes share one dual-mass solve."""
        f = self.functionals(values)
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
    vector polynomial space of degree p.  Every order takes one constrained
    L2 fit: the edge moments E are matched exactly and the remaining freedom
    is fixed by least squares in L2.  With square E (p = 0, 1) this is the
    edge interpolant inv(E), up to round-off."""

    def __init__(self, p, quad_degree):
        self.p = p
        self.rule = moment_rule(p + 1, quad_degree)
        self.points = self.rule.points
        self.num_shapes = 3 if p == 0 else (p + 1) * (p + 2)

        E = self._edge_moments(self.rule.split(np.moveaxis(self.shapes(self.points), 1, 2))[0])
        # KKT system of the constrained L2 fit
        self._vol_shapes = self.shapes(self.rule.vol_points)  # (nq, ns, 2)
        M = np.einsum("q,qsd,qtd->st", self.rule.vol_weights,
                      self._vol_shapes, self._vol_shapes)
        ns = E.shape[1]
        inv = np.linalg.inv(np.block([[M, E.T], [E, np.zeros((len(E), len(E)))]]))
        self._proj_vol = inv[:ns, :ns]   # applied to the L2 load vector
        self._proj_edge = inv[:ns, ns:]  # applied to the edge moments

    def shapes(self, points):
        pts = np.atleast_2d(points)
        if self.p == 0:
            lam = barycentric(pts)
            out = np.zeros((len(pts), 3, 2))
            for s, (i, j) in enumerate(LOCAL_EDGES):
                out[:, s, :] = (
                    lam[:, i, None] * BARY_GRADS[j][None, :]
                    - lam[:, j, None] * BARY_GRADS[i][None, :]
                )
            return out
        # each monomial times each unit vector
        mono = _monomials(pts, self.p)
        out = np.zeros((len(pts), self.num_shapes, 2))
        out[:, 0::2, 0] = out[:, 1::2, 1] = mono
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
        b = np.einsum("q,qsd,qdn->sn", self.rule.vol_weights, self._vol_shapes, vol_vals)
        coeff = self._proj_edge @ self._edge_moments(edge_vals) + self._proj_vol @ b
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
    """Dual mass matrix assembled on a physical element, from one batch
    evaluation of the one-triangle ``element_map`` per edge and one at the
    volume points.

    Uses the covariant shape pull-back and the determinant-weighted dual
    pull-backs explicitly; by construction the result equals the reference
    matrix, which the tests exercise as the geometry-free property.
    """
    op = get_operator(k, quad_degree)
    rule, basis = op.rule, op.basis

    M_edge = []
    for pts, that, weights in zip(rule.edge_points, rule.tangents, rule.edge_weights):
        F = element_map.evaluate(pts).F
        sig_phys = covariant_pullback(F[:, None], basis.eval(pts))
        # q_E pulled back with J_b = |F t| and the arclength measure J_b: the
        # tt-trace along F t = J_b t_phys carries both
        M_edge.append(weights @ np.einsum("qsij,qi,qj->qs", sig_phys, F @ that, F @ that))

    xi = rule.vol_points
    ev = element_map.evaluate(xi)
    sig_phys = covariant_pullback(ev.F[:, None], basis.eval(xi))
    # each dual x^a y^b u at every volume point, (m, nv, 3)
    q_ref = np.array([np.outer(xi[:, 0] ** a * xi[:, 1] ** b, u)
                      for a, b, u in _interior_dual_basis(k)]).reshape(-1, len(xi), 3)
    q_phys = dual_volume_pullback(ev.F, ev.J, q_ref)
    M_cell = np.einsum("q,qsij,mqij->ms", rule.vol_weights * ev.J, sig_phys, q_phys)

    return DualMassMatrix(np.vstack(M_edge + [M_cell]), basis.num_edge_shapes)
