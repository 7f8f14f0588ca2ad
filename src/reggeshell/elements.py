"""Shape functions on the reference triangle and pull-back transformations.

Reference triangle: V1 = (-1, 0), V2 = (1, 0), V3 = (0, 1).  Symmetric
2x2 tensors are stored in Voigt order (a11, a22, a12) throughout; the
Frobenius product of two such triples is a11*b11 + a22*b22 + 2*a12*b12;
``sym_dyad`` forms the Voigt triple of sym(a b^T) for vectors a, b that
broadcast over leading axes, and the pull-backs broadcast the same way.
The Lagrange shapes, the interior moments of the Regge element and the
shear space of ``reggeshell.interpolation`` are written in the monomials
of ``_monomials(points, k, dx, dy)``, which also gives their (dx, dy)
partial derivatives.
"""

import math
from functools import lru_cache

import numpy as np

from .mesh import LOCAL_EDGES
from .polynomials import eval_dubiner, eval_integrated_jacobi_scaled

__all__ = [
    "REF_VERTICES",
    "BARY_GRADS",
    "LagrangeBasis",
    "ReggeBasis",
    "barycentric",
    "sym_dyad",
    "voigt_to_matrix",
    "covariant_pullback",
    "dual_volume_pullback",
    "pseudo_inverse",
]

REF_VERTICES = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# gradients of the barycentric coordinates, constant on the triangle
BARY_GRADS = np.array([[-0.5, -0.5], [0.5, -0.5], [0.0, 1.0]])


def barycentric(points):
    """Barycentric coordinates (n, 3) of reference points (n, 2)."""
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([(1.0 - x - y) / 2.0, (1.0 + x - y) / 2.0, y])


def sym_dyad(a, b):
    """Symmetric dyadic a (.) b = (a b^T + b a^T) / 2 in Voigt form (..., 3)
    of vectors a, b (..., 2) that broadcast over the leading axes."""
    a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    return np.stack([a0 * b0, a1 * b1, 0.5 * (a0 * b1 + a1 * b0)], axis=-1)


def voigt_to_matrix(v):
    v = np.asarray(v)
    m = np.empty(v.shape[:-1] + (2, 2))
    m[..., 0, 0] = v[..., 0]
    m[..., 1, 1] = v[..., 1]
    m[..., 0, 1] = m[..., 1, 0] = v[..., 2]
    return m


def _monomial_exponents(k):
    return [(a, b) for tot in range(k + 1) for a in range(tot, -1, -1) for b in (tot - a,)]


def _monomials(points, k, dx=0, dy=0):
    """The (dx, dy) partial derivative of the monomials x^a y^b of degree
    <= k at points (n, 2), array (n, m) in ``_monomial_exponents`` order;
    m = 0 for k < 0."""
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    cols = []
    for a, b in _monomial_exponents(k):
        c = math.perm(a, dx) * math.perm(b, dy)
        cols.append(c * x ** (a - dx) * y ** (b - dy) if c else np.zeros(len(pts)))
    return np.column_stack([np.empty((len(pts), 0))] + cols)


class LagrangeBasis:
    """Nodal H1 basis of order k on the reference triangle.

    Nodes: the three vertices, then k-1 equispaced nodes per local edge
    (running from the lower to the higher local vertex), then the interior
    lattice nodes.  Shape values and gradients come from a monomial
    Vandermonde inverse, which is well conditioned for the orders used here.
    """

    def __init__(self, k):
        if k < 1:
            raise ValueError("Lagrange order must be >= 1")
        self.order = k
        self.nodes = self._lattice_nodes(k)
        self.num_shapes = len(self.nodes)
        self._coeff = np.linalg.inv(_monomials(self.nodes, k))

    @staticmethod
    def _lattice_nodes(k):
        # integer barycentric lattice (weights of V1, V2, V3) over k: the
        # vertices, the k-1 nodes of each local edge (i, j) by increasing
        # weight of V_j, then the interior nodes
        eye = np.eye(3, dtype=int)
        lattice = [k * eye[i] for i in range(3)]
        lattice += [(k - m) * eye[i] + m * eye[j] for i, j in LOCAL_EDGES for m in range(1, k)]
        lattice += [(a, b, k - a - b) for a in range(1, k) for b in range(1, k - a)]
        return np.array(lattice) / k @ REF_VERTICES

    def eval(self, points):
        """Shape values, array (npts, num_shapes)."""
        return _monomials(points, self.order) @ self._coeff

    def grad(self, points):
        """Shape gradients, array (npts, num_shapes, 2)."""
        k = self.order
        g = np.stack([_monomials(points, k, 1, 0), _monomials(points, k, 0, 1)], axis=-1)
        return np.einsum("ncd,cs->nsd", g, self._coeff)


@lru_cache(maxsize=None)
def lagrange_basis(k):
    return LagrangeBasis(k)


class ReggeBasis:
    """Edge and cell shape functions of the order-k symmetric tensor element.

    Ordering is edge-major: for each local edge (0,1), (0,2), (1,2) the
    moments l = 0..k, followed by the three cell families with their Dubiner
    indices (l1, l2), l1 + l2 <= k - 1.  Total count 3(k+1)(k+2)/2.
    """

    def __init__(self, k):
        if k < 0:
            raise ValueError("Regge order must be >= 0")
        self.order = k
        self.num_edge_shapes = 3 * (k + 1)
        self.num_cell_shapes = 3 * (k * (k + 1)) // 2
        self.num_shapes = self.num_edge_shapes + self.num_cell_shapes
        self.cell_indices = [
            (i, l1, l2)
            for i in range(3)
            for l1 in range(k)
            for l2 in range(k - l1)
        ]

    def eval(self, points):
        """All shapes at the given reference points, array (npts, N, 3)."""
        pts = np.atleast_2d(points)
        lam = barycentric(pts)
        npts = len(pts)
        out = np.zeros((npts, self.num_shapes, 3))
        s = 0
        for (i, j) in LOCAL_EDGES:
            dyad = sym_dyad(BARY_GRADS[i], BARY_GRADS[j])
            for l in range(self.order + 1):
                scal = eval_integrated_jacobi_scaled(
                    l, 0.0, lam[:, i] - lam[:, j], lam[:, i] + lam[:, j]
                )
                out[:, s, :] = scal[:, None] * dyad
                s += 1
        for (i, l1, l2) in self.cell_indices:
            j, kk = [m for m in range(3) if m != i]
            dyad = sym_dyad(BARY_GRADS[j], BARY_GRADS[kk])
            w = eval_dubiner(l1, l2, pts[:, 0], pts[:, 1])
            out[:, s, :] = (w * lam[:, i])[:, None] * dyad
            s += 1
        return out


@lru_cache(maxsize=None)
def regge_basis(k):
    return ReggeBasis(k)


# --- edge parametrizations of the reference triangle ----------------------

def edge_point(edge, t):
    """Reference point(s) on local edge for parameter t in [-1, 1]."""
    a, b = LOCAL_EDGES[edge]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return (
        0.5 * (1.0 - t)[:, None] * REF_VERTICES[a]
        + 0.5 * (1.0 + t)[:, None] * REF_VERTICES[b]
    )


def edge_tangent(edge):
    """Unit tangent and length of a local reference edge."""
    a, b = LOCAL_EDGES[edge]
    d = REF_VERTICES[b] - REF_VERTICES[a]
    length = np.linalg.norm(d)
    return d / length, length


# --- pull-backs -----------------------------------------------------------

class GeometryError(Exception):
    """Raised when an element map is (numerically) degenerate."""


def pseudo_inverse(F):
    """Moore-Penrose pseudo-inverse (..., 2, d) of rank-2 gradients F (..., d, 2).
    F is rank deficient where det(F^T F) <= 1e-28 (tr F^T F)^2, the square of
    the area ratio that ``ElementMap.evaluate`` tests, at any length scale."""
    F = np.asarray(F, dtype=float)
    Ft = np.swapaxes(F, -1, -2)
    G = Ft @ F
    det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
    if np.any(det <= 1e-28 * (G[..., 0, 0] + G[..., 1, 1]) ** 2):
        raise GeometryError("rank-deficient element gradient")
    return np.linalg.solve(G, Ft)


def covariant_pullback(F, sigma_ref):
    """Map reference tensors to the physical element, preserving tt-traces.

    For flat 2x2 gradients this is F^{-T} sigma F^{-1}; on surfaces the
    pseudo-inverse replaces the inverse.  Gradients F (..., d, 2) and Voigt
    tensors (..., 3) broadcast over the leading axes; returns the tensors
    (..., d, d) in the basis of the ambient space.
    """
    Fd = pseudo_inverse(F)
    return np.swapaxes(Fd, -1, -2) @ voigt_to_matrix(sigma_ref) @ Fd


def dual_volume_pullback(F, J, q_ref):
    """Dual interior moment transformation q -> (1/J) F q F^T of Voigt
    tensors (..., 3), gradients F (..., d, 2) and determinants J (...) that
    broadcast over the leading axes."""
    F, J = np.asarray(F, dtype=float), np.asarray(J, dtype=float)
    if np.any(J <= 0):
        raise GeometryError("nonpositive surface determinant")
    return F @ voigt_to_matrix(q_ref) @ np.swapaxes(F, -1, -2) / J[..., None, None]
