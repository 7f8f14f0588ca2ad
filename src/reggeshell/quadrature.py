"""Gauss rules on the reference segment and the reference triangle.

The reference triangle has vertices (-1,0), (1,0), (0,1) and area 1.  The
triangle rules come from a Duffy-type collapse of a tensorized Gauss rule,
which makes the exactness degree trivially guaranteed at any order.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureRule", "segment_rule", "triangle_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights."""

    points: np.ndarray  # (n,) for segments, (n, 2) for triangles
    weights: np.ndarray


@lru_cache(maxsize=None)
def segment_rule(d):
    """Gauss-Legendre rule on [-1, 1] exact for polynomials of degree >= d."""
    if d < 0:
        raise ValueError("exactness degree must be nonnegative")
    return QuadratureRule(*np.polynomial.legendre.leggauss(int(d) // 2 + 1))


@lru_cache(maxsize=None)
def triangle_rule(d):
    """Collapsed tensor-Gauss rule on the reference triangle, exact to degree d.

    With x = u (1 - y) the integral becomes an iterated integral over
    [-1,1] x [0,1] with the extra factor (1 - y), hence a monomial x^a y^b
    needs u-degree a and y-degree a + b + 1.
    """
    if d < 0:
        raise ValueError("exactness degree must be nonnegative")
    d = int(d)
    u, wu = np.polynomial.legendre.leggauss(d // 2 + 1)
    ty, wy = np.polynomial.legendre.leggauss((d + 1) // 2 + 1)
    y = 0.5 * (ty + 1.0)
    wy = 0.5 * wy
    U, Y = np.meshgrid(u, y, indexing="ij")
    WU, WY = np.meshgrid(wu, wy, indexing="ij")
    pts = np.column_stack([(U * (1.0 - Y)).ravel(), Y.ravel()])
    wts = (WU * WY * (1.0 - Y)).ravel()
    return QuadratureRule(pts, wts)
