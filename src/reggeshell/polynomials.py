"""Jacobi-type polynomial families for the triangle bases.

All families are restricted to the one-parameter case (alpha, 0); the second
Jacobi parameter is never needed here.  Evaluation goes through three-term
recurrences in homogenized ("scaled") form, so that the composite expressions
appearing in the edge and cell bases stay finite on the whole closed
reference triangle.
"""

import numpy as np

from .quadrature import segment_rule

__all__ = [
    "eval_jacobi",
    "eval_jacobi_scaled",
    "eval_integrated_jacobi",
    "eval_integrated_jacobi_scaled",
    "eval_dubiner",
]


def _check(n, alpha):
    if n < 0 or int(n) != n:
        raise ValueError(f"polynomial degree must be a nonnegative integer, got {n}")
    if alpha <= -1.0:
        raise ValueError(f"Jacobi parameter must satisfy alpha > -1, got {alpha}")


def eval_jacobi_scaled(n, alpha, x, s):
    """Evaluate s^n * p_n^{(alpha,0)}(x/s), a polynomial in (x, s).

    The homogenized recurrence keeps the value finite for s -> 0, which is
    required when these factors appear multiplied by powers of vanishing
    barycentric sums.
    """
    _check(n, alpha)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    p_prev = np.ones(np.broadcast(x, s).shape)
    if n == 0:
        return p_prev
    a = float(alpha)
    p = ((a + 2.0) * x + a * s) / 2.0
    for m in range(2, n + 1):
        # standard Jacobi recurrence with beta = 0, homogenized by s
        c0 = 2.0 * m * (m + a) * (2.0 * m + a - 2.0)
        c1 = (2.0 * m + a - 1.0) * (2.0 * m + a) * (2.0 * m + a - 2.0)
        c2 = (2.0 * m + a - 1.0) * a * a
        c3 = 2.0 * (m + a - 1.0) * (m - 1.0) * (2.0 * m + a)
        p, p_prev = ((c1 * x + c2 * s) * p - c3 * s * s * p_prev) / c0, p
    return p


def eval_jacobi(n, alpha, x):
    """Value of the Jacobi polynomial p_n^{(alpha,0)} at x in [-1, 1]."""
    return eval_jacobi_scaled(n, alpha, x, 1.0)


def eval_integrated_jacobi_scaled(n, alpha, x, s):
    """Evaluate s^n * phat_n^{(alpha,0)}(x/s) with phat_n the antiderivative
    of p_{n-1}^{(alpha,0)} vanishing at -1 (phat_0 = 1).

    The antiderivative is realized by the exact Gauss rule ``segment_rule(n - 1)``
    on the homogenized integrand; no closed-form connection coefficients needed.
    """
    _check(n, alpha)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if n == 0:
        return np.ones(np.broadcast(x, s).shape)
    # integrate p_{n-1} along [-1, x/s] and homogenize: the sample points
    # (x + s) u - s are polynomial in (x, s)
    seg = segment_rule(n - 1)
    u, w = 0.5 * (seg.points + 1.0), 0.5 * seg.weights
    acc = 0.0
    for ui, wi in zip(u, w):
        acc = acc + wi * eval_jacobi_scaled(n - 1, alpha, (x + s) * ui - s, s)
    return (x + s) * acc


def eval_integrated_jacobi(n, alpha, x):
    """Value of the integrated Jacobi polynomial phat_n^{(alpha,0)} at x."""
    return eval_integrated_jacobi_scaled(n, alpha, x, 1.0)


def eval_dubiner(l1, l2, x, y):
    """Orthogonal Dubiner-type polynomial on the reference triangle.

    w^{(l1,l2)}(x, y) = p_{l1}^0(x/(1-y)) (1-y)^{l1} p_{l2}^{2*l1+1}(2y-1),
    evaluated through the scaled recurrence so the collapsed coordinate is
    regular up to y = 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return eval_jacobi_scaled(l1, 0.0, x, 1.0 - y) * eval_jacobi(
        l2, 2.0 * l1 + 1.0, 2.0 * y - 1.0
    )
