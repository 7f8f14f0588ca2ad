"""Global sparse symmetric assembly and direct factorization.

The sparsity of an assembled matrix depends only on the element dof sets and
the constrained dofs, not on any value, so a ``SparsityPattern`` is built once
per dof map: the CSR structure, the CSR position of every element-matrix
entry, and the positions of the free-by-free block.  Each assembly then only
sums the element values into the stored positions.

Problems stay at desk scale, so a direct sparse LU is used; the residual of
every solve is checked against the tolerance the Newton loop relies on.  The
tangents are symmetric, so SuperLU runs in its symmetric mode: a minimum
degree ordering of A + A^T and diagonal pivots whenever they are not much
smaller than the column maximum.  Partial pivoting (the default) swaps rows
on thin shells, where the bending and membrane stiffnesses differ by t^2:
on the 512-element hyperboloid at t = 1e-4, U then has 1.6 M nonzeros against
0.5 M in symmetric mode, with no better residual.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = ["SparseSymMatrix", "SparsityPattern", "assemble", "factor_solve",
           "SolverError"]

RESIDUAL_TOL = 1e-10
BACKWARD_TOL = 1e-12

# SuperLU settings for symmetric matrices (see the module docstring).  A
# threshold above zero still takes an off-diagonal pivot when the diagonal
# nearly vanishes, as on indefinite (saddle-point) Green tangents.
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.01
SUPERLU_OPTIONS = {"SymmetricMode": True}


class SolverError(Exception):
    """Factorization breakdown or unacceptable solve residual."""


class SparsityPattern:
    """CSR structure of the matrices assembled from fixed element dof sets.

    ``element_dofs`` is an (nT, m) array of global dofs; ``free`` masks the
    dofs kept in the reduced (free-by-free) system.
    """

    def __init__(self, n_dofs, element_dofs, free=None):
        dofs = np.asarray(element_dofs, dtype=int)
        if dofs.ndim != 2:
            raise ValueError("element dofs must be an (elements, dofs) array")
        if dofs.size and (dofs.min() < 0 or dofs.max() >= n_dofs):
            raise IndexError("element dof index out of range")
        self.n_dofs = n_dofs
        self.element_dofs = dofs
        self.free = np.ones(n_dofs, dtype=bool) if free is None else np.array(free, bool)
        m = dofs.shape[1]
        rows = np.repeat(dofs, m, axis=1).ravel()
        cols = np.tile(dofs, (1, m)).ravel()
        # keys sorted row-major are the canonical CSR order; slot[k] is the
        # CSR position of the k-th entry of the stacked element matrices
        keys, self.slot = np.unique(rows * n_dofs + cols, return_inverse=True)
        row, col = np.divmod(keys, n_dofs)
        self.nnz = len(keys)
        self.indptr = _indptr(row, n_dofs)
        self.indices = col
        # the free block keeps the row-major order under the monotone
        # renumbering of the free dofs
        self.free_idx = np.flatnonzero(self.free)
        number = np.cumsum(self.free) - 1
        self.free_pos = np.flatnonzero(self.free[row] & self.free[col])
        self.free_indices = number[col[self.free_pos]]
        self.free_indptr = _indptr(number[row[self.free_pos]], len(self.free_idx))


def _indptr(row, n):
    indptr = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr


class SparseSymMatrix:
    """Symmetric global matrix with a constrained-dof elimination mask."""

    def __init__(self, pattern, data):
        self.pattern = pattern
        n = pattern.n_dofs
        self.matrix = scipy.sparse.csr_matrix(
            (data, pattern.indices, pattern.indptr), shape=(n, n))

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def reduced(self):
        """Free-by-free block as CSR and the global indices of its dofs."""
        p = self.pattern
        k = len(p.free_idx)
        block = scipy.sparse.csr_matrix(
            (self.matrix.data[p.free_pos], p.free_indices, p.free_indptr),
            shape=(k, k))
        return block, p.free_idx


def assemble(pattern, element_matrices):
    """Sum the element matrices (nT, m, m) of the pattern's element dofs into
    a global sparse symmetric matrix.  Rows and columns of constrained dofs
    stay in the matrix but are masked out for the solve, which keeps dof
    numbering stable."""
    values = np.asarray(element_matrices, dtype=float)
    data = np.bincount(pattern.slot, values.ravel(), minlength=pattern.nnz)
    return SparseSymMatrix(pattern, data)


def factor_solve(matrix, rhs):
    """Direct solve on the free dofs; constrained dofs stay at zero."""
    if isinstance(matrix, SparseSymMatrix):
        reduced, idx = matrix.reduced()
        b = np.asarray(rhs)[idx]
        n = matrix.dimension
    else:
        reduced = scipy.sparse.csr_matrix(matrix)
        idx = np.arange(reduced.shape[0])
        b = np.asarray(rhs)
        n = reduced.shape[0]
    # symmetric Jacobi equilibration tames the severe scale differences
    # between displacement and rotation blocks at small thickness
    diag = np.abs(reduced.diagonal())
    diag[diag == 0] = 1.0
    s = 1.0 / np.sqrt(diag)
    row = np.repeat(np.arange(len(s)), np.diff(reduced.indptr))
    scaled = scipy.sparse.csr_matrix(
        (reduced.data * s[row] * s[reduced.indices], reduced.indices, reduced.indptr),
        shape=reduced.shape).tocsc()
    try:
        lu = scipy.sparse.linalg.splu(scaled, permc_spec=PERMC_SPEC,
                                      diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                      options=SUPERLU_OPTIONS)
        y = s * lu.solve(s * b)
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise SolverError("factorization produced non-finite values "
                          "(matrix indefinite or boundary conditions missing)")
    bnorm = np.linalg.norm(b)
    # iterative refinement recovers the residual tolerance on the badly
    # conditioned systems arising for very small thickness
    for _ in range(5):
        r = b - reduced @ y
        if bnorm == 0 or np.linalg.norm(r) <= RESIDUAL_TOL * bnorm:
            break
        y = y + s * lu.solve(s * r)
    res = np.linalg.norm(reduced @ y - b)
    if bnorm > 0 and res > RESIDUAL_TOL * bnorm:
        # on severely ill conditioned systems (very small thickness) the
        # plain relative residual hits the double precision noise floor
        # eps*||A||*||y||; fall back to the normwise backward error, the
        # standard quality measure for direct solves.  A residual that is
        # not at least close to converged means a genuinely singular or
        # inconsistent system (refinement then stalls at O(1) relative),
        # where a huge solution vector would make the backward error
        # meaninglessly small.
        anorm = np.abs(reduced).sum(axis=1).max()
        backward = res / (anorm * np.linalg.norm(y) + bnorm)
        if res > 1e-3 * bnorm or backward > BACKWARD_TOL:
            raise SolverError(
                f"solve residual {res / bnorm:.2e} above tolerance "
                f"(backward error {backward:.2e})"
            )
    x = np.zeros(n)
    x[idx] = y
    return x
