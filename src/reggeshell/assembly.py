"""Global sparse symmetric assembly and direct factorization.

The sparsity of an assembled matrix depends only on the element dof sets and
the constrained dofs, not on any value, so a ``SparsityPattern`` is built once
per dof map: the CSR structure, the CSR position of every element-matrix
entry, and the fill-reducing layout of the free-by-free block.  Each assembly
then only sums the element values into the stored positions.

Problems stay at desk scale, so a direct sparse LU is used; the residual of
every solve is checked against the tolerance the Newton loop relies on.  The
tangents are symmetric, so SuperLU runs in its symmetric mode with diagonal
pivots whenever they are not much smaller than the column maximum.  Partial
pivoting (the default) swaps rows on thin shells, where the bending and
membrane stiffnesses differ by t^2: on the 512-element hyperboloid at
t = 1e-4, U then has 1.6 M nonzeros against 0.5 M in symmetric mode, with no
better residual.

The column ordering is a property of the pattern, so it is computed once,
when the pattern is built.  Free dofs that lie in the same elements have the
same graph neighbours (the five fields of a node, or the nodes inside one
element or on one boundary edge); they form one supervariable.  SuperLU's
minimum degree ordering of A + A^T runs on the small quotient graph of the
supervariables, and each supervariable is expanded into a contiguous run of
dofs.  The pattern stores the map that gathers assembled values straight
into the permuted CSC layout of the free block, so every factorization only
gathers, scales and calls SuperLU with its natural ordering.
"""

from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = ["SparseSymMatrix", "SparsityPattern", "assemble", "free_block",
           "factor_solve", "SolverError"]

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
    dofs kept in the reduced (free-by-free) system.  ``supervariable`` numbers
    the free dofs' groups of equal element sets, and ``order`` lists the free
    dofs in factorization order; ``gather``, ``block_indices`` and
    ``block_indptr`` give the CSC layout of the free block in that order, and
    ``diag`` the positions of its diagonal in the gathered values.
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
        self.free_idx = np.flatnonzero(self.free)
        self.supervariable, perm = _supervariable_order(n_dofs, dofs, self.free_idx)
        self.order = self.free_idx[perm]
        m = dofs.shape[1]
        # keys sorted row-major are the canonical CSR order; slot[k] is the
        # CSR position of the k-th entry of the stacked element matrices
        keys, self.slot = np.unique(
            np.repeat(dofs, m, axis=1).ravel() * n_dofs + np.tile(dofs, (1, m)).ravel(),
            return_inverse=True)
        row, col = np.divmod(keys, n_dofs)
        self.nnz = len(keys)
        self.indptr = _indptr(row, n_dofs)
        self.indices = col
        del keys
        # CSC layout of the free block under the factorization order: its
        # entries sorted by (column, row) position.  The nnz-sized temporaries
        # go as soon as they are used, since this sets the peak memory of a
        # model build
        position = np.full(n_dofs, -1, dtype=np.intc)
        position[self.order] = np.arange(len(self.order))
        in_block = np.flatnonzero(self.free[row] & self.free[col])
        pr, pc = position[row[in_block]], position[col[in_block]]
        del row
        csc = np.argsort(pc.astype(int) * len(self.order) + pr)
        self.gather = in_block[csc]
        self.block_indices = pr[csc]
        pc = pc[csc]
        self.block_indptr = _indptr(pc, len(self.order)).astype(np.intc)
        self.diag = np.flatnonzero(self.block_indices == pc)


def _supervariable_order(n_dofs, element_dofs, free_idx):
    """Supervariable of every free dof and a fill-reducing order of the free
    dofs, both indexed like ``free_idx``.

    Free dofs with the same element set are one supervariable; the minimum
    degree ordering of the supervariable graph is expanded so that each
    supervariable's dofs stay contiguous, in increasing dof order."""
    nT, m = element_dofs.shape
    incidence = scipy.sparse.csr_matrix(
        (np.ones(nT * m), (element_dofs.ravel(), np.repeat(np.arange(nT), m))),
        shape=(n_dofs, nT))
    # the element set of every free dof, padded with -1 (the CSR rows keep
    # the elements in increasing order)
    sub = incidence[free_idx]
    count = np.diff(sub.indptr)
    sets = np.full((len(free_idx), max(count.max(initial=0), 1)), -1)
    sets[np.arange(len(free_idx)).repeat(count),
         np.arange(sub.nnz) - sub.indptr[:-1].repeat(count)] = sub.indices
    _, first, group = np.unique(sets, axis=0, return_index=True, return_inverse=True)
    group = group.ravel()
    # quotient graph: supervariables sharing an element are adjacent; a
    # diagonally dominant value set lets SuperLU factor it without pivoting
    members = incidence[free_idx[first]]
    graph = (members @ members.T + scipy.sparse.identity(len(first))).tocsc()
    graph.data[:] = -1.0
    graph.setdiag(np.diff(graph.indptr))
    lu = scipy.sparse.linalg.splu(graph, permc_spec=PERMC_SPEC,
                                  diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                  options=SUPERLU_OPTIONS)
    # perm_c maps a supervariable to its position in the ordering
    return group, np.argsort(lu.perm_c[group], kind="stable")


def _indptr(row, n):
    indptr = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr


class SparseSymMatrix:
    """Symmetric global matrix with a constrained-dof elimination mask:
    the pattern and the summed value of each of its CSR entries."""

    def __init__(self, pattern, data):
        self.pattern = pattern
        self.data = data

    @cached_property
    def matrix(self):
        """The full matrix as CSR, built when first read."""
        p = self.pattern
        return scipy.sparse.csr_matrix((self.data, p.indices, p.indptr),
                                       shape=(p.n_dofs, p.n_dofs))

    @property
    def dimension(self):
        return self.pattern.n_dofs

    def reduced(self):
        """Free-by-free block as CSR and the global indices of its dofs."""
        idx = self.pattern.free_idx
        return self.matrix[idx][:, idx], idx


def assemble(pattern, element_matrices):
    """Sum the element matrices (nT, m, m) of the pattern's element dofs into
    a global sparse symmetric matrix.  Rows and columns of constrained dofs
    stay in the matrix but are masked out for the solve, which keeps dof
    numbering stable."""
    values = np.asarray(element_matrices, dtype=float)
    data = np.bincount(pattern.slot, values.ravel(), minlength=pattern.nnz)
    return SparseSymMatrix(pattern, data)


def free_block(matrix):
    """The free block of a ``SparseSymMatrix`` in the pattern's CSC layout,
    its Jacobi-scaled copy S A S and the scaling s."""
    p = matrix.pattern
    shape = (len(p.order),) * 2
    block = scipy.sparse.csc_matrix(
        (matrix.data[p.gather], p.block_indices, p.block_indptr), shape=shape)
    # symmetric Jacobi equilibration tames the severe scale differences
    # between displacement and rotation blocks at small thickness
    diag = np.zeros(shape[0])
    diag[p.block_indices[p.diag]] = np.abs(block.data[p.diag])
    diag[diag == 0] = 1.0
    s = 1.0 / np.sqrt(diag)
    col = np.repeat(s, np.diff(p.block_indptr))
    scaled = scipy.sparse.csc_matrix(
        (block.data * s[p.block_indices] * col, p.block_indices, p.block_indptr),
        shape=shape)
    return block, scaled, s


def factor_solve(matrix, rhs):
    """Direct solve on the free dofs of a ``SparseSymMatrix``; constrained
    dofs stay at zero."""
    p = matrix.pattern
    block, scaled, s = free_block(matrix)
    b = np.asarray(rhs)[p.order]
    try:
        lu = scipy.sparse.linalg.splu(scaled, permc_spec="NATURAL",
                                      diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                      options=SUPERLU_OPTIONS)
        y = s * lu.solve(s * b)
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise SolverError("factorization produced non-finite values "
                          "(matrix indefinite or boundary conditions missing)")
    bnorm = np.linalg.norm(b)
    r = b - block @ y
    res = np.linalg.norm(r)
    # iterative refinement recovers the residual tolerance on the badly
    # conditioned systems arising for very small thickness; like LAPACK's
    # xGERFS it stops once a step fails to halve the residual and keeps the
    # iterate with the smaller residual
    for _ in range(5):
        if res <= RESIDUAL_TOL * bnorm:
            break
        y_new = y + s * lu.solve(s * r)
        r = b - block @ y_new
        res_new = np.linalg.norm(r)
        if not res_new <= 0.5 * res:
            if res_new < res:
                y, res = y_new, res_new
            break
        y, res = y_new, res_new
    if res > RESIDUAL_TOL * bnorm:
        # on severely ill conditioned systems (very small thickness) the
        # plain relative residual hits the double precision noise floor
        # eps*||A||*||y||; fall back to the normwise backward error, the
        # standard quality measure for direct solves.  A residual that is
        # not at least close to converged means a genuinely singular or
        # inconsistent system (refinement then stalls at O(1) relative),
        # where a huge solution vector would make the backward error
        # meaninglessly small.
        anorm = abs(block).sum(axis=1).max()
        backward = res / (anorm * np.linalg.norm(y) + bnorm)
        if res > 1e-3 * bnorm or backward > BACKWARD_TOL:
            raise SolverError(
                f"solve residual {res / bnorm:.2e} above tolerance "
                f"(backward error {backward:.2e})"
            )
    x = np.zeros(matrix.dimension)
    x[p.order] = y
    return x
