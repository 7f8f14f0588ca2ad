"""Global sparse symmetric assembly and direct factorization.

The sparsity of an assembled matrix depends only on the element dof sets and
the constrained dofs, not on any value, so a ``SparsityPattern`` is built once
per dof map: the fill-reducing layout of the free-by-free block and the
stored position of every element-matrix entry.  Values are stored in
factorization layout, the free block in its CSC order followed by the
constrained entries, so each assembly only sums the element values into
their stored positions and the free block is a view of them.  The sum is
an ``np.add.at`` through the int32 stored positions: unlike ``bincount``,
which copies an int32 index to intp, it reads them as they are, and it adds
in the same sequential order.  The element matrices may come one block of
consecutive elements at a time, each summed through its slice of the
positions, so that no stack of the whole mesh is formed and every stored
value is still the same sum in the same order.  Every field
has a dof at each node, so the pattern is built on the scalar node graph,
which has fields^2 times fewer entries, and the full structure follows by
index arithmetic: row (f, a) lists the field blocks g * n_scalar + nbr(a).

Problems stay at desk scale, so a direct sparse LU is used: one factorization
and one solve, with no iterative refinement and no test of the solution:
``ShellModel.solve`` judges every solve (``RESIDUAL_TOL``, ``BACKWARD_TOL``
and ``norm_inf``), and ``SolverError`` here means a failed factorization or
a non-finite solution.  The tangents are symmetric, so SuperLU runs in its
symmetric mode with diagonal pivots whenever they are not much smaller than
the column maximum.  Partial pivoting (the default) swaps rows on thin
shells, where the bending and membrane stiffnesses differ by t^2: on the
512-element hyperboloid at t = 1e-4, U then has 1.6 M nonzeros against
0.5 M in symmetric mode, with no better residual.

The column ordering is a property of the pattern, so it is computed once,
when the pattern is built.  Nodes that lie in the same elements have the
same graph neighbours (the nodes inside one element or on one boundary
edge); the free ones and their free fields form one supervariable.
SuperLU's minimum degree ordering of A + A^T runs on the small quotient
graph of the supervariables, the scalar pattern restricted to one
representative node of each, and each supervariable is expanded into a
contiguous run of dofs.  The CSC layout of the free block is read off the
matrix whose values are their own CSR positions: permuted into that order
by scipy's sparse indexing, its free block has the layout as its structure
and, as its values, the CSR position of each of its entries.  Inverted,
that list gives the stored position of every CSR entry, through which the
element entries are summed; the full CSR matrix is rebuilt from the layout
and the coordinates of the other entries only when it is asked for.  There
is no copy of the free block: every factorization scales the stored values
in place by powers of two, exact to apply and to undo as in LAPACK's
xGEEQUB, and restores them as soon as SuperLU (natural ordering) returns.
The scaling, and the row sums of ``norm_inf``, run over the block one run
of columns at a time, and the factor is released once its one solve
returns.  Each of these transients, like an assembly's block of element
matrices, holds about ``BLOCK_BYTES``.
"""

from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = ["SparseSymMatrix", "SparsityPattern", "assemble", "free_block",
           "norm_inf", "factor_solve", "SolverError"]

RESIDUAL_TOL = 1e-10
BACKWARD_TOL = 1e-12

# SuperLU settings for symmetric matrices (see the module docstring).  A
# threshold above zero still takes an off-diagonal pivot when the diagonal
# nearly vanishes, as on indefinite (saddle-point) Green tangents.
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.01
SUPERLU_OPTIONS = {"SymmetricMode": True}

# every transient of an assembly or a factorization that grows with the
# mesh is formed one block of about this many bytes at a time
BLOCK_BYTES = 2 ** 18


class SolverError(Exception):
    """Singular model, factorization breakdown or a solve that does not converge."""


class SparsityPattern:
    """Structure of the matrices assembled from fixed element dof sets, in
    the layout their values are stored in.

    ``element_dofs`` is an (nT, n) array of scalar dofs (nodes) out of
    ``n_scalar``.  Each of ``fields`` fields has a dof at every node: dof
    f * n_scalar + a is field f at node a, and the element matrices are
    ordered (field, node) like the attribute ``element_dofs`` (nT, fields * n).
    ``free`` masks the dofs kept in the reduced (free-by-free) system.
    ``supervariable`` numbers the free dofs' groups of equal element sets,
    and ``order`` lists the free dofs in factorization order, the minimum
    degree ordering of the graph of one representative node per group.
    ``block_indices`` and ``block_indptr`` give the CSC layout of the free
    block in that order, and ``diag`` the positions of its diagonal.

    Values are stored in factorization layout: the free block's entries in
    its CSC order, then the other entries in CSR order, at the rows
    ``rest_rows`` and columns ``rest_cols``.  ``slot`` gives the stored
    position of every entry of the stacked element matrices.
    """

    def __init__(self, n_scalar, element_dofs, free=None, fields=1):
        nodes = np.asarray(element_dofs, dtype=int)
        if nodes.ndim != 2:
            raise ValueError("element dofs must be an (elements, dofs) array")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n_scalar):
            raise IndexError("element dof index out of range")
        nT, n = nodes.shape
        ns, nf = n_scalar, fields
        self.n_dofs = nf * ns
        self.element_dofs = np.hstack([f * ns + nodes for f in range(nf)])
        self.free = np.ones(self.n_dofs, dtype=bool) if free is None else np.array(free, bool)
        self.free_idx = np.flatnonzero(self.free)

        # scalar pattern: its keys sorted row-major are its CSR order, and
        # sslot is the CSR position of every entry of the node blocks
        keys, sslot = np.unique(
            np.repeat(nodes, n, axis=1).ravel() * ns + np.tile(nodes, (1, n)).ravel(),
            return_inverse=True)
        row, col = np.divmod(keys, ns)
        sptr = np.searchsorted(row, np.arange(ns + 1))
        deg = np.diff(sptr)
        snnz = len(keys)
        # row (f, a) lists the field blocks g * ns + nbr(a): it starts at
        # f * nf * snnz + nf * sptr[a], and column g * ns + b is its entry
        # g * deg(a) + rank_a(b)
        self.nnz = nf * nf * snnz
        indptr = np.append(
            (np.arange(nf)[:, None] * (nf * snnz) + nf * sptr[:-1]).ravel(),
            self.nnz).astype(np.int32)
        g = np.arange(nf)[:, None]
        rows = np.empty(nf * snnz, dtype=np.int32)   # field 0; the other fields repeat it
        rows[nf * sptr[row] + g * deg[row] + np.arange(snnz) - sptr[row]] = g * ns + col
        indices = np.tile(rows, nf)

        free_nodes = np.flatnonzero(self.free.reshape(nf, ns).any(axis=0))
        scalar = scipy.sparse.csr_matrix((np.ones(snnz), col, sptr), shape=(ns, ns))
        group, position = _supervariable_order(nodes, free_nodes, scalar)
        node_group = np.full(ns, -1)
        node_group[free_nodes] = group
        self.supervariable = node_group[self.free_idx % ns]
        # each supervariable's free dofs stay contiguous, in dof order
        self.order = self.free_idx[np.argsort(position[self.supervariable], kind="stable")]
        self.block_indices, self.block_indptr, self.diag, layout = _stored_layout(
            indices, indptr, self.order)
        # the entries after the free block are stored in CSR order
        rest = np.flatnonzero(layout >= len(self.block_indices))
        self.rest_rows = (np.searchsorted(indptr, rest, side="right") - 1).astype(np.int32)
        self.rest_cols = indices[rest]
        del rest, indices

        # slot[k] is the stored position of the k-th entry of the stacked
        # element matrices, (element, field, node, field, node), through its
        # CSR position; it stays int32, which np.add.at reads without a copy
        rank = sslot.reshape(nT, n, 1, n) - sptr[nodes][..., None, None]
        in_row = deg[nodes][..., None, None] * g + rank
        slot = (indptr[self.element_dofs].reshape(nT, nf, n, 1, 1)
                + in_row[:, None]).ravel()
        del rank, in_row
        self.slot = layout[slot]


def _stored_layout(indices, indptr, order):
    """CSC layout (indices, indptr) of the free block of a CSR structure in
    the factorization order ``order``, the positions of the block's diagonal
    in it, and the stored position of every CSR entry: the block's entries
    in CSC order, then the others in CSR order.

    The permuted free block of the matrix whose values are their own CSR
    positions lists the CSR position of each block entry in CSC order;
    tocsc sorts the rows of every column, and selecting whole columns keeps
    them sorted."""
    nnz, n = len(indices), len(indptr) - 1
    positions = scipy.sparse.csr_matrix(
        (np.arange(nnz, dtype=np.int32), indices, indptr), shape=(n, n))
    block = positions[order].tocsc()[:, order]
    column = np.repeat(np.arange(len(order)), np.diff(block.indptr))
    diag = np.flatnonzero(block.indices == column)
    nb = len(block.data)
    rest = np.ones(nnz, dtype=bool)
    rest[block.data] = False
    layout = np.empty(nnz, dtype=np.int32)
    layout[block.data] = np.arange(nb, dtype=np.int32)
    layout[rest] = np.arange(nb, nnz, dtype=np.int32)
    return block.indices, block.indptr, diag, layout


def _supervariable_order(element_nodes, free_nodes, scalar):
    """Supervariables of the free nodes and their order.

    Free nodes with the same element set are one supervariable.  Returns the
    supervariable of every free node and the position of every supervariable
    in the minimum degree ordering of the supervariable graph: the scalar
    pattern restricted to one representative node per supervariable."""
    ns = scalar.shape[0]
    # the element set of every node in increasing order, padded with -1
    flat = element_nodes.ravel()
    entries = np.argsort(flat, kind="stable")
    count = np.bincount(flat, minlength=ns)
    sets = np.full((ns, max(count.max(initial=0), 1)), -1)
    sets[flat[entries], np.arange(flat.size) - np.repeat(np.cumsum(count) - count, count)] = (
        entries // element_nodes.shape[1])
    _, first, group = np.unique(sets[free_nodes], axis=0, return_index=True,
                                return_inverse=True)
    rep = free_nodes[first]
    # the graph with every diagonal entry and a diagonally dominant value
    # set, which SuperLU factors without pivoting
    graph = scalar[rep].tocsc()[:, rep] + scipy.sparse.identity(len(rep), format="csc")
    graph.data[:] = -1.0
    graph.setdiag(np.diff(graph.indptr))
    lu = scipy.sparse.linalg.splu(graph, permc_spec=PERMC_SPEC,
                                  diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                  options=SUPERLU_OPTIONS)
    # perm_c maps a supervariable to its position in the ordering
    return group.ravel(), lu.perm_c


class SparseSymMatrix:
    """Symmetric global matrix with a constrained-dof elimination mask: the
    pattern and the summed value of each entry in the pattern's
    factorization layout, from which ``matrix`` rebuilds the full CSR."""

    def __init__(self, pattern, data):
        self.pattern = pattern
        self.data = data

    @cached_property
    def matrix(self):
        """The full matrix as CSR, rebuilt from the stored layout when first read."""
        p = self.pattern
        rows = np.concatenate([p.order[p.block_indices], p.rest_rows])
        cols = np.concatenate([np.repeat(p.order, np.diff(p.block_indptr)), p.rest_cols])
        return scipy.sparse.coo_matrix((self.data, (rows, cols)), shape=(p.n_dofs,) * 2).tocsr()

    def reduced(self):
        """Free-by-free block as CSR and the global indices of its dofs."""
        idx = self.pattern.free_idx
        return self.matrix[idx][:, idx], idx


def assemble(pattern, element_matrices):
    """Sum the element matrices (nT, m, m) of the pattern's element dofs into
    a global sparse symmetric matrix.  ``element_matrices`` is any iterable of
    consecutive blocks of them in element order, such as that array (its
    element blocks) or a generator that forms one block at a time; each block
    is summed through its slice of ``slot``, so every stored value is the same
    sum in the same order.  Rows and columns of constrained dofs stay in the
    matrix but are masked out for the solve, which keeps dof numbering stable."""
    n = len(pattern.slot)
    data = np.zeros(pattern.nnz)
    start = 0
    for block in element_matrices:
        values = np.asarray(block, dtype=float).ravel()
        stop = start + values.size
        if stop > n:
            raise ValueError(f"element matrices hold more than the pattern's {n} entries")
        np.add.at(data, pattern.slot[start:stop], values)
        start = stop
    if start != n:
        raise ValueError(f"element matrices hold {start} entries, the pattern {n}")
    return SparseSymMatrix(pattern, data)


def free_block(matrix):
    """The free block of a ``SparseSymMatrix`` in the pattern's CSC layout,
    a view of the stored values, and its symmetric Jacobi scaling s in powers
    of two, s^2 |diag| in [0.5, 2), which tames the severe scale differences
    between displacement and rotation blocks at small thickness."""
    p = matrix.pattern
    n = len(p.order)
    block = scipy.sparse.csc_matrix(
        (matrix.data[:len(p.block_indices)], p.block_indices, p.block_indptr), shape=(n, n))
    diag = np.ones(n)
    diag[p.block_indices[p.diag]] = np.abs(block.data[p.diag])
    diag[diag == 0] = 1.0
    return block, np.ldexp(1.0, -(np.frexp(diag)[1] // 2))


def _column_runs(indptr):
    """Runs of consecutive columns of a CSC structure, as slices of the
    columns and of their entries, that hold at most BLOCK_BYTES of float64
    values each, or a single column that holds more."""
    size, n, start = BLOCK_BYTES // 8, len(indptr) - 1, 0
    while start < n:
        end = int(indptr[start]) + size
        stop = max(start + 1, int(np.searchsorted(indptr, end, "right")) - 1)
        yield slice(start, stop), slice(indptr[start], indptr[stop])
        start = stop


def _scale(block, s):
    """Scale a CSC matrix in place to diag(s) A diag(s), one run of columns
    at a time, rows first.  ``np.take`` copies a run's int32 row indices to
    intp and gathers faster than indexing with them."""
    for cols, entries in _column_runs(block.indptr):
        values = block.data[entries]
        values *= np.take(s, block.indices[entries])
        values *= np.repeat(s[cols], np.diff(block.indptr[cols.start:cols.stop + 1]))


def _max_row_sum(block):
    """max_i sum_j |a_ij| of a CSC matrix, each row summed in column order."""
    rows = np.zeros(block.shape[0])
    for _, entries in _column_runs(block.indptr):
        np.add.at(rows, block.indices[entries], np.abs(block.data[entries]))
    return rows.max()


def norm_inf(matrix):
    """Infinity norm (largest absolute row sum) of a ``SparseSymMatrix``'s free block."""
    return _max_row_sum(free_block(matrix)[0])


def factor_solve(matrix, rhs):
    """Direct solve on the free dofs of a ``SparseSymMatrix``; constrained
    dofs stay at zero.  SuperLU factors the stored free block, scaled in
    place by s and restored once it returns: its factor reads no value after.
    The factor solves once and is released; the solution is not tested, and
    ``SolverError`` means a failed factorization or a non-finite solution."""
    p = matrix.pattern
    block, s = free_block(matrix)
    b = np.asarray(rhs)[p.order]
    _scale(block, s)
    try:
        lu = scipy.sparse.linalg.splu(block, permc_spec="NATURAL",
                                      diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                      options=SUPERLU_OPTIONS)
        y = s * lu.solve(s * b)
        del lu
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    finally:
        _scale(block, 1 / s)   # exact, like s, and cheaper to apply than a division
    if not np.all(np.isfinite(y)):
        raise SolverError("factorization produced non-finite values "
                          "(matrix indefinite or boundary conditions missing)")
    x = np.zeros(p.n_dofs)
    x[p.order] = y
    return x
