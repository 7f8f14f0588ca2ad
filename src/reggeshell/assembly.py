"""Global sparse symmetric assembly and direct factorization.

The sparsity of an assembled matrix depends only on the element dof sets and
the constrained dofs, not on any value, so a ``SparsityPattern`` is built once
per dof map: the fill-reducing layout of the free-by-free block and the
stored position of every element-matrix entry.  The constrained dofs are
eliminated before the solve, so only the free block is stored, in its CSC
order, and then one sink, never read, that sums every element entry in a
constrained row or column.  So each assembly only sums the element values
into their stored positions, and the free block is a view of them.  The
sum is an ``np.add.at`` through the int32 stored positions: unlike
``bincount``, which copies an int32 index to intp, it reads them as they
are, and it adds in the same sequential order.  The element matrices may
come one block of consecutive elements at a time, each summed through its
slice of the positions, so that no stack of the whole mesh is formed and
every stored value is still the same sum in the same order.  Every field
has a dof at each node, so the pattern is built on the scalar node graph,
which has fields^2 times fewer entries.

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
edge); the free ones and their free fields form one supervariable, as
``np.unique`` numbers their element sets.  SuperLU's minimum degree ordering
of A + A^T runs on the small quotient graph of the supervariables, the
scalar pattern that scipy selects at one representative node of each, and
each supervariable is expanded into a contiguous run of dofs.  The ordering
needs no factorization: SuperLU computes it, and the postorder of its
elimination tree, before it factors, so an incomplete factorization that
drops every off-diagonal entry returns the same ``perm_c``.  The layout
then follows from that graph by index arithmetic.  Every free-block column
of a supervariable holds the whole runs of its neighbours, in run order, so
the rows of each column and the stored position of each free entry follow
from the offsets of the runs in the graph's columns; the constrained entries
all take the sink's position.  No array the size of the matrix or of the
element entries is formed but the kept row indices and stored positions,
written in int32 one run of columns or one block of elements at a time.  An
assembled matrix owns one view of its free block, ``SparseSymMatrix.block``,
and the factorization, the norm of ``norm_inf``, the reduced matrix and the
free block in dof numbering all read it; there is no copy of the free block
on any pattern.  Every factorization scales the stored values in place
by powers of two, exact to apply and to undo as in LAPACK's xGEEQUB, and
restores them as soon as SuperLU (natural ordering) returns.  The scaling,
and the row sums of ``norm_inf``, run over the block one run of columns at a
time, and the factor is released once its one solve returns.
``BLOCK_BYTES`` is the one byte budget of these transients and of every other
that grows with the mesh, read when the blocks are cut: the column runs, and
the slices of ``item_blocks``, which cut the pattern's ``slot`` and a shell
model's element tangents and load points.
"""

from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = ["SparseSymMatrix", "SparsityPattern", "assemble", "norm_inf", "factor_solve",
           "SolverError"]

RESIDUAL_TOL = 1e-10
BACKWARD_TOL = 1e-12

# SuperLU settings for symmetric matrices (see the module docstring).  A
# threshold above zero still takes an off-diagonal pivot when the diagonal
# nearly vanishes, as on indefinite (saddle-point) Green tangents.
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.01
SUPERLU_OPTIONS = {"SymmetricMode": True}

# every transient that grows with the mesh, in an assembly, a factorization,
# a tangent or a load vector, is formed one block of about this many bytes
# at a time
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
    block in that order.  Each group's free dofs make one run of ``order``,
    and each block column of a group holds the whole runs of the groups it
    shares an element with, so the layout is built on the graph of the
    groups, never on the matrix.

    Values are stored in factorization layout: the free block's entries in
    its CSC order, then one sink at position ``len(block_indices)``, which
    sums every element entry in a constrained row or column and is never
    read.  ``slot`` gives the stored position of every entry of the stacked
    element matrices.  Every array a pattern keeps is read-only.
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

        # scalar pattern: its keys sorted row-major, and sslot, the index of
        # every entry of the node blocks among them
        keys, sslot = np.unique(
            np.repeat(nodes, n, axis=1).ravel() * ns + np.tile(nodes, (1, n)).ravel(),
            return_inverse=True)
        row, col = np.divmod(keys, ns)
        del keys
        sptr = np.searchsorted(row, np.arange(ns + 1))

        free_nodes = np.flatnonzero(self.free.reshape(nf, ns).any(axis=0))
        group, position, graph = _supervariable_order(nodes, free_nodes, sptr, col)
        node_group = np.full(ns, -1)
        node_group[free_nodes] = group
        self.supervariable = node_group[self.free_idx % ns]
        # each supervariable's free dofs stay contiguous, in dof order
        self.order = self.free_idx[np.argsort(position[self.supervariable], kind="stable")]
        node_position = np.full(ns, -1)
        node_position[free_nodes] = position[group]
        self.block_indptr, self.block_indices, near = _free_layout(
            graph, position, np.bincount(position[self.supervariable], minlength=len(position)),
            node_position[row], node_position[col])
        del row, col, node_position

        # slot[k] is the stored position of the k-th entry of the stacked
        # element matrices, (element, field, node, field, node), written in
        # int32, which np.add.at reads without a copy, one block of elements
        # at a time: free row (f, a) of free column (g, b) at the column's
        # start, plus near[(b, a)], plus the row's place in the order, and
        # every entry outside the block at the sink
        m = nf * n
        place = np.zeros(self.n_dofs, dtype=np.int32)
        place[self.order] = np.arange(len(self.order))
        column_start = self.block_indptr[place]
        sslot = sslot.reshape(nT, n, n)
        self.slot = np.empty(nT * m * m, dtype=np.int32)
        sink = len(self.block_indices)
        for t in item_blocks(nT, 8 * m * m):
            dofs, e = self.element_dofs[t], sslot[t]
            b = len(dofs)
            value = self.slot[t.start * m * m:t.stop * m * m].reshape(b, m, m)
            column = (near[e.swapaxes(1, 2)][:, :, None, :]
                      + column_start[dofs].reshape(b, 1, nf, n))
            np.add(place[dofs].reshape(b, nf, n, 1), column.reshape(b, 1, n, m),
                   out=value.reshape(b, nf, n, m))
            value[~(self.free[dofs][:, :, None] & self.free[dofs][:, None, :])] = sink
        read_only(self)


def _free_layout(graph, position, run, pb, pa):
    """CSC layout of the free block, built on the supervariable graph.

    ``graph`` holds the keys column * supervariables + row of the graph's
    entries, ``position`` the position of every supervariable in the
    ordering, and ``run`` the length, by position, of its run of free dofs
    in the order.  Every block column of a supervariable holds the whole
    runs of its neighbours in the graph, one after another, so the layout
    follows from per-neighbour offsets.  ``pb`` and ``pa`` give the
    supervariable positions of the row node b and the column node a of
    every scalar entry, -1 for a node without free dofs.  Returns the
    block's indptr and indices, and ``near``: for every scalar entry (b, a)
    between free nodes, the offset of a's run in a block column of b, less
    the run's start in the order."""
    nsv = len(run)
    start = np.cumsum(run) - run
    # the graph in position order, as sorted keys column * nsv + row
    qkeys = np.sort(position[graph // nsv] * nsv + position[graph % nsv])
    qcol, qrow = np.divmod(qkeys, nsv)
    # graph column q lists the runs of rows qrow, which make entries
    # first[q]:first[q + 1] of the concatenated columns, each at offset `at`
    ends = np.append(0, np.cumsum(run[qrow]))
    first = ends[np.searchsorted(qcol, np.arange(nsv + 1))]
    at = ends[:-1] - first[qcol]
    column = np.repeat(np.arange(nsv), run)
    indptr = np.append(0, np.cumsum(np.diff(first)[column])).astype(np.int32)
    # the concatenated rows, copied into the block columns of their
    # supervariable one run of columns at a time
    runs = _ranges(start[qrow], run[qrow]).astype(np.int32)
    shift = (first[column] - indptr[:-1]).astype(np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    for cols, entries in _column_runs(indptr):
        k = np.repeat(shift[cols], np.diff(indptr[cols.start:cols.stop + 1]))
        k += np.arange(entries.start, entries.stop, dtype=np.int32)
        indices[entries] = runs[k]
    both = np.flatnonzero((pa >= 0) & (pb >= 0))
    near = np.zeros(len(pa), dtype=np.int32)
    near[both] = at[np.searchsorted(qkeys, pb[both] * nsv + pa[both])] - start[pa[both]]
    return indptr, indices, near


def _supervariable_order(element_nodes, free_nodes, sptr, col):
    """Supervariables of the free nodes, their order and their graph.

    Free nodes with the same element set are one supervariable, numbered in
    the lexicographic order of the sets; its first node represents it.  The
    supervariable graph is the scalar pattern (``sptr``, ``col``) restricted
    to the representatives.  Returns the supervariable of every free node,
    the position of every supervariable in the minimum degree ordering of
    the graph, and the graph's entries as sorted keys column * supervariables
    + row."""
    ns = len(sptr) - 1
    # the element set of every node in increasing order, padded with -1
    flat = element_nodes.ravel()
    entries = np.argsort(flat, kind="stable")
    count = np.bincount(flat, minlength=ns)
    sets = np.full((ns, max(count.max(initial=0), 1)), -1)
    sets[flat[entries], np.arange(flat.size) - np.repeat(np.cumsum(count) - count, count)] = (
        entries // element_nodes.shape[1])
    # the distinct sets in lexicographic order; numpy 2.0.0 returns the
    # inverse with the extra axes of `axis`, so it is flattened
    _, first, group = np.unique(sets[free_nodes], axis=0, return_index=True, return_inverse=True)
    rep, nq = free_nodes[first], len(first)
    # the pattern is symmetric, so (sptr, col) is its CSC structure as well
    graph = scipy.sparse.csc_matrix((np.ones(len(col)), col, sptr), shape=(ns, ns))[:, rep][rep]
    graph.sort_indices()
    keys = np.repeat(np.arange(nq), np.diff(graph.indptr)) * nq + graph.indices
    # SuperLU orders the graph plus a dominant diagonal, which a node in no
    # element gets too, and postorders its elimination tree before it
    # factors; the incomplete factor drops every off-diagonal entry, so the
    # ordering costs no fill
    lu = scipy.sparse.linalg.spilu(graph + nq * scipy.sparse.identity(nq, format="csc"),
                                   drop_tol=np.inf, fill_factor=1, permc_spec=PERMC_SPEC,
                                   diag_pivot_thresh=DIAG_PIVOT_THRESH, options=SUPERLU_OPTIONS)
    # perm_c maps a supervariable to its position in the ordering
    return group.ravel(), lu.perm_c, keys


def read_only(obj):
    """Make every array an object keeps, alone or in a tuple, read-only."""
    for value in vars(obj).values():
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


def _ranges(starts, lengths):
    """The ranges starts[i]:starts[i] + lengths[i], one after another."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


class SparseSymMatrix:
    """Symmetric global matrix with the constrained dofs eliminated: the
    pattern and the values in its factorization layout, the free block and
    the sink.  ``block``, the one view of the free block, is what every
    solve, norm, ``reduced`` and ``matrix`` read."""

    def __init__(self, pattern, data):
        self.pattern = pattern
        self.data = data

    @cached_property
    def block(self):
        """The free block in the pattern's CSC layout, rows and columns in
        factorization order, a view of the stored values."""
        p = self.pattern
        n = len(p.order)
        # all values but the sink: a view of over half its base, which scipy keeps
        return scipy.sparse.csc_matrix((self.data[:-1], p.block_indices, p.block_indptr),
                                       shape=(n, n))

    @cached_property
    def matrix(self):
        """The free block as CSR in dof numbering, with the constrained rows
        and columns empty, copied from ``block`` when first read.  Kept only
        because the benchmark's tracer (``perfbench/tracer.py``) reads
        ``matrix.nnz``."""
        p = self.pattern
        rows, cols = p.order[p.block_indices], np.repeat(p.order, np.diff(p.block_indptr))
        return scipy.sparse.coo_matrix((self.block.data, (rows, cols)),
                                       shape=(p.n_dofs,) * 2).tocsr()

    def reduced(self):
        """Free-by-free block as CSR in global dof order and the global
        indices of its dofs, permuted from ``block``."""
        perm = np.argsort(self.pattern.order)
        return self.block[perm][:, perm].tocsr(), self.pattern.free_idx


def assemble(pattern, element_matrices):
    """Sum the element matrices (nT, m, m) of the pattern's element dofs into
    a global sparse symmetric matrix.  ``element_matrices`` is any iterable of
    consecutive blocks of them in element order, such as that array (its
    element blocks) or a generator that forms one block at a time; each block
    is summed through its slice of ``slot``, so every stored value is the same
    sum in the same order.  The entries in a constrained row or column are
    summed into the sink and discarded; the matrix stores the free block."""
    n = len(pattern.slot)
    data = np.zeros(len(pattern.block_indices) + 1)
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


def item_blocks(n, item_bytes):
    """Consecutive slices of n items of ``item_bytes`` bytes each, each of
    at most BLOCK_BYTES, as read at this call, or of one item."""
    size = max(1, BLOCK_BYTES // max(item_bytes, 1))
    return (slice(i, min(i + size, n)) for i in range(0, n, size))


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


def _jacobi_scaling(block):
    """The symmetric Jacobi scaling s of a CSC matrix in powers of two,
    s^2 |diag| in [0.5, 2), which tames the severe scale differences between
    displacement and rotation blocks at small thickness.  A diagonal entry
    that is zero or not stored has exponent 0 in ``frexp``, so s = 1."""
    return np.ldexp(1.0, -(np.frexp(block.diagonal())[1] // 2))


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
    return _max_row_sum(matrix.block)


def factor_solve(matrix, rhs):
    """Direct solve on the free dofs of a ``SparseSymMatrix``; constrained
    dofs stay at zero.  SuperLU factors the stored free block, scaled in
    place by s and restored once it returns: its factor reads no value after.
    The factor solves once and is released; the solution is not tested, and
    ``SolverError`` means a failed factorization or a non-finite solution."""
    p, block = matrix.pattern, matrix.block
    s = _jacobi_scaling(block)
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
