import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from reggeshell import assembly
from reggeshell.assembly import (
    DIAG_PIVOT_THRESH,
    PERMC_SPEC,
    RESIDUAL_TOL,
    SUPERLU_OPTIONS,
    SolverError,
    SparsityPattern,
    assemble,
    factor_solve,
    free_block,
)
from reggeshell.geometry import BENCHMARKS, make_benchmark_mesh
from reggeshell.shell import LoadSpec, MaterialParams, ShellConfig, ShellModel


def laplace_1d(n, free=None):
    """Sparsity pattern and local stiffness stack of a 1D P1 Laplacian on n
    elements."""
    dofs = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    k = np.array([[1.0, -1.0], [-1.0, 1.0]]) * n
    return SparsityPattern(n + 1, dofs, free), np.broadcast_to(k, (n, 2, 2))


def dense_sum(n_dofs, dofs, local):
    dense = np.zeros((n_dofs, n_dofs))
    for d, k in zip(dofs, local):
        dense[np.ix_(d, d)] += k
    return dense


class TestAssemble:
    def test_matches_dense_sum(self):
        n = 6
        pattern, local = laplace_1d(n)
        mat = assemble(pattern, local)
        dense = dense_sum(n + 1, pattern.element_dofs, local)
        assert np.allclose(mat.matrix.toarray(), dense, atol=1e-14)

    def test_row_sums_vanish_for_translation_invariant_operator(self):
        mat = assemble(*laplace_1d(6))
        assert np.allclose(mat.matrix @ np.ones(7), 0.0, atol=1e-12)

    def test_empty_contributions(self):
        pattern = SparsityPattern(4, np.zeros((0, 2), dtype=int))
        mat = assemble(pattern, np.zeros((0, 2, 2)))
        assert mat.matrix.nnz == 0

    @pytest.mark.parametrize("split", ["random", "one_element", "empty_block", "generator"])
    def test_consecutive_blocks_sum_bit_for_bit(self, split):
        # random values, so a sum in another order would differ in the last bits
        dofs, local, free = random_blocks(n_elements=40, seed=8)
        pattern = SparsityPattern(30, dofs, free)
        rng = np.random.default_rng(4)
        blocks = {
            "random": lambda: np.split(local, np.sort(rng.choice(np.arange(1, 40), 6, False))),
            "one_element": lambda: np.split(local, 40),
            "empty_block": lambda: [local[:0], local[:17], local[17:17], local[17:], local[:0]],
            "generator": lambda: (local[i:i + 7] for i in range(0, 40, 7)),
        }[split]()
        assert assemble(pattern, blocks).data.tobytes() == assemble(pattern, local).data.tobytes()

    @pytest.mark.parametrize("blocks", [
        lambda local: [local[:5], local[6:]],
        lambda local: [local, local[:1]],
        lambda local: iter([local[:, :1]]),
    ], ids=["one_short", "one_over", "part_of_each"])
    def test_blocks_of_another_size_rejected(self, blocks):
        dofs, local, free = random_blocks(seed=8)
        with pytest.raises(ValueError, match="element matrices hold"):
            assemble(SparsityPattern(30, dofs, free), blocks(local))


def random_blocks(n_dofs=30, n_elements=12, m=6, seed=3):
    """Random symmetric element blocks on random dof sets, some dofs constrained."""
    rng = np.random.default_rng(seed)
    dofs = np.array([rng.choice(n_dofs, m, replace=False) for _ in range(n_elements)])
    local = rng.standard_normal((n_elements, m, m))
    local = local + np.swapaxes(local, 1, 2)
    free = rng.random(n_dofs) > 0.3
    return dofs, local, free


def dense_matrix(A):
    """A dense symmetric matrix as assembled from one element holding every dof."""
    n = len(A)
    return assemble(SparsityPattern(n, np.arange(n)[None]), A[None])


def hyperboloid_model(level, order):
    mesh, chart = make_benchmark_mesh("hyperboloid", level)
    return ShellModel(mesh, chart, MaterialParams(2.85e4, 0.3),
                      ShellConfig(thickness=0.1, order=order, membrane_reduction="regge"))


def scaled_oracle(mat, s):
    """P (S A S) P^T of the free block by fancy indexing, as CSC, for the
    scaling s in factorization order."""
    reduced, idx = mat.reduced()
    perm = np.searchsorted(idx, mat.pattern.order)
    s = s[np.argsort(perm)]
    row = np.repeat(np.arange(len(s)), np.diff(reduced.indptr))
    sas = scipy.sparse.csr_matrix(
        (reduced.data * s[row] * s[reduced.indices], reduced.indices, reduced.indptr),
        shape=reduced.shape)
    oracle = sas[perm][:, perm].tocsc()
    oracle.sort_indices()
    return oracle


def element_sets(pattern):
    """The sorted element set of every free dof, by brute force."""
    sets = [[] for _ in range(pattern.n_dofs)]
    for t, dofs in enumerate(pattern.element_dofs):
        for d in dofs:
            sets[d].append(t)
    return [tuple(sets[d]) for d in pattern.free_idx]


class TestSparsityPattern:
    def test_random_blocks_match_dense_sum(self):
        dofs, local, free = random_blocks()
        mat = assemble(SparsityPattern(30, dofs, free), local)
        assert np.allclose(mat.matrix.toarray(), dense_sum(30, dofs, local), rtol=0, atol=1e-14)

    def test_reduced_matches_fancy_indexing(self):
        dofs, local, free = random_blocks(seed=5)
        mat = assemble(SparsityPattern(30, dofs, free), local)
        block, idx = mat.reduced()
        assert np.array_equal(idx, np.flatnonzero(free))
        oracle = mat.matrix[np.ix_(idx, idx)]
        assert np.array_equal(block.toarray(), oracle.toarray())

    @pytest.mark.parametrize("source", ["random_blocks", "shell"])
    def test_stored_layout_reproduces_scaled_free_block(self, source):
        if source == "random_blocks":
            dofs, local, free = random_blocks(seed=5)
            mat = assemble(SparsityPattern(30, dofs, free), local)
        else:
            model = hyperboloid_model(1, 3)
            mat = model.hessian(np.zeros(model.num_dofs))
        block, s = free_block(mat)
        oracle = scaled_oracle(mat, np.ones_like(s))
        assert np.array_equal(block.indptr, oracle.indptr)
        assert np.array_equal(block.indices, oracle.indices)
        assert np.array_equal(block.data, oracle.data)
        # a view of the stored values and a power-of-two scaling, exact to
        # apply, that brings every nonzero diagonal entry into [0.5, 2)
        assert np.shares_memory(block.data, mat.data)
        assert np.all(np.frexp(s)[0] == 0.5)
        diag = abs(block.diagonal())
        assert np.all(np.where(diag == 0, s == 1, (s * s * diag >= 0.5) & (s * s * diag < 2)))
        col = np.repeat(s, np.diff(block.indptr))
        assert np.array_equal(block.data * s[block.indices] * col, scaled_oracle(mat, s).data)

    def test_supervariables_have_equal_element_sets(self):
        model = hyperboloid_model(1, 3)
        p = model._pattern
        sets = element_sets(p)
        group_of_set = {}
        for g, s in zip(p.supervariable, sets):
            assert group_of_set.setdefault(s, g) == g
        # one group per distinct element set
        assert len(group_of_set) == len(np.unique(p.supervariable))
        # the free fields of each scalar dof share one group
        ns = model.num_scalar_dofs
        group = np.full(p.n_dofs, -1)
        group[p.free_idx] = p.supervariable
        fields = group.reshape(5, ns)
        for node in range(ns):
            assert len(np.unique(fields[fields[:, node] >= 0, node])) <= 1
        # an element's interior node and its boundary edge nodes form one group
        assert np.bincount(p.supervariable).max() > 5
        # the factorization order keeps every group contiguous
        runs = np.count_nonzero(np.diff(group[p.order])) + 1
        assert runs == len(group_of_set)

    def test_out_of_range_dof_rejected(self):
        with pytest.raises(IndexError):
            SparsityPattern(3, [[0, 5]])
        with pytest.raises(IndexError):
            SparsityPattern(3, [[-1, 2]])


def csr_indptr(row, n):
    return np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))])


def sort_based_pattern(n_dofs, dofs, free):
    """Every pattern array built by sorting the element-entry keys of all
    dofs, with supervariables from the dof-by-element incidence."""
    free_idx = np.flatnonzero(free)
    nT, m = dofs.shape
    incidence = scipy.sparse.csr_matrix(
        (np.ones(nT * m), (dofs.ravel(), np.repeat(np.arange(nT), m))), shape=(n_dofs, nT))
    sub = incidence[free_idx]
    count = np.diff(sub.indptr)
    sets = np.full((len(free_idx), max(count.max(initial=0), 1)), -1)
    sets[np.arange(len(free_idx)).repeat(count),
         np.arange(sub.nnz) - sub.indptr[:-1].repeat(count)] = sub.indices
    _, first, group = np.unique(sets, axis=0, return_index=True, return_inverse=True)
    group = group.ravel()
    members = incidence[free_idx[first]]
    graph = (members @ members.T + scipy.sparse.identity(len(first))).tocsc()
    graph.data[:] = -1.0
    graph.setdiag(np.diff(graph.indptr))
    lu = scipy.sparse.linalg.splu(graph, permc_spec=PERMC_SPEC,
                                  diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                  options=SUPERLU_OPTIONS)
    order = free_idx[np.argsort(lu.perm_c[group], kind="stable")]
    keys, slot = np.unique(
        np.repeat(dofs, m, axis=1).ravel() * n_dofs + np.tile(dofs, (1, m)).ravel(),
        return_inverse=True)
    row, col = np.divmod(keys, n_dofs)
    position = np.full(n_dofs, -1)
    position[order] = np.arange(len(order))
    in_block = np.flatnonzero(free[row] & free[col])
    pr, pc = position[row[in_block]], position[col[in_block]]
    csc = np.argsort(pc * len(order) + pr)
    return dict(slot=slot, indptr=csr_indptr(row, n_dofs), indices=col,
                supervariable=group, order=order, gather=in_block[csc],
                block_indices=pr[csc], block_indptr=csr_indptr(pc[csc], len(order)),
                diag=np.flatnonzero(pr[csc] == pc[csc]))


def assert_matches_sort_based(pattern, n_dofs, dofs, free):
    oracle = sort_based_pattern(n_dofs, dofs, free)
    indptr, indices = oracle.pop("indptr"), oracle.pop("indices")
    nnz = len(indices)
    assert pattern.nnz == nnz
    # the stored layout: the gathered free block, then the other CSR entries
    gather = oracle.pop("gather")
    rest = np.setdiff1d(np.arange(nnz), gather)
    layout = np.empty(nnz, dtype=int)
    layout[np.concatenate([gather, rest])] = np.arange(nnz)
    csr_slot = oracle["slot"]
    row = np.repeat(np.arange(n_dofs), np.diff(indptr))
    oracle.update(slot=layout[csr_slot], rest_rows=row[rest], rest_cols=indices[rest])
    for name, expected in oracle.items():
        assert np.array_equal(getattr(pattern, name), expected), name
    # distinct values in every element entry: the full matrix read back
    # through the layout is the CSR sum of the element entries
    values = np.arange(1.0, csr_slot.size + 1).reshape(len(dofs), *(dofs.shape[1],) * 2)
    matrix = assemble(pattern, values).matrix
    assert np.array_equal(matrix.indptr, indptr)
    assert np.array_equal(matrix.indices, indices)
    assert np.array_equal(matrix.data, np.bincount(csr_slot, values.ravel(), minlength=nnz))


class TestScalarNodePattern:
    """The pattern derived from the scalar node pattern equals the one
    sorted from the entries of every dof, array for array."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["cylinder", "hemisphere", "unibend_cylinder"])
    def test_shell_models(self, name, order):
        mesh, chart = make_benchmark_mesh(name)
        model = ShellModel(mesh, chart, MaterialParams(2.85e4, 0.3),
                           ShellConfig(thickness=0.1, order=order))
        fixed = ~model.free.reshape(5, -1)
        # symmetry markers fix some fields of a node, clamped edges all
        partly = fixed.any(axis=0) & ~fixed.all(axis=0)
        assert partly.any() == (name != "unibend_cylinder")
        assert fixed.all(axis=0).any() == (name != "cylinder")
        assert_matches_sort_based(model._pattern, model.num_dofs, model.element_dofs,
                                  model.free)

    @pytest.mark.parametrize("name, level, order", [("hyperboloid", 3, 2), ("cylinder", 2, 4)],
                             ids=["thickness_scan", "locking_sweep_reference"])
    def test_benchmark_models(self, name, level, order):
        # the 512-element hyperboloid (300,825 entries) and the order-4
        # cylinder reference (611,225 entries), both with Regge
        mesh, chart = make_benchmark_mesh(name, level)
        model = ShellModel(mesh, chart, MaterialParams(2.85e4, 0.3),
                           ShellConfig(thickness=0.1, order=order, membrane_reduction="regge"))
        assert_matches_sort_based(model._pattern, model.num_dofs, model.element_dofs,
                                  model.free)

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_random_blocks(self, seed):
        dofs, _, free = random_blocks(seed=seed)
        assert_matches_sort_based(SparsityPattern(30, dofs, free), 30, dofs, free)

    def test_fields_share_the_scalar_dofs(self):
        dofs, _, _ = random_blocks(n_dofs=10, seed=6)
        free = np.random.default_rng(6).random(30) > 0.3
        pattern = SparsityPattern(10, dofs, free, fields=3)
        full = np.hstack([f * 10 + dofs for f in range(3)])
        assert np.array_equal(pattern.element_dofs, full)
        assert_matches_sort_based(pattern, 30, full, free)

    @pytest.mark.parametrize("free_node", [None, 0, 2])
    def test_no_or_one_free_dof(self, free_node):
        # with node 0 free alone, the one gathered position is CSR position
        # 0, an explicit zero of the index-valued matrix that must be kept
        n = 4
        free = np.zeros(n + 1, dtype=bool)
        if free_node is not None:
            free[free_node] = True
        pattern, local = laplace_1d(n, free)
        dofs = pattern.element_dofs
        assert_matches_sort_based(pattern, n + 1, dofs, free)
        assert len(pattern.order) == len(pattern.block_indices) == len(pattern.diag) == free.sum()
        rhs = np.arange(1.0, n + 2)
        expected = np.zeros(n + 1)
        expected[free] = rhs[free] / np.diag(dense_sum(n + 1, dofs, local))[free]
        # atol=0: the constrained dofs are exact zeros
        np.testing.assert_allclose(factor_solve(assemble(pattern, local), rhs), expected,
                                   rtol=1e-14, atol=0)


class TestFactorSolve:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        n = 20
        A = rng.standard_normal((n, n))
        A = A @ A.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = factor_solve(dense_matrix(A), b)
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)

    def test_constrained_dofs_stay_zero(self):
        n = 8
        mat = assemble(*laplace_1d(n, free=np.array([False] + [True] * (n - 1) + [False])))
        b = np.ones(n + 1)
        x = factor_solve(mat, b)
        assert x[0] == 0.0 and x[-1] == 0.0
        # interior rows satisfy the equations exactly
        full = mat.matrix.toarray()
        res = full[1:-1] @ x - b[1:-1]
        assert np.max(np.abs(res)) < 1e-10

    def test_saddle_point_pivoting(self):
        # [[A, B^T], [B, eps I]] has a nearly zero diagonal in its lower
        # block: taking those diagonal pivots would amplify rounding errors
        # by 1/eps, so the symmetric mode must still pivot off the diagonal
        rng = np.random.default_rng(11)
        n, k, eps = 20, 5, 1e-14
        A = rng.standard_normal((n, n))
        A = A @ A.T + n * np.eye(n)
        B = rng.standard_normal((k, n))
        K = np.block([[A, B.T], [B, eps * np.eye(k)]])
        b = rng.standard_normal(n + k)
        x = factor_solve(dense_matrix(K), b)
        ref = np.linalg.solve(K, b)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_scaling_keeps_every_pivot_on_the_diagonal(self):
        # the thin Regge unibend tangent at rest: factored as stored, SuperLU
        # swaps rows at small diagonals; the power-of-two Jacobi scaling that
        # factor_solve applies in place keeps the symmetric mode's diagonal
        # pivots, so the factor is that of the stored order
        mesh, chart = make_benchmark_mesh("unibend_cylinder")
        model = ShellModel(mesh, chart, MaterialParams(*BENCHMARKS["unibend_cylinder"]["material"]),
                           ShellConfig(thickness=1e-3, order=2, membrane_reduction="regge"))
        block, s = free_block(model.hessian(np.zeros(model.num_dofs)))
        scaled = block.copy()
        assembly._scale(scaled, s)
        identity = np.arange(block.shape[0])
        perm_r = {}
        for name, A in (("scaled", scaled), ("unscaled", block)):
            lu = scipy.sparse.linalg.splu(A, permc_spec="NATURAL",
                                          diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                          options=SUPERLU_OPTIONS)
            perm_r[name] = lu.perm_r
        assert np.array_equal(perm_r["scaled"], identity)
        assert not np.array_equal(perm_r["unscaled"], identity)

    def test_singular_matrix_raises(self):
        # pure Neumann Laplacian without constraints is singular
        mat = assemble(*laplace_1d(4))
        data = mat.data.copy()
        with pytest.raises(SolverError):
            factor_solve(mat, np.ones(5))
        # the scaling applied for the factorization was undone
        assert np.array_equal(mat.data, data)

    def test_non_finite_solution_raises(self):
        # a regular matrix whose solution overflows: the factorization
        # succeeds and the solution is not finite
        mat = assemble(SparsityPattern(3, np.array([[0, 1, 2]])), 0.5 * np.eye(3)[None])
        with pytest.raises(SolverError, match="factorization produced non-finite values"):
            factor_solve(mat, np.full(3, 1e308))


class CountingSplu:
    """Wraps ``splu``: records the fill of every factor and counts solves."""

    def __init__(self):
        self.fill, self.solves = [], 0
        self._splu = scipy.sparse.linalg.splu

    def __call__(self, *args, **kwargs):
        lu = self._splu(*args, **kwargs)
        self.fill.append(lu.L.nnz + lu.U.nnz)
        counter = self

        class Counted:
            def solve(self, rhs):
                counter.solves += 1
                return lu.solve(rhs)

        return Counted()


@pytest.fixture(scope="module")
def hyperboloid():
    return hyperboloid_model(3, 2)


def hyperboloid_system(model, t):
    model.config.thickness = t

    def volume(X, nu):
        r = math.hypot(X[0], X[1])
        return t ** 3 / r * math.cos(2.0 * math.atan2(X[1], X[0])) * np.array(
            [X[0], X[1], 0.0])

    return model.hessian(np.zeros(model.num_dofs)), model.load_vector(LoadSpec(volume=volume))


class TestStoredOrdering:
    @pytest.mark.parametrize("t", [0.1, 0.01])
    def test_matches_minimum_degree_solve(self, hyperboloid, t, monkeypatch):
        H, _ = hyperboloid_system(hyperboloid, t)
        b = np.random.default_rng(0).standard_normal(hyperboloid.num_dofs)
        counting = CountingSplu()
        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        x = factor_solve(H, b)
        monkeypatch.undo()
        # one solve, so both sides make the same arithmetic
        assert counting.solves == 1
        # the same scaled block, factored in its global numbering with
        # SuperLU's own minimum degree ordering
        reduced, idx = H.reduced()
        s = 1.0 / np.sqrt(np.abs(reduced.diagonal()))
        scaled = scipy.sparse.diags(s) @ reduced @ scipy.sparse.diags(s)
        lu = scipy.sparse.linalg.splu(scaled.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                      options=SUPERLU_OPTIONS)
        rhs = b[idx]
        ref = s * lu.solve(s * rhs)
        # both solves are backward stable: the normwise backward error
        # |A y - b| / (|A| |y| + |b|) in the infinity norm sits at round-off,
        # while the gap between the two solutions follows the condition number
        norm = scipy.sparse.linalg.norm(reduced, np.inf)
        for y in (x[idx], ref):
            residual = np.linalg.norm(reduced @ y - rhs, np.inf)
            scale = norm * np.linalg.norm(y, np.inf) + np.linalg.norm(rhs, np.inf)
            assert residual <= 1e-15 * scale
        assert counting.fill[0] <= lu.L.nnz + lu.U.nnz

    def test_thin_solve_leaves_the_matrix_as_it_found_it(self, hyperboloid):
        # at t = 1e-4 the solution misses RESIDUAL_TOL, and the Newton step it
        # makes is accepted on a backward error whose norm_inf reads the
        # stored values restored after the factorization
        H, f = hyperboloid_system(hyperboloid, 1e-4)
        data = H.data.copy()
        x = factor_solve(H, f)
        assert np.array_equal(H.data, data)
        reduced, idx = H.reduced()
        res = np.linalg.norm(reduced @ x[idx] - f[idx])
        assert res > RESIDUAL_TOL * np.linalg.norm(f[idx])

    @pytest.mark.parametrize("t", [0.1, 1e-4])
    def test_column_runs_solve_bit_for_bit(self, hyperboloid, t, monkeypatch):
        # one column per run and the whole block as one run give the default
        # runs' solution; at t = 1e-4 it misses RESIDUAL_TOL
        H, f = hyperboloid_system(hyperboloid, t)
        x = factor_solve(H, f)
        for size in (8, 2 ** 40):
            monkeypatch.setattr(assembly, "BLOCK_BYTES", size)
            assert factor_solve(H, f).tobytes() == x.tobytes()

    @pytest.mark.parametrize("size", [8, assembly.BLOCK_BYTES, 2 ** 40])
    def test_backward_error_norm_is_the_max_row_sum(self, hyperboloid, size, monkeypatch):
        H, _ = hyperboloid_system(hyperboloid, 1e-4)
        block, _ = free_block(H)
        monkeypatch.setattr(assembly, "BLOCK_BYTES", size)
        assert assembly._max_row_sum(block) == abs(block).sum(axis=1).max()
        assert assembly.norm_inf(H) == assembly._max_row_sum(block)

    def test_thin_solve_factors_and_solves_once(self, hyperboloid, monkeypatch):
        # its residual misses RESIDUAL_TOL, and factor_solve neither tests
        # nor refines it
        H, f = hyperboloid_system(hyperboloid, 1e-4)
        counting = CountingSplu()
        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        factor_solve(H, f)
        assert len(counting.fill) == 1
        assert counting.solves == 1
