import numpy as np
import pytest
import scipy.sparse

from reggeshell.assembly import SolverError, SparsityPattern, assemble, factor_solve


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


def random_blocks(n_dofs=30, n_elements=12, m=6, seed=3):
    """Random symmetric element blocks on random dof sets, some dofs constrained."""
    rng = np.random.default_rng(seed)
    dofs = np.array([rng.choice(n_dofs, m, replace=False) for _ in range(n_elements)])
    local = rng.standard_normal((n_elements, m, m))
    local = local + np.swapaxes(local, 1, 2)
    free = rng.random(n_dofs) > 0.3
    return dofs, local, free


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

    def test_out_of_range_dof_rejected(self):
        with pytest.raises(IndexError):
            SparsityPattern(3, [[0, 5]])
        with pytest.raises(IndexError):
            SparsityPattern(3, [[-1, 2]])


class TestFactorSolve:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        n = 20
        A = rng.standard_normal((n, n))
        A = A @ A.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = factor_solve(scipy.sparse.csr_matrix(A), b)
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
        x = factor_solve(scipy.sparse.csr_matrix(K), b)
        ref = np.linalg.solve(K, b)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_singular_matrix_raises(self):
        # pure Neumann Laplacian without constraints is singular
        mat = assemble(*laplace_1d(4))
        with pytest.raises(SolverError):
            factor_solve(mat, np.ones(5))
