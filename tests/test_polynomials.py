import numpy as np
import pytest
import sympy

from reggeshell.polynomials import (
    eval_dubiner,
    eval_integrated_jacobi,
    eval_jacobi,
    eval_jacobi_scaled,
)


def rodrigues_jacobi(n, alpha, x):
    """Symbolic Rodrigues-formula oracle for p_n^{(alpha,0)}."""
    xs = sympy.Symbol("x")
    expr = sympy.diff((1 - xs) ** alpha * (xs**2 - 1) ** n, xs, n)
    expr = expr / (2**n * sympy.factorial(n) * (1 - xs) ** alpha)
    return float(sympy.simplify(expr).subs(xs, sympy.Rational(x)))


class TestJacobi:
    def test_degree_zero_is_one(self):
        for alpha in (0.0, 1.0, 2.5):
            assert eval_jacobi(0, alpha, 0.37) == 1.0

    def test_linear_values(self):
        # p_1^{(0,0)}(x) = x, p_1^{(2,0)}(x) = 2x + 1
        assert eval_jacobi(1, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert eval_jacobi(1, 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_against_rodrigues_oracle(self, n, alpha):
        for x in (-1, -0.5, 0.25, 1):
            assert eval_jacobi(n, alpha, x) == pytest.approx(
                rodrigues_jacobi(n, alpha, x), rel=1e-12, abs=1e-12
            )

    def test_alpha_zero_matches_legendre_recurrence(self):
        # independent Legendre oracle via the classic Bonnet recurrence
        x = np.linspace(-1, 1, 21)
        p0, p1 = np.ones_like(x), x.copy()
        for n in range(11):
            if n == 0:
                ref = p0
            elif n == 1:
                ref = p1
            else:
                p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
                ref = p1
            assert np.max(np.abs(eval_jacobi(n, 0.0, x) - ref)) < 1e-13

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            eval_jacobi(-1, 0.0, 0.0)
        with pytest.raises(ValueError):
            eval_jacobi(2, -1.0, 0.0)

    def test_scaled_form_matches_unscaled(self):
        x = np.linspace(-0.6, 0.6, 7)
        for n in range(6):
            for s in (0.3, 0.9, 1.0):
                ref = s**n * eval_jacobi(n, 1.0, x / s)
                assert np.allclose(eval_jacobi_scaled(n, 1.0, x, s), ref, atol=1e-13)

    def test_scaled_form_finite_at_zero_scale(self):
        vals = eval_jacobi_scaled(4, 0.0, 0.5, 0.0)
        assert np.isfinite(vals)


class TestIntegratedJacobi:
    def test_definition_cases(self):
        assert eval_integrated_jacobi(0, 0.0, 0.3) == 1.0
        # phat_1 integrates p_0 = 1 from -1
        for x in (-1.0, 0.0, 0.7):
            assert eval_integrated_jacobi(1, 0.0, x) == pytest.approx(x + 1, abs=1e-14)
        # quadrature oracle: integral of p_1 over [-1, 1] vanishes
        assert eval_integrated_jacobi(2, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_quadrature_oracle(self, n, alpha):
        # dense Gauss-Legendre integration of the Rodrigues oracle
        t, w = np.polynomial.legendre.leggauss(20)
        for x in (-0.4, 0.3, 1.0):
            nodes = (x + 1) / 2 * (t + 1) - 1
            ref = (x + 1) / 2 * np.dot(w, [rodrigues_jacobi(n - 1, alpha, v) for v in nodes])
            assert eval_integrated_jacobi(n, alpha, x) == pytest.approx(ref, abs=1e-12)


class TestDubiner:
    def test_constant(self):
        assert eval_dubiner(0, 0, 0.2, 0.3) == 1.0

    def test_linear_cases(self):
        # l1=1, l2=0: value x at any (x, y)
        assert eval_dubiner(1, 0, 0.0, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert eval_dubiner(1, 0, 0.25, 0.1) == pytest.approx(0.25, abs=1e-15)
        # l1=0, l2=1: p_1^{(1,0)}(2y-1)
        assert eval_dubiner(0, 1, 0.0, 0.0) == pytest.approx(
            rodrigues_jacobi(1, 1, -1), abs=1e-14
        )

    def test_finite_at_collapsed_vertex(self):
        assert np.isfinite(eval_dubiner(3, 2, 0.0, 1.0))


class TestOrthogonality:
    @pytest.mark.parametrize("alpha", [0, 1, 2, 5])
    def test_jacobi_orthogonality(self, alpha):
        t, w = np.polynomial.legendre.leggauss(24)
        vals = np.array([eval_jacobi(j, float(alpha), t) for j in range(9)])
        gram = vals @ np.diag(w * (1 - t) ** alpha) @ vals.T
        expected = np.diag([2.0 ** (alpha + 1) / (2 * j + alpha + 1) for j in range(9)])
        assert np.max(np.abs(gram - expected)) < 1e-12

    @pytest.mark.parametrize("alpha", [0, 1, 2, 5])
    def test_integrated_jacobi_sparsity(self, alpha):
        t, w = np.polynomial.legendre.leggauss(24)
        vals = np.array([eval_integrated_jacobi(j, float(alpha), t) for j in range(9)])
        gram = vals @ np.diag(w * (1 - t) ** alpha) @ vals.T
        for j in range(9):
            for l in range(9):
                if abs(j - l) > 2:
                    assert abs(gram[j, l]) < 1e-12
