
import numpy as np
import pytest

from smoothgame.bernstein import (
    BernsteinPolynomial,
    bernstein_basis_matrix,
    composite_rule_action,
    constant_polynomial,
    de_casteljau_many,
    polynomial_roots,
    q_action_poly,
)


def from_power(*coeffs):
    return BernsteinPolynomial.from_power_coeffs(coeffs)


class TestBasisAndEval:
    def test_partition_of_unity(self):
        xs = np.linspace(0, 1, 17)
        B = bernstein_basis_matrix(40, xs)
        assert np.allclose(B.sum(axis=1), 1.0, atol=1e-13)
        assert np.all(B >= 0)

    def test_endpoints_exact(self):
        p = BernsteinPolynomial([2.0, -1.0, 3.0])
        assert p(0.0) == 2.0
        assert p(1.0) == 3.0

    def test_matches_de_casteljau(self):
        # the log-space evaluator against the independent convex-combination oracle
        rng = np.random.default_rng(0)
        for n in (1, 7, 40, 300):
            p = BernsteinPolynomial(rng.normal(size=n + 1))
            xs = rng.uniform(0, 1, 10)
            oracle = de_casteljau_many(p, xs)
            for x, want in zip(xs, oracle):
                assert p(float(x)) == pytest.approx(want, abs=1e-11)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        p = BernsteinPolynomial(rng.normal(size=25))
        xs = rng.uniform(0, 1, 50)
        vec = p(xs)
        assert np.allclose(vec, [p(float(x)) for x in xs], atol=1e-13)

    def test_de_casteljau_many(self):
        rng = np.random.default_rng(2)
        p = BernsteinPolynomial(rng.normal(size=30))
        xs = rng.uniform(0, 1, 100)
        assert np.allclose(de_casteljau_many(p, xs), p(xs), atol=1e-11)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            BernsteinPolynomial([1.0])(1.5)


class TestCalculus:
    def test_derivative_of_quadratic(self):
        p = from_power(0.0, 0.0, 1.0)  # x^2
        d = p.derivative()
        for x in (0.0, 0.3, 1.0):
            assert d(x) == pytest.approx(2 * x, abs=1e-13)

    def test_antiderivative_round_trip(self):
        rng = np.random.default_rng(3)
        p = BernsteinPolynomial(rng.normal(size=20))
        back = p.antiderivative(1.0).derivative()
        assert np.allclose(back.coeffs, p.coeffs, atol=1e-12)

    def test_elevation_preserves_values(self):
        rng = np.random.default_rng(4)
        p = BernsteinPolynomial(rng.normal(size=9))
        for target in (9, 10, 12, 17, 40, 200):
            e = p.elevated(target)
            xs = rng.uniform(0, 1, 20)
            assert np.allclose(e(xs), p(xs), atol=1e-11)


class TestPowerBasis:
    def test_round_trip_exact_path(self):
        rng = np.random.default_rng(5)
        for n in (5, 25, 60):
            p = BernsteinPolynomial(rng.normal(size=n + 1))
            back = BernsteinPolynomial.from_power_coeffs(p.to_power_exact())
            err = np.max(np.abs(back.coeffs - p.coeffs) / np.maximum(np.abs(p.coeffs), 1e-30))
            assert err <= 1e-10

    def test_float_path_low_degree(self):
        rng = np.random.default_rng(6)
        p = BernsteinPolynomial(rng.normal(size=11))
        back = BernsteinPolynomial.from_power_coeffs(p.to_power_coeffs())
        assert np.allclose(back.coeffs, p.coeffs, rtol=1e-10)

    def test_known_conversion(self):
        p = from_power(0.0, -1.0, 1.0)  # x^2 - x
        assert np.allclose(p.coeffs, [0.0, -0.5, 0.0], atol=1e-14)


class TestRoots:
    def test_quadratic_derivative_root(self):
        p = from_power(0.0, -1.0, 1.0)  # x^2 - x, derivative root at 0.5
        roots = polynomial_roots(p.derivative())
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-10)

    def test_cubic_three_roots(self):
        # (x-0.2)(x-0.5)(x-0.8)
        p = from_power(-0.08, 0.66, -1.5, 1.0)
        roots = polynomial_roots(p)
        assert np.allclose(roots, [0.2, 0.5, 0.8], atol=1e-9)

    def test_subdivision_path_elevated_cubic(self):
        # degree 100 stays on the subdivision path, whose bisection
        # evaluates with the log-space evaluator
        p = from_power(-0.08, 0.66, -1.5, 1.0).elevated(100)
        roots = polynomial_roots(p)
        assert np.allclose(roots, [0.2, 0.5, 0.8], atol=1e-9)

    def test_no_roots(self):
        assert polynomial_roots(from_power(1.0, 0.0, 1.0)) == []

    def test_high_degree_grid_path(self):
        # degree 200 polynomial with one sign change
        rng = np.random.default_rng(7)
        base = from_power(-0.3, 1.0).elevated(200)
        roots = polynomial_roots(base)
        assert len(roots) == 1 and roots[0] == pytest.approx(0.3, abs=1e-9)

    def test_double_root_cluster(self):
        p = from_power(0.09, -0.6, 1.0)  # (x - 0.3)^2
        roots = polynomial_roots(p)
        # tangency: either found as a cluster point or skipped entirely
        assert all(abs(r - 0.3) < 1e-6 for r in roots)


class TestActionIntegral:
    def test_linear(self):
        assert q_action_poly(from_power(0.0, 1.0), 3) == pytest.approx(1.0)

    def test_quadratic(self):
        assert q_action_poly(from_power(0.0, 0.0, 1.0), 2) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_abs_derivative_split(self):
        assert q_action_poly(from_power(0.0, -1.0, 1.0), 1) == pytest.approx(0.5, abs=1e-9)

    def test_constant_zero(self):
        assert q_action_poly(constant_polynomial(3.0), 2) == 0.0

    def test_fractional_exponent_analytic(self):
        # P = x^2: integral of (2x)^1.5 = 2^1.5 / 2.5
        expected = 2 ** 1.5 / 2.5
        assert q_action_poly(from_power(0.0, 0.0, 1.0), 1.5) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_oracle_cross_check(self, q):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=13)
        p = BernsteinPolynomial(coeffs).antiderivative()
        fast = q_action_poly(p, q, tol=1e-9)
        slow = composite_rule_action(p, q, n_points=200_000)
        assert fast == pytest.approx(slow, rel=2e-6)

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            q_action_poly(from_power(0.0, 1.0), 0.5)
