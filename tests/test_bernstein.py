import functools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from gram_action import gram_action
from quadrature_reference import (
    bisection_roots,
    graded_action,
    sign_changes,
    uncached_grid_values,
    unit_panel_integral,
)
from scipy.special import gammaln
from scipy.stats import binom
from test_acceptance import random_action_set

from smoothgame import bernstein
from smoothgame.bernstein import (
    DEGREE_CAP,
    ROOT_WIDTH,
    WINDOW_MASS,
    BernsteinPolynomial,
    bernstein_basis_matrix,
    composite_rule_action,
    de_casteljau_many,
    grid_values,
    polynomial_roots,
    q_action_poly,
)
from smoothgame.interpolation import SampleSet
from smoothgame.polyapprox import approx_interpolant_poly, exact_interpolant_poly


def from_power(*coeffs, degree=None):
    """Bernstein form of sum_j coeffs[j] x^j, at ``degree`` (by default its
    own), converted in exact rationals."""
    a = [v if isinstance(v, Fraction) else Fraction(float(v)) for v in coeffs]
    n = len(a) - 1 if degree is None else degree
    c = []
    for k in range(n + 1):
        total = Fraction(0)
        for j in range(min(k, len(a) - 1) + 1):
            total += a[j] * Fraction(math.comb(k, j), math.comb(n, j))
        c.append(float(total))
    return BernsteinPolynomial(c)


def integral_of(coeffs):
    """The polynomial vanishing at 0 whose derivative has Bernstein ``coeffs``."""
    return BernsteinPolynomial(np.concatenate(([0.0], np.cumsum(coeffs))) / len(coeffs))


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

    @pytest.mark.parametrize("n", [1, 32, 127, 512])
    def test_de_casteljau_many_matches_the_allocating_formula(self, n):
        # the in-place tiled loop against one new array per level, bit for bit,
        # over more than two tiles with a partial last one
        rng = np.random.default_rng(n)
        p = BernsteinPolynomial(rng.normal(size=n + 1))
        xs = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 2398)))
        b = np.broadcast_to(p.coeffs[:, None], (n + 1, len(xs))).copy()
        for _ in range(n):
            b = (1.0 - xs) * b[:-1] + xs * b[1:]
        assert np.array_equal(de_casteljau_many(p, xs), b[0])

    def test_domain_check(self):
        with pytest.raises(ValueError):
            BernsteinPolynomial([1.0])(1.5)

    def test_nan_rejected(self):
        p = BernsteinPolynomial([0.0, 1.0, 5.0])
        with pytest.raises(ValueError, match="outside"):
            p(float("nan"))
        with pytest.raises(ValueError, match="outside"):
            p(np.array([0.25, np.nan, 0.75]))


def _window_points(rng):
    """Both ends, their nearest floats, points within 1e-4 of either end
    (clipped windows) and uniform draws."""
    return np.concatenate((
        [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53],
        rng.uniform(0.0, 1e-4, 4), 1.0 - rng.uniform(0.0, 1e-4, 4),
        rng.uniform(0.0, 1.0, 24),
    ))


def _dense_rows(n, xs):
    # every basis term in log space: the rows the window replaces
    k = np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                + k * np.log(xs)[:, None] + (n - k) * np.log1p(-xs)[:, None])
    rows = np.exp(logs)
    rows[xs == 0.0] = k == 0
    rows[xs == 1.0] = k == n
    return rows


def one_shot_window(n, xs):
    """``bernstein._basis_window`` with its (n - k) log(1 - x) term formed
    as one array the size of the block."""
    xs = np.asarray(xs, dtype=float)
    interior = (xs > 0.0) & (xs < 1.0)
    centre = np.rint(n * np.where(interior, xs, xs > 0.0)).astype(np.intp)
    starts, width, tile = bernstein._windows(n, centre)
    pad = len(starts) * tile - len(xs)
    if pad:
        xs, interior, centre = (np.concatenate((v, v[-1:].repeat(pad)))
                                for v in (xs, interior, centre))
    ks = (starts[:, None] + np.arange(width))[:, None, :]
    safe = np.where(interior, xs, 0.5).reshape(len(starts), tile, 1)
    log_binom = gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
    block = np.exp(ks * np.log(safe) + log_binom + (n - ks) * np.log1p(-safe))
    edge = np.nonzero(~interior.reshape(len(starts), tile))
    block[edge] = 0.0
    block[edge + (centre.reshape(len(starts), tile)[edge] - starts[edge[0]],)] = 1.0
    return starts, block


# 89-92: a lone x's window becomes narrower than the row (from 91); 348-349:
# it spans at most half the row, so it is used instead of the row (from 349)
WINDOW_DEGREES = (1, 32, 89, 90, 91, 92, 129, 348, 349, 1025, 2049, 4097)


class TestWindow:
    @pytest.mark.parametrize("n", WINDOW_DEGREES)
    def test_against_de_casteljau_and_dense_rows(self, n):
        rng = np.random.default_rng(n)
        p = BernsteinPolynomial(rng.normal(size=n + 1))
        scale = np.max(np.abs(p.coeffs))
        xs = _window_points(rng)
        dense = _dense_rows(n, xs) @ p.coeffs
        # the log-space exponents are sums of terms of size ~n, rounded at
        # n * eps; de Casteljau rounds only at eps per level
        oracle_tol = scale * max(1e-13, 4 * n * np.finfo(float).eps)
        oracle = de_casteljau_many(p, xs)
        order = np.argsort(xs)
        for got in (p(xs), p(xs[order])[np.argsort(order)], [p(float(x)) for x in xs]):
            assert np.max(np.abs(got - dense)) <= 1e-13 * scale
            assert np.max(np.abs(got - oracle)) <= oracle_tol

    @pytest.mark.parametrize("n", WINDOW_DEGREES)
    def test_mass_outside_each_window(self, n):
        rng = np.random.default_rng(n)
        xs = np.sort(np.concatenate((_window_points(rng), rng.uniform(0.0, 1.0, 200))))
        pmf = binom.pmf(np.arange(n + 1)[None, :], n, xs[:, None])
        one_by_one = np.vstack([bernstein_basis_matrix(n, [x]) for x in xs]) != 0.0
        together = bernstein_basis_matrix(n, xs) != 0.0  # tiles of sorted points
        for window in (one_by_one, together):
            assert np.all(np.where(window, 0.0, pmf).sum(axis=1) <= WINDOW_MASS)
        # from degree 349 a lone point's window drops live terms
        assert np.any(~one_by_one & (pmf > 0.0)) == (n >= 349)
        assert np.any(~together & (pmf > 0.0)) == (n >= 1025)


    @pytest.mark.parametrize("n", (3, 32, 349, 2048, 2049, 16384))
    def test_chunked_window_equals_the_one_shot_formula(self, n):
        rng = np.random.default_rng(n)
        ends = [0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0]
        for xs in (bernstein.gauss_grid()[0], np.sort(rng.uniform(size=1000)),
                   np.sort(np.concatenate((ends, rng.uniform(size=200)))), ends):
            starts, block = bernstein._basis_window(n, xs)
            want_starts, want = one_shot_window(n, xs)
            assert np.array_equal(starts, want_starts)
            assert block.shape == want.shape
            assert np.array_equal(block.view(np.int64), want.view(np.int64))

    def test_window_peak_memory_stays_near_the_block(self):
        # the (n - k) log(1 - x) term is added a chunk of tiles at a time;
        # formed in one array, it peaked at 2.28x the block at degree 2048
        poly = BernsteinPolynomial(np.linspace(0.0, 1.0, 2049))
        bernstein._rule_basis.cache_clear()
        bernstein._log_binom(2048)
        tracemalloc.start()
        try:
            grid_values(poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = bernstein._rule_basis(2048, *bernstein._GRID)[1]
        assert peak <= 1.5 * block.nbytes

    def test_whole_row_window_peak_memory_stays_near_the_block(self):
        # a whole-row window is one tile of every x, so its term is added a
        # chunk of x's at a time; formed per tile, it peaked at 2.01x the block
        xs = np.linspace(0.0, 1.0, 20000)
        bernstein._log_binom(300)
        tracemalloc.start()
        try:
            starts, block = bernstein._basis_window(300, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (1, 20000, 301)
        assert peak <= 1.3 * block.nbytes
        want_starts, want = one_shot_window(300, xs)
        assert np.array_equal(starts, want_starts)
        assert np.array_equal(block.view(np.int64), want.view(np.int64))


class TestCalculus:
    def test_derivative_of_quadratic(self):
        p = from_power(0.0, 0.0, 1.0)  # x^2
        d = p.derivative()
        for x in (0.0, 0.3, 1.0):
            assert d(x) == pytest.approx(2 * x, abs=1e-13)

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
            back = from_power(*p.to_power_exact())
            err = np.max(np.abs(back.coeffs - p.coeffs) / np.maximum(np.abs(p.coeffs), 1e-30))
            assert err <= 1e-10

    def test_float_path_low_degree(self):
        rng = np.random.default_rng(6)
        p = BernsteinPolynomial(rng.normal(size=11))
        back = from_power(*p.to_power_coeffs())
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
        # (x-0.2)(x-0.5)(x-0.8), at its own degree and elevated far above it
        cubic = from_power(-0.08, 0.66, -1.5, 1.0)
        for degree in (3, 300):
            roots = polynomial_roots(cubic.elevated(degree))
            assert np.allclose(roots, [0.2, 0.5, 0.8], atol=1e-9), degree

    def test_subdivision_path_elevated_cubic(self):
        # degree 100 once took the subdivision path; the grid scan must
        # find the same three roots
        p = from_power(-0.08, 0.66, -1.5, 1.0).elevated(100)
        roots = polynomial_roots(p)
        assert np.allclose(roots, [0.2, 0.5, 0.8], atol=1e-9)

    @pytest.mark.parametrize("degree, root", [(300, 5e-5), (40, 1.0 - 5e-5)])
    def test_root_nearer_an_end_than_any_grid_node(self, degree, root):
        # only the exact end value P'(0) = c_0 or P'(1) = c_n brackets it
        roots = polynomial_roots(from_power(-root, 1.0).elevated(degree))
        assert len(roots) == 1 and roots[0] == pytest.approx(root, abs=1e-11)

    def test_no_roots(self):
        assert polynomial_roots(from_power(1.0, 0.0, 1.0)) == []

    def test_high_degree_grid_path(self):
        # degree 200 polynomial with one sign change
        base = from_power(-0.3, 1.0).elevated(200)
        roots = polynomial_roots(base)
        assert len(roots) == 1 and roots[0] == pytest.approx(0.3, abs=1e-9)

    def test_double_root_cluster(self):
        p = from_power(0.09, -0.6, 1.0)  # (x - 0.3)^2
        roots = polynomial_roots(p)
        # tangency: either found as a cluster point or skipped entirely
        assert all(abs(r - 0.3) < 1e-6 for r in roots)

    def test_graze_filter_keeps_the_scalar_filters_changes(self):
        rng = np.random.default_rng(5)
        cases = [np.array([1.0, -1.0]), np.array([-1.0, 1.0, 1.0]), np.array([1.0, 1.0, -1.0]),
                 np.array([0.0, 1.0, -1.0, 0.0]), np.zeros(5), np.array([2.0, 1e-9, -1e-9, 3.0]),
                 np.array([1.0, 1e-9, -1e-9, 1e-9, -1e-9, 1e-9]),
                 np.array([1.0, 0.0, 0.0, 1e-7, -1e-7, 0.0, 0.0])]  # a change right at the floor
        for size in (2, 3, 4, 50, 1538):
            for _ in range(40):
                vals = rng.normal(size=size) * rng.choice([1e-9, 1e-6, 1.0], size=size)
                vals[rng.uniform(size=size) < 0.1] = 0.0
                cases.append(vals)
        for vals in cases:
            got = bernstein._sign_changes(vals)
            assert got.dtype == np.intp and np.array_equal(got, sign_changes(vals)), vals

    def test_brackets_close_in_few_evaluations(self, monkeypatch):
        # false position with probes closes every bracket of the criterion-7
        # builds' derivatives in at most 5 evaluations
        calls = []
        evaluate = BernsteinPolynomial.__call__
        monkeypatch.setattr(BernsteinPolynomial, "__call__", lambda p, x: calls.append(p) or evaluate(p, x))
        steps = []
        for _q, _eps, poly in _criterion7_builds():
            deriv = poly.derivative()
            calls.clear()
            if polynomial_roots(deriv):
                steps.append(len(calls))
        assert len(steps) > 100 and max(steps) <= 5


class TestActionIntegral:
    def test_linear(self):
        assert q_action_poly(from_power(0.0, 1.0), 3) == pytest.approx(1.0)

    def test_quadratic(self):
        assert q_action_poly(from_power(0.0, 0.0, 1.0), 2) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_abs_derivative_split(self):
        assert q_action_poly(from_power(0.0, -1.0, 1.0), 1) == pytest.approx(0.5, abs=1e-9)

    def test_constant_zero(self):
        assert q_action_poly(BernsteinPolynomial([3.0]), 2) == 0.0
        # the same constant at degree 5: P' is all zeros at degree 4
        p = BernsteinPolynomial([3.0] * 6)
        assert polynomial_roots(p.derivative()) == []
        assert q_action_poly(p, 2) == 0.0

    def test_fractional_exponent_analytic(self):
        # P = x^2: integral of (2x)^1.5 = 2^1.5 / 2.5
        expected = 2 ** 1.5 / 2.5
        assert q_action_poly(from_power(0.0, 0.0, 1.0), 1.5) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_oracle_cross_check(self, q):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=13)
        p = integral_of(coeffs)
        fast = q_action_poly(p, q)
        slow = composite_rule_action(p, q, n_points=200_000)
        assert fast == pytest.approx(slow, rel=2e-6)

    @pytest.mark.parametrize("degree", [2, 7, 300])
    def test_gram_oracle_analytic(self, degree):
        # P = x^2 at its own degree and elevated: integral of (2x)^2 = 4/3
        assert gram_action(from_power(0.0, 0.0, 1.0).elevated(degree)) == pytest.approx(
            4.0 / 3.0, abs=1e-12)

    def test_gram_oracle_against_composite_rule(self):
        rng = np.random.default_rng(9)
        p = integral_of(rng.normal(size=13))
        assert gram_action(p) == pytest.approx(
            composite_rule_action(p, 2.0, n_points=200_000), rel=1e-9)

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            q_action_poly(from_power(0.0, 1.0), 0.5)


@functools.cache
def _criterion7_builds():
    """Approx (eps 0.1, 0.01) and exact builds of the first 60 criterion-7
    sets and of the poly-build pool at seed 1: the first 45 of them, each
    negated or not and shifted as the benchmark draws it. Each build is
    (q, eps, poly), with eps None for an exact build."""
    stream = np.random.default_rng(2718)
    pool = np.random.default_rng([1, 3])
    sets = []
    for i in range(60):
        q = (1.5, 2.0, 3.0)[i % 3]
        s = random_action_set(stream, q=q)
        sets.append((q, s))
        if i < 45:
            sign = 1.0 if pool.uniform() < 0.5 else -1.0
            shift = float(pool.uniform(-0.3, 0.3))
            sets.append((q, SampleSet(s.us, [sign * v + shift for v in s.vs])))
    builds = []
    for q, s in sets:
        for eps in (0.1, 0.01):
            builds.append((q, eps, approx_interpolant_poly(s, q, eps)[0]))
        builds.append((q, None, exact_interpolant_poly(s, q)))
    return tuple(builds)


class TestAgainstTheQuadratureReference:
    def test_criterion7_builds(self):
        builds = 0
        for q, _eps, poly in _criterion7_builds():
            deriv = poly.derivative()
            roots, ref = polynomial_roots(deriv), bisection_roots(deriv)
            assert len(roots) == len(ref), (builds, poly.degree)
            assert np.all(np.abs(np.subtract(roots, ref)) <= ROOT_WIDTH), (builds, roots, ref)
            assert abs(q_action_poly(poly, q) - graded_action(poly, q)) <= 1e-12, (builds, q)
            builds += 1
        assert builds == 3 * 105

    @pytest.mark.parametrize("degree", [2, 64, 300])
    def test_closed_form_anchors(self, degree, monkeypatch):
        # P' = K (x - r): the action is K^q (r^(q+1) + (1 - r)^(q+1)) / (q + 1),
        # with the root at an end, near one, inside or at the middle
        def no_fallback(poly, q):
            raise AssertionError("composite fallback")

        monkeypatch.setattr(bernstein, "composite_rule_action", no_fallback)
        for k in (1.0, 5.0, 20.0):
            for r in (0.0, 2e-9, 0.3, 0.5, 0.999):
                poly = from_power(0.0, -k * r, 0.5 * k).elevated(degree)
                for q in (1.01, 1.1, 1.5, 2.5):
                    exact = k ** q * (r ** (q + 1) + (1 - r) ** (q + 1)) / (q + 1)
                    assert q_action_poly(poly, q) == pytest.approx(exact, abs=1e-9), (k, r, q)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_zeros_of_order_k_at_an_end(self, k, monkeypatch):
        # P' = K x^k (x - r), exactly 0 in its first k coefficients, and its
        # mirror image, which is 0 in its last k: the end takes the Jacobi
        # rule of exponent k q
        exponents = []
        rule = bernstein._jacobi_rule
        monkeypatch.setattr(bernstein, "_jacobi_rule", lambda a, b: exponents.append((a, b)) or rule(a, b))
        for r in (0.3, 1.2):  # a root inside or none
            for degree in (k + 2, 64, 300):
                poly = from_power(*[0.0] * (k + 1), Fraction(-5.0 * r) / (k + 1), Fraction(5) / (k + 2),
                                  degree=degree)
                for p, end in ((poly, 0), (BernsteinPolynomial(poly.coeffs[::-1]), 1)):
                    zeros = np.flatnonzero(p.derivative().coeffs == 0.0)
                    assert list(zeros) == ([*range(k)] if end == 0 else [*range(degree - k, degree)])
                    for q in (1.01, 1.5, 2.5):
                        exponents.clear()
                        assert abs(q_action_poly(p, q) - graded_action(p, q)) <= 1e-12, (r, degree, end, q)
                        assert ((0.0, k * q) if end == 0 else (k * q, 0.0)) in exponents, (r, degree, end, q)

    @pytest.mark.parametrize("degree", [2, 64, 300])
    def test_zeros_just_outside_the_ends(self, degree, monkeypatch):
        # P' = K (x + d) and K (x - 1 - d): both ends are regular, and the
        # action is K^q ((1 + d)^(q+1) - d^(q+1)) / (q + 1). At q = 1.1 a steep
        # P' (K = 20) with d <= 1e-6 still exhausts the doubling levels and
        # takes the fallback, which this records instead of running it.
        fallbacks = []
        monkeypatch.setattr(bernstein, "composite_rule_action",
                            lambda poly, q: fallbacks.append((poly.degree, q)) or math.nan)
        for k in (1.0, 5.0, 20.0):
            for d in (1e-9, 1e-6, 1e-3):
                for q in (1.01, 1.1, 1.5, 2.5):
                    exact = k ** q * ((1 + d) ** (q + 1) - d ** (q + 1)) / (q + 1)
                    for b in (k * d, -k * (1 + d)):
                        fallbacks.clear()
                        got = q_action_poly(from_power(0.0, b, 0.5 * k).elevated(degree), q)
                        if fallbacks:
                            assert (q, k) == (1.1, 20.0) and d <= 1e-6, (k, d, q, b)
                        else:
                            assert got == pytest.approx(exact, abs=1e-9), (k, d, q, b)

    @pytest.mark.parametrize("degree", [2, 64, 300])
    def test_even_q_takes_the_unit_path(self, degree, monkeypatch):
        # |P'|^q = P'^q at even q: no root is searched, however P' changes sign
        def no_roots(poly):
            raise AssertionError("root search at even q")

        monkeypatch.setattr(bernstein, "polynomial_roots", no_roots)
        for k in (1.0, 5.0):
            for r in (2e-9, 0.3, 0.5, 0.999):
                poly = from_power(0.0, -k * r, 0.5 * k, degree=degree)
                for q in (2.0, 4.0):
                    exact = k ** q * (r ** (q + 1) + (1 - r) ** (q + 1)) / (q + 1)
                    assert q_action_poly(poly, q) == pytest.approx(exact, rel=1e-12, abs=1e-12), (k, r, q)

    def test_criterion7_builds_need_no_fallback(self, monkeypatch):
        def no_fallback(poly, q):
            raise AssertionError("composite fallback")

        monkeypatch.setattr(bernstein, "composite_rule_action", no_fallback)
        for q, _eps, poly in _criterion7_builds():
            q_action_poly(BernsteinPolynomial(poly.coeffs), q)


def _same_float(a, b):
    return float(a).hex() == float(b).hex()


class TestStoredActions:
    """Each polynomial keeps the actions certified for it, over the criterion-7 pool."""

    def test_stored_action_equals_a_fresh_certificate(self):
        for q, eps, poly in _criterion7_builds():
            if eps is None:
                assert q in poly._actions  # certified by the exact build itself
            stored = q_action_poly(poly, q)
            assert _same_float(poly._actions[q], stored), (q, eps)
            fresh = q_action_poly(BernsteinPolynomial(poly.coeffs.copy()), q)
            assert _same_float(stored, fresh), (q, eps, poly.degree)

    def test_coefficients_are_read_only(self):
        for q, eps, poly in _criterion7_builds()[:6]:
            with pytest.raises(ValueError, match="read-only"):
                poly.coeffs[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                poly.coeffs += 1.0
            with pytest.raises(AttributeError):
                poly.coeffs = np.zeros(3)

    def test_the_given_array_is_copied(self):
        given = np.array([0.0, 1.0, 3.0])
        poly = BernsteinPolynomial(given)
        assert q_action_poly(poly, 2.0) == pytest.approx(28.0 / 3.0, abs=1e-12)  # P' = 2 + 2x
        given[1] = 5.0  # the caller's array stays writable and the polynomial unchanged
        assert poly.coeffs[1] == 1.0
        assert poly(0.5) == 1.25

    def test_second_call_on_an_exact_build_runs_no_quadrature(self, monkeypatch):
        calls = []
        roots = bernstein.polynomial_roots
        monkeypatch.setattr(bernstein, "polynomial_roots", lambda p: calls.append(p) or roots(p))
        exact = [(q, poly) for q, eps, poly in _criterion7_builds() if eps is None]
        for q, poly in exact:
            q_action_poly(poly, q)
        assert calls == []
        q, poly = exact[0]
        q_action_poly(BernsteinPolynomial(poly.coeffs), q)
        assert len(calls) == 1  # a new polynomial of the same coefficients is certified afresh

    def test_two_values_of_q_are_both_kept(self, monkeypatch):
        calls = []
        roots = bernstein.polynomial_roots
        monkeypatch.setattr(bernstein, "polynomial_roots", lambda p: calls.append(p) or roots(p))
        for q, eps, built in _criterion7_builds()[:9]:
            poly = BernsteinPolynomial(built.coeffs)
            other = 2.5 if q == 3.0 else q + 1.0
            first, second = q_action_poly(poly, q), q_action_poly(poly, other)
            assert set(poly._actions) == {q, other}
            assert _same_float(second, q_action_poly(BernsteinPolynomial(built.coeffs), other))
            certified = len(calls)
            assert _same_float(q_action_poly(poly, q), first)
            assert _same_float(q_action_poly(poly, other), second)
            assert len(calls) == certified


class TestJacobiRule:
    """The Gauss-Jacobi rules that fractional-q certificates take at the zeros of P'."""

    def test_rules_integrate_the_weighted_monomials(self):
        # x^beta (1 - x)^alpha x^j for every j < 2 * _PANEL_ORDER gives the Beta
        # function B(beta + j + 1, alpha + 1): math.lgamma at j = 0, then
        # B(a + 1, b) = B(a, b) a / (a + b). The exponents are a root's (q) and
        # an end zero's of order k (k q), k up to 96, past the largest end
        # order of the poly-build pools (81 at q = 1.5)
        qs = (1.01, 1.5, 2.5)
        ends = {(k * 1.5, 0.0) for k in range(1, 97)} | {(k * q, 0.0) for q in qs for k in (1, 2, 5)}
        pairs = ends | {(b, a) for a, b in ends} | {(q, q) for q in qs} | {(2 * q, q) for q in qs}
        for alpha, beta in sorted(pairs):
            xs, ws = bernstein._jacobi_rule(alpha, beta)
            assert np.all((xs > 0.0) & (xs < 1.0)) and np.all(np.diff(xs) > 0.0)
            weights = ws * xs ** beta * (1.0 - xs) ** alpha
            moment = math.exp(math.lgamma(beta + 1) + math.lgamma(alpha + 1) - math.lgamma(alpha + beta + 2))
            for j in range(2 * bernstein._PANEL_ORDER):
                assert np.dot(weights, xs ** j) == pytest.approx(moment, rel=1e-13, abs=0.0), (alpha, beta, j)
                moment *= (beta + j + 1) / (alpha + beta + j + 2)

    def test_certifying_loads_no_scipy_linalg(self):
        # importing scipy.linalg adds ~5 MB of resident memory to poly-build; the
        # rules come from numpy.linalg. A fresh interpreter, since other
        # tests import scipy.linalg themselves
        script = ("import sys, smoothgame; from smoothgame import bernstein; "
                  "p = bernstein.BernsteinPolynomial([0.0, 0.0, -0.1, 0.4, 1.0]); "  # P' = 0 at 0, a root inside
                  "bernstein.q_action_poly(p, 1.5); "
                  "print(bernstein._jacobi_rule.cache_info().misses, 'scipy.linalg' in sys.modules)")
        src = pathlib.Path(bernstein.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert int(out[0]) > 0 and out[1] == "False"


RULE_DEGREES = [1, 2, 7, 32, 64, 128, 256, 512, 2048]


class TestRuleBasis:
    """The cached [0, 1] rule bases against the windows built afresh."""

    @pytest.mark.parametrize("n", RULE_DEGREES)
    def test_grid_values_match_the_uncached_window(self, n):
        rng = np.random.default_rng(n)
        poly = BernsteinPolynomial(rng.normal(size=n + 1))
        bernstein._rule_basis.cache_clear()
        cold, warm = grid_values(poly), grid_values(poly)
        ref = uncached_grid_values(poly)
        assert np.array_equal(cold, ref) and np.array_equal(warm, ref)
        assert np.array_equal(ref, poly(bernstein.gauss_grid()[0]))

    @pytest.mark.parametrize("n", RULE_DEGREES)
    def test_unit_integrals_match_the_uncached_panels(self, n):
        rng = np.random.default_rng(100 + n)
        deriv = BernsteinPolynomial(rng.normal(size=n + 1))
        base = int(np.clip((n + 1) // 128, 8, 64))
        bernstein._rule_basis.cache_clear()
        for q in (1.0, 2.0, 3.0, 1.5):
            for factor in (1, 2, 4, 8):
                panels = max(4 * factor, base * factor)
                got = bernstein._level_integral(deriv, q, panels, [], None)
                assert _same_float(got, unit_panel_integral(deriv, q, panels)), (q, panels)
        # the levels whose rule is cached are read back three times each
        cached = sum(base * f * 20 * (n + 1) <= bernstein._LEVEL_RULE_ENTRIES for f in (1, 2, 4, 8))
        assert bernstein._rule_basis.cache_info().hits == 3 * cached

    def test_cache_stays_within_its_entry_guard_at_the_cap(self, monkeypatch):
        sizes = []
        cached = bernstein._rule_basis

        def recorded(n, panels, order):
            starts, block, ws = cached(n, panels, order)
            sizes.append((n, panels, block.size))
            return starts, block, ws

        monkeypatch.setattr(bernstein, "_rule_basis", recorded)
        k = np.arange(DEGREE_CAP + 1)
        # P = x + x^2 / 2: P' = 1 + x has no root, so q = 3 integrates one unit piece
        poly = BernsteinPolynomial(k / DEGREE_CAP + 0.5 * k * (k - 1) / (DEGREE_CAP * (DEGREE_CAP - 1)))
        assert q_action_poly(poly, 3.0) == pytest.approx(15.0 / 4.0, abs=1e-9)
        grid_values(poly)
        assert {(n, panels) for n, panels, _ in sizes} == {(DEGREE_CAP - 1, 192), (DEGREE_CAP, 192)}
        assert max(size for *_, size in sizes) <= bernstein._RULE_ENTRIES

    @pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
    def test_every_level_reads_its_uniform_panels_from_the_cache(self, q, monkeypatch):
        rules = []
        cached = bernstein._rule_basis

        def recorded(n, panels, order):
            rules.append((panels, order))
            return cached(n, panels, order)

        monkeypatch.setattr(bernstein, "_rule_basis", recorded)
        levels = {(8, 20), (16, 20), (32, 20), (64, 20)}
        rooted = from_power(0.0, -0.6, 1.0).elevated(40)  # P' = 2x - 0.6, a root at 0.3
        smooth = from_power(0.0, 1.0, 0.5).elevated(40)  # P' = 1 + x
        for poly in (rooted, smooth):
            rules.clear()
            q_action_poly(poly, q)
            assert (8, 20) in rules and (16, 20) in rules and set(rules) <= levels | {(192, 8)}
            # at even q no root is searched, so the action grid is not read
            assert ((192, 8) in rules) == (q != 2.0)

    @pytest.mark.parametrize("q, fresh", [(2.0, set()), (3.0, {4}), (1.5, {0, 4, 5})])
    def test_fresh_panels_are_the_ones_near_roots_and_ends(self, q, fresh):
        # 16 panels, a root at 0.3 = 4.8 panels: it cuts panel 4 and lies within
        # a third of a panel of panel 5. At q = 1.5, P' also has a zero of
        # order 2 at 0 (panel 0), while at 1 it does not vanish (panel 15 stays)
        roots = [] if q == 2.0 else [0.3]
        zeros = None if q != 1.5 else {0.3: q, 0.0: 2 * q}
        mask, xs, ws = bernstein._fresh_panels(16, roots, zeros, everything=False)
        assert set(np.flatnonzero(mask)) == fresh
        live = ws > 0.0
        assert np.all(np.diff(xs) >= 0.0)
        assert set(np.floor(16 * xs[live]).astype(int)) == fresh
        if q != 1.5:
            # the replacement rule integrates 1 exactly over the panels it replaces
            assert ws.sum() == pytest.approx(len(fresh) / 16, abs=1e-14)
            return
        # it integrates x^3 |x - 0.3|^1.5 exactly beside 0.3 (x^3 is a
        # polynomial), and to rounding on panel 0, where |x - 0.3|^1.5 is smooth
        def antiderivative(u):  # of x^3 |x - 0.3|^1.5 in u = x - 0.3, x^3 expanded in u
            return sum(math.comb(3, j) * 0.3 ** (3 - j) * math.copysign(1.0, u) ** (j + 1)
                       * abs(u) ** (j + 2.5) / (j + 2.5) for j in range(4))

        def integral(lo, hi):
            return antiderivative(hi - 0.3) - antiderivative(lo - 0.3)

        want = integral(0.0, 1 / 16) + integral(4 / 16, 6 / 16)
        assert np.dot(ws, xs ** 3 * np.abs(xs - 0.3) ** 1.5) == pytest.approx(want, rel=1e-13)

    def test_a_degree_ladder_cycle_stays_cached(self):
        # the ladder's action grid and each certificate's rules, twice over:
        # the second cycle finds everything the first one built
        cubic = from_power(0.0, 0.3, -0.9, 0.7)  # P' = 0.3 - 1.8 x + 2.1 x^2: roots 0.226, 0.631
        ladder = [cubic.elevated(d).coeffs for d in (33, 65, 129, 257, 513, 2049)]
        bernstein._rule_basis.cache_clear()
        for cycle in range(2):
            for coeffs in ladder:
                for q in (1.5, 2.0, 3.0):
                    poly = BernsteinPolynomial(coeffs)
                    grid_values(poly.derivative())
                    q_action_poly(poly, q)
            if cycle == 0:
                built = bernstein._rule_basis.cache_info()
        info = bernstein._rule_basis.cache_info()
        assert info.misses == built.misses and info.hits > built.hits
        assert built.entries == info.entries <= bernstein._CACHE_ENTRIES
