
import math

import numpy as np
import pytest
from kantorovich_reference import bernstein_coeffs_long_way
from test_acceptance import random_action_set

from smoothgame.bernstein import (
    BernsteinPolynomial,
    DegreeCapError,
    bernstein_basis_matrix,
    q_action_poly,
)
from smoothgame.interpolation import SampleSet, q_action
from smoothgame.polyapprox import (
    _all_subsets,
    approx_interpolant_poly,
    exact_interpolant_poly,
    weighted_combine,
)


def S(*pairs):
    return SampleSet.from_pairs(pairs)


def random_set(rng, m=None, slope_cap=0.7, min_gap=0.12):
    m = m or int(rng.integers(2, 7))
    while True:
        us = np.sort(rng.uniform(0, 1, m))
        if m < 2 or np.min(np.diff(us)) > min_gap:
            break
    slopes = rng.uniform(-slope_cap, slope_cap, m - 1)
    v0 = float(rng.uniform(-0.3, 0.3))
    vs = np.concatenate([[v0], v0 + np.cumsum(slopes * np.diff(us))])
    return SampleSet(us, vs)


class TestApproxInterpolant:
    def test_unit_segment(self):
        s = S((0, 0), (1, 1))
        poly, plan = approx_interpolant_poly(s, 2, 0.1)
        assert abs(poly(0.0) - 0.0) < 0.1
        assert abs(poly(1.0) - 1.0) < 0.1
        assert q_action_poly(poly, 2) < 1.1

    def test_constant_set(self):
        s = S((0.1, 0.4), (0.6, 0.4), (0.9, 0.4))
        poly, plan = approx_interpolant_poly(s, 2, 0.05)
        assert poly.degree == 0
        assert poly(0.3) == 0.4
        assert q_action_poly(poly, 2) == 0.0

    def test_four_point_tight(self):
        s = S((0, 0), (0.3, 0.2), (0.6, -0.1), (1, 0.25))
        poly, plan = approx_interpolant_poly(s, 2, 0.01)
        for u, v in s:
            assert abs(poly(u) - v) < 0.01
        assert q_action_poly(poly, 2) < q_action(s, 2) + 0.01

    def test_plan_invariants(self):
        s = S((0.1, 0.0), (0.4, 0.15), (0.8, -0.05))
        eps = 0.05
        poly, plan = approx_interpolant_poly(s, 2, eps)
        gaps = np.diff(s.us)
        d = np.abs(np.diff(s.vs) / gaps)
        c1 = float(np.max(d))
        assert plan.c1 == pytest.approx(c1)
        assert plan.eps3 < eps / 2 + 1e-15
        assert (c1 + plan.eps3) ** 2 - c1 ** 2 < eps / 2

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_random_sets_contract(self, q):
        rng = np.random.default_rng(int(q * 10))
        for _ in range(8):
            s = random_set(rng)
            base = q_action(s, q)
            for eps in (0.1, 0.01):
                poly, plan = approx_interpolant_poly(s, q, eps)
                resid = max(abs(poly(u) - v) for u, v in s)
                assert resid < eps
                assert q_action_poly(poly, q) < base + eps

    def test_validation(self):
        with pytest.raises(ValueError):
            approx_interpolant_poly(S((0.5, 0.3)), 2, 0.1)
        with pytest.raises(ValueError):
            approx_interpolant_poly(S((0, 0), (1, 1)), 2, -1.0)


class TestWeightedCombine:
    def test_single_point_symmetric(self):
        values = {frozenset(): [0.0], frozenset({0}): [2.0]}
        weights = weighted_combine(values, [1.0])
        assert weights[frozenset()] == pytest.approx(0.5)
        assert weights[frozenset({0})] == pytest.approx(0.5)
        assert sum(w * values[k][0] for k, w in weights.items()) == pytest.approx(1.0)

    def test_single_point_asymmetric(self):
        v = 0.3
        values = {frozenset(): [v - 1.0], frozenset({0}): [v + 3.0]}
        weights = weighted_combine(values, [v])
        assert weights[frozenset({0})] == pytest.approx(0.25)
        assert sum(w * values[k][0] for k, w in weights.items()) == pytest.approx(v)

    def test_two_points_affine_handles(self):
        targets = [0.1, -0.2]
        offsets = {
            frozenset(): (-0.5, -0.3),
            frozenset({0}): (0.4, -0.6),
            frozenset({1}): (-0.2, 0.7),
            frozenset({0, 1}): (0.3, 0.5),
        }
        values = {k: np.add(targets, d) for k, d in offsets.items()}
        weights = weighted_combine(values, targets)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        combined = sum(w * values[k] for k, w in weights.items())
        assert np.allclose(combined, targets, rtol=0.0, atol=1e-12)

    def test_bad_sign_pattern_names_subset(self):
        values = {
            frozenset(): [1.0],  # should be below the target but is above
            frozenset({0}): [2.0],
        }
        with pytest.raises(ValueError, match=r"subset \[\] .* target 0"):
            weighted_combine(values, [0.0])

    def test_missing_handles(self):
        with pytest.raises(ValueError):
            weighted_combine({frozenset(): [-1.0]}, [0.0])
        with pytest.raises(ValueError, match="missing handle"):
            weighted_combine({frozenset(): [-1.0], frozenset({1}): [1.0]}, [0.0])
        with pytest.raises(ValueError, match="needs 1 values"):
            weighted_combine({frozenset(): [-1.0, 0.0], frozenset({0}): [1.0]}, [0.0])


class TestExactInterpolant:
    def test_singleton_constant(self):
        poly = exact_interpolant_poly(S((0.5, 0.3)), 2)
        assert poly.degree == 0
        assert poly(0.7) == 0.3
        assert q_action_poly(poly, 2) == 0.0

    def test_two_points(self):
        s = S((0, 0), (1, 0.9))
        poly = exact_interpolant_poly(s, 2)
        assert abs(poly(0.0)) <= 1e-8
        assert abs(poly(1.0) - 0.9) <= 1e-8
        assert q_action_poly(poly, 2) < 1.0

    def test_action_at_one_rejected(self):
        with pytest.raises(ValueError):
            exact_interpolant_poly(S((0, 0), (1, 1)), 2)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_larger_sets(self, q):
        # no knot-count limit: the solve is O(m^2), so only the degree cap bounds m
        rng = np.random.default_rng(2)
        sets = [SampleSet(np.linspace(0, 1, 9), rng.normal(size=9) * 0.05)]
        for m in (12, 16):
            sets.append(random_set(rng, m=m, min_gap=0.02))
        for s in sets:
            scale = (0.65 / q_action(s, q)) ** (1.0 / q)
            s = SampleSet(s.us, np.asarray(s.vs) * scale)
            assert q_action(s, q) == pytest.approx(0.65)
            poly = exact_interpolant_poly(s, q)
            assert max(abs(poly(u) - v) for u, v in s) <= 1e-8
            assert q_action_poly(poly, q) < 1.0

    def test_equal_values_return_the_constant(self):
        s = SampleSet([0.1, 0.6, 0.9], [0.2] * 3)
        poly = exact_interpolant_poly(s, 2)
        assert np.all(poly(np.asarray(s.us)) == 0.2)
        assert q_action_poly(poly, 2) == 0.0

    @pytest.mark.parametrize("cap", [0, 1, 8, 40])
    def test_degree_cap_below_the_floor(self, cap):
        # the first degree tried is 4 (2 / gap), or cap + 1 below it, and
        # it already interpolates and certifies
        s = S((0.1, 0.0), (0.6, 0.3))
        poly = exact_interpolant_poly(s, 2, degree_cap=cap)
        assert poly.degree == {0: 1, 1: 2, 8: 4, 40: 4}[cap]
        assert max(abs(poly(u) - v) for u, v in s) <= 1e-8
        assert q_action_poly(poly, 2) < 1.0

    def test_cap_below_the_node_spacing_raises_degree_cap_error(self):
        # 2 / gap is 4000, so at the cap 64 the middle knot's hat holds no
        # node k/65, its column is zero and A is singular
        s = S((0.1, 0), (0.1005, 0.0002), (0.101, 0), (0.9, 0.1))
        with pytest.raises(DegreeCapError, match="singular solve at degree 65"):
            exact_interpolant_poly(s, 2, degree_cap=64)

    def test_first_degree_certifies_on_criterion_7_draws(self):
        # every criterion-7 draw is certified at its first degree: the
        # smallest power of two >= 2 / (least knot gap)
        rng = np.random.default_rng(2718)  # criterion 7's stream
        for i in range(200):
            q = (1.5, 2.0, 3.0)[i % 3]
            s = random_action_set(rng, q=q)
            first = 2 ** math.ceil(math.log2(2.0 / float(np.min(np.diff(s.us)))))
            assert exact_interpolant_poly(s, q).degree == first, i

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_close_knots_climb_past_a_singular_solve(self, q):
        # The middle knots have no node k/(n+1) between their neighbours for
        # n = 32 or 64, so their columns are zero and A is singular there;
        # the first degree tried, 2 / gap rounded up to a power of two, is
        # past both.
        for s in (S((0.1, 0), (0.102, 0.001), (0.104, 0), (0.5, 0)),
                  S((0.1, 0), (0.1005, 0.0002), (0.101, 0), (0.9, 0.1))):
            poly = exact_interpolant_poly(s, q)
            assert poly.degree > 64
            assert max(abs(poly(u) - v) for u, v in s) <= 1e-8
            assert q_action_poly(poly, q) < 1.0

    def test_infinite_q_rejected(self):
        s = S((0.1, 0.0), (0.6, 0.3))
        poly, _plan = approx_interpolant_poly(s, 2, 0.1)
        for q in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                q_action_poly(poly, q)
            with pytest.raises(ValueError, match="finite"):
                approx_interpolant_poly(s, q, 0.1)
            with pytest.raises(ValueError, match="finite"):
                exact_interpolant_poly(s, q)
        with pytest.raises(ValueError, match="eps"):
            approx_interpolant_poly(s, 2, math.nan)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_random_sets(self, q):
        rng = np.random.default_rng(int(q * 7))
        done = 0
        while done < 5:
            s = random_set(rng)
            if not q_action(s, q) < 0.65:
                continue
            done += 1
            poly = exact_interpolant_poly(s, q)
            assert max(abs(poly(u) - v) for u, v in s) <= 1e-8
            assert q_action_poly(poly, q) < 1.0


class TestCorrectionSolve:
    def test_matches_sign_pattern_reference(self):
        # P0 = B_{n+1} of the samples' linear interpolant, at the solved
        # degree. The handles P0 + eps * sum_i sign_i C_i straddle every
        # target once eps * (A's diagonal-dominance margin) exceeds P0's
        # residual, and weighted_combine's convex mix of them must be the
        # solved polynomial. A need not be diagonally dominant at the first
        # degree that certifies; such a draw is checked by its residual.
        rng = np.random.default_rng(2718)  # criterion 7's stream
        compared = 0
        for i in range(15):
            q = (1.5, 2.0, 3.0)[i % 3]
            s = random_action_set(rng, q=q)
            us, vs = np.asarray(s.us), np.asarray(s.vs)
            exact = exact_interpolant_poly(s, q)
            n = exact.degree - 1
            # C_i built the long way, as the antiderivative of the Kantorovich
            # polynomial of phi_i' plus phi_i(0); the build reads phi_i at the nodes
            cols = np.column_stack([bernstein_coeffs_long_way(us, e, n) for e in np.eye(len(s))])
            a = bernstein_basis_matrix(n + 1, us) @ cols
            margin = np.min(2 * np.diag(a) - np.sum(np.abs(a), axis=1))
            if not margin > 0.0:
                assert np.max(np.abs(exact(us) - vs)) <= 1e-8, i
                continue
            compared += 1
            p0 = BernsteinPolynomial(cols @ vs)
            eps = 2.0 * np.max(np.abs(vs - p0(us))) / margin
            handles = {}
            for key in _all_subsets(len(s)):
                signs = np.array([1.0 if j in key else -1.0 for j in range(len(s))])
                handles[key] = BernsteinPolynomial(p0.coeffs + eps * cols @ signs)
            weights = weighted_combine({k: h(us) for k, h in handles.items()}, vs)
            mixed = sum(w * handles[k].coeffs for k, w in weights.items())
            assert np.max(np.abs(mixed - exact.coeffs)) <= 1e-12, i
        assert compared >= 14


class TestKantorovichReference:
    def test_node_values_are_the_kantorovich_antiderivative(self):
        # the builds read G at the nodes; the long way sums G's window
        # integrals from G(0), as the antiderivative of K_n[G'] would
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(2, 65))
            us = np.unique(rng.uniform(0.0, 1.0, m))
            if len(us) < 2:
                continue
            if rng.uniform() < 0.3:
                us[0] = 0.0
            if rng.uniform() < 0.3:
                us[-1] = 1.0
            g = rng.uniform(-1.0, 1.0, len(us)) * 10.0 ** rng.uniform(-3.0, 3.0)
            n = int(rng.integers(33, 2050))
            built = np.interp(np.arange(n + 2) / (n + 1), us, g)
            assert np.max(np.abs(built - bernstein_coeffs_long_way(us, g, n))) <= 1e-14 * np.max(np.abs(g))
