
import math

import numpy as np
import pytest
from test_acceptance import random_action_set

from smoothgame.bernstein import (
    DEGREE_CAP,
    BernsteinPolynomial,
    DegreeCapError,
    bernstein_basis_matrix,
    q_action_poly,
)
from smoothgame.interpolation import SampleSet, q_action
from smoothgame.polyapprox import (
    SmoothedDerivative,
    _all_subsets,
    _build_near_interpolant,
    _hat_antideriv,
    _kantorovich_coeffs,
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


class TestSmoothedDerivative:
    def test_single_segment_shape(self):
        f = SmoothedDerivative(S((0, 0), (1, 1)), 0.01)
        # plateau at slope 1 between the (omitted) left ramp and the right one
        assert f(0.5) == pytest.approx(1.0)
        assert f(0.0) == pytest.approx(1.0)  # first knot at 0: no leading ramp
        assert f(1.0) == pytest.approx(0.0)  # ramp down to the trailing slope
        assert f(1.0 - 0.005) == pytest.approx(0.5)

    def test_flat_values_zero(self):
        f = SmoothedDerivative(S((0.2, 0.4), (0.6, 0.4), (0.9, 0.4)), 0.05)
        xs = np.linspace(0, 1, 101)
        assert np.allclose(f(xs), 0.0)

    def test_continuity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_set(rng)
            eps2 = 0.02
            if s.us[0] > 0:
                eps2 = min(eps2, 0.9 * s.us[0])
            f = SmoothedDerivative(s, eps2)
            xs = np.linspace(0, 1, 2001)
            vals = f(xs)
            lipschitz = np.max(np.abs(np.diff(f.ys) / np.diff(f.xs)))
            assert np.max(np.abs(np.diff(vals))) <= lipschitz / 2000 + 1e-12

    def test_plateau_matches_interpolant_slope(self):
        s = S((0.1, 0.0), (0.5, 0.3), (0.9, 0.1))
        f = SmoothedDerivative(s, 0.02)
        assert f(0.3) == pytest.approx(0.75)
        assert f(0.7) == pytest.approx(-0.5)
        assert f(0.05) == pytest.approx(0.0)

    def test_power_integral_close_to_action(self):
        # smoothing moves the action by at most (ramp count) * c * eps2
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = random_set(rng)
            q = float(rng.choice([1.5, 2.0, 3.0]))
            eps2 = float(rng.uniform(0.002, 0.05))
            if s.us[0] > 0 and eps2 >= s.us[0]:
                continue
            if eps2 >= np.min(np.diff(s.us)):
                continue
            f = SmoothedDerivative(s, eps2)
            m = len(s)
            c1 = max(abs(sl) for sl in f.slopes)
            bound = m * max(c1 ** q, 1e-12) * eps2
            assert abs(f.power_integral(q) - q_action(s, q)) <= bound + 1e-12

    def test_power_integral_oracle(self):
        s = S((0.2, 0.1), (0.5, 0.4), (0.8, 0.2))
        f = SmoothedDerivative(s, 0.03)
        xs = np.linspace(0, 1, 400_001)
        for q in (1.0, 1.7, 2.0):
            riemann = np.trapezoid(np.abs(f(xs)) ** q, xs)
            assert f.power_integral(q) == pytest.approx(riemann, rel=1e-6, abs=1e-8)

    def test_action_convergence_linear_in_eps2(self):
        s = S((0.2, 0.0), (0.5, 0.35), (0.9, 0.1))
        q = 2.0
        base = q_action(s, q)
        errs = []
        for eps2 in (0.04, 0.02):
            f = SmoothedDerivative(s, eps2)
            errs.append(abs(f.power_integral(q) - base))
        ratio = errs[0] / errs[1]
        assert 0.6 <= ratio / 2.0 <= 3.0  # halving eps2 roughly halves the error

    def test_integral_to_exact(self):
        s = S((0.2, 0.1), (0.6, -0.2), (0.9, 0.3))
        f = SmoothedDerivative(s, 0.04)
        xs = np.linspace(0, 1, 101)
        dense = np.linspace(0, 1, 200_001)
        vals = f(dense)
        cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(dense))])
        approx = np.interp(xs, dense, cumulative)
        assert np.allclose(f.integral_to(xs), approx, atol=1e-8)

    def test_eps2_validation(self):
        s = S((0.3, 0.0), (0.6, 0.2))
        with pytest.raises(ValueError):
            SmoothedDerivative(s, 0.4)  # above min gap
        with pytest.raises(ValueError):
            SmoothedDerivative(s, 0.35)  # above first knot


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
        c = max(c1 ** 2, 1e-12)
        m = len(s)
        assert plan.c1 == pytest.approx(c1)
        assert plan.C == pytest.approx(2.0 / float(np.min(gaps)))
        assert 0 < plan.eps2 < min(np.min(gaps), eps / (2 * m * c) + 1e-15)
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
        # the ladder's floor of 32 must not lift the degree above the cap
        s = S((0.1, 0.0), (0.6, 0.3))
        try:
            poly = exact_interpolant_poly(s, 2, degree_cap=cap)
        except DegreeCapError:
            return
        assert poly.degree <= cap + 1
        assert max(abs(poly(u) - v) for u, v in s) <= 1e-8
        assert q_action_poly(poly, 2) < 1.0

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_close_knots_climb_past_a_singular_solve(self, q):
        # The middle knots have no node k/(n+1) between their neighbours for
        # n = 32 or 64, so their correction columns are zero and A is singular
        # there; the ladder must climb past both rungs.
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
        # The handles P0 + eps * sum_i sign_i C_i straddle every target once
        # eps * (A's diagonal-dominance margin) exceeds P0's residual, and
        # weighted_combine's convex mix of them must be the solved polynomial.
        rng = np.random.default_rng(2718)  # criterion 7's stream
        for i in range(15):
            q = (1.5, 2.0, 3.0)[i % 3]
            s = random_action_set(rng, q=q)
            us, vs = np.asarray(s.us), np.asarray(s.vs)
            exact = exact_interpolant_poly(s, q)
            slack = 0.45 * (1.0 - q_action(s, q))
            p0, _plan = _build_near_interpolant(s, q, slack, slack, DEGREE_CAP)
            assert p0.degree == exact.degree
            n = p0.degree - 1
            # C_i built the long way, as the antiderivative of the Kantorovich
            # polynomial of phi_i' plus phi_i(0); the build reads phi_i at the nodes
            cols = np.column_stack([
                BernsteinPolynomial(_kantorovich_coeffs(_hat_antideriv(us, e), n))
                .antiderivative(np.interp(0.0, us, e)).coeffs
                for e in np.eye(len(s))
            ])
            a = bernstein_basis_matrix(n + 1, us) @ cols
            margin = np.min(2 * np.diag(a) - np.sum(np.abs(a), axis=1))
            assert margin > 0.0
            eps = 2.0 * np.max(np.abs(vs - p0(us))) / margin
            handles = {}
            for key in _all_subsets(len(s)):
                signs = np.array([1.0 if j in key else -1.0 for j in range(len(s))])
                handles[key] = BernsteinPolynomial(p0.coeffs + eps * cols @ signs)
            weights = weighted_combine({k: h(us) for k, h in handles.items()}, vs)
            mixed = sum(w * handles[k].coeffs for k, w in weights.items())
            assert np.max(np.abs(mixed - exact.coeffs)) <= 1e-12, i
