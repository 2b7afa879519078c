
import numpy as np
import pytest

from smoothgame.bernstein import BernsteinPolynomial, q_action_poly
from smoothgame.interpolation import SampleSet, q_action
from smoothgame.polyapprox import (
    SmoothedDerivative,
    _combine_by_degree,
    approx_interpolant_poly,
    exact_interpolant_poly,
    perturbation_margin,
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
        assert plan.eps1 is None

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


class TestCombineByDegree:
    def test_matches_elevating_each_part(self):
        # reference path: elevate every part to the top degree, then sum
        rng = np.random.default_rng(5)
        degrees = [0, 3, 3, 17, 40, 40, 64, 64]
        parts = {frozenset({i}): BernsteinPolynomial(rng.normal(size=n + 1))
                 for i, n in enumerate(degrees)}
        raw = rng.uniform(size=len(parts))
        weights = dict(zip(parts, raw / raw.sum()))
        top = 96
        fast = _combine_by_degree(parts, weights, top)
        reference = sum(w * parts[k].elevated(top).coeffs for k, w in weights.items())
        assert fast.degree == top
        assert np.allclose(fast.coeffs, reference, rtol=0.0, atol=1e-12)


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

    def test_too_many_points_rejected(self):
        rng = np.random.default_rng(2)
        us = np.linspace(0, 1, 9)
        s = SampleSet(us, rng.normal(size=9) * 0.05)
        with pytest.raises(ValueError):
            exact_interpolant_poly(s, 2, m_max=8)

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

    def test_perturbed_parts_stay_feasible(self):
        rng = np.random.default_rng(3)
        s = random_set(rng, m=4)
        q = 2.0
        eps1 = perturbation_margin(s, q)
        assert eps1 > 0
        us, vs = np.asarray(s.us), np.asarray(s.vs)
        for mask in range(16):
            signs = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(4)])
            assert q_action(SampleSet(us, vs + eps1 * signs), q) < 1.0


class TestActionBudgetLedger:
    def test_combined_action_below_worst_part(self):
        # power-mean direction: the average's action cannot exceed the parts'
        rng = np.random.default_rng(4)
        s = random_set(rng, m=3)
        q = 2.0
        eps1 = perturbation_margin(s, q)
        us, vs = np.asarray(s.us), np.asarray(s.vs)
        from smoothgame.polyapprox import _build_near_interpolant

        parts = {}
        worst = 0.0
        for mask in range(8):
            signs = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(3)])
            sx = SampleSet(us, vs + eps1 * signs)
            ax = q_action(sx, q)
            poly, _ = _build_near_interpolant(
                sx, q, res_target=0.45 * min(eps1, 1 - ax),
                act_slack=0.45 * (1 - ax), degree_cap=2 ** 14)
            parts[frozenset(i for i in range(3) if mask >> i & 1)] = poly
            worst = max(worst, q_action_poly(poly, q))
        top = max(p.degree for p in parts.values())
        weights = weighted_combine({k: p(us) for k, p in parts.items()}, vs)
        combined = _combine_by_degree(parts, weights, top)
        assert q_action_poly(combined, q) <= worst + 1e-9
