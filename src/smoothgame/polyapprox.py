"""Action-bounded polynomials through (or near) a set of sample points.

The construction follows the constructive route from smoothing to a
Bernstein-basis polynomial: the interpolant's derivative is first made
continuous by narrow linear ramps, then turned into a polynomial, then
integrated back up. The polynomial step uses the integral (Kantorovich)
variant of the Bernstein operator: its coefficients are exact window
averages of the smoothed derivative, which makes the operator an L^q
contraction, so the q-action of the result never exceeds that of the
smoothed derivative. Certifying a sup-norm tolerance instead would force
degrees far beyond the cap, because the smoothed derivative's Lipschitz
constant scales like 1/ramp-width.

Near-interpolation error concentrates at the knots (the antiderivative has
corners there) and shrinks like max-slope-jump / sqrt(degree); when a
tighter fit is needed, correction rounds add the Kantorovich polynomial of
the residuals' own interpolant, contracting the residual geometrically.

Exact interpolation upgrades one near-interpolant P0 with m correction
columns, one per knot: column i is the degree-(n+1) Bernstein polynomial of
the hat function that is 1 at knot i and 0 at the others, so the m x m
matrix of column values at the knots is close to the identity. One linear
solve gives the combination that closes P0's residuals exactly.
Quadrature certifies the corrected action below 1, and the degree climbs
where it does not, or where knots closer than the node spacing 1/(n+1)
leave a column zero and the matrix singular. The cost is one degree
ladder plus one m x m solve, so no knot count is rejected; the degree cap
is the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bernstein import (
    DEGREE_CAP,
    BernsteinPolynomial,
    FINITE_Q,
    DegreeCapError,
    bernstein_basis_matrix,
    gauss_grid,
    grid_values,
    q_action_poly,
)
from .interpolation import SampleSet, q_action


class SmoothedDerivative:
    """The interpolant's derivative with its jumps bridged by linear ramps.

    Piecewise linear and continuous: equal to segment slope d_i on
    ``(u_i, u_{i+1} - eps2]`` and ramping from d_{i-1} to d_i over
    ``(u_i - eps2, u_i]``. The leading ramp is omitted when the first knot
    sits at 0 (there is no room to its left, and no slope change either).
    """

    def __init__(self, s: SampleSet, eps2: float):
        if len(s) < 2:
            raise ValueError("need at least two points")
        us = np.asarray(s.us)
        vs = np.asarray(s.vs)
        gaps = np.diff(us)
        if eps2 <= 0.0:
            raise ValueError("eps2 must be positive")
        if eps2 >= np.min(gaps):
            raise ValueError(f"eps2={eps2} must be below the smallest knot gap")
        if us[0] > 0.0 and eps2 >= us[0]:
            raise ValueError(f"eps2={eps2} must be below the first knot {us[0]}")
        d = np.concatenate(([0.0], np.diff(vs) / gaps, [0.0]))
        xs = [0.0]
        ys = [d[0] if us[0] > 0.0 else d[1]]
        for i in range(len(us)):
            u = us[i]
            if u == 0.0:
                continue
            xs.extend([u - eps2, u])
            ys.extend([d[i], d[i + 1]])
        if us[-1] < 1.0:
            xs.append(1.0)
            ys.append(d[-1])
        self.xs = np.asarray(xs)
        self.ys = np.asarray(ys)
        self._prefix = np.concatenate(
            ([0.0], np.cumsum(0.5 * (self.ys[1:] + self.ys[:-1]) * np.diff(self.xs)))
        )

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def integral_to(self, x):
        """Exact antiderivative from 0, vectorized (piecewise quadratic)."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        x0 = self.xs[idx]
        y0 = self.ys[idx]
        dx = self.xs[idx + 1] - x0
        dy = self.ys[idx + 1] - y0
        t = x - x0
        slope_part = np.where(dx > 0.0, 0.5 * dy / np.where(dx > 0.0, dx, 1.0) * t * t, 0.0)
        return self._prefix[idx] + y0 * t + slope_part

    def power_integral(self, q: float) -> float:
        """Exact integral of |value|^q over [0, 1], piece by piece."""
        total = 0.0
        for x0, x1, y0, y1 in zip(self.xs, self.xs[1:], self.ys, self.ys[1:]):
            w = x1 - x0
            if w <= 0.0:
                continue
            if y0 == y1:
                total += abs(y0) ** q * w
            else:
                s = (y1 - y0) / w
                total += (_abs_power_anti(y1, q) - _abs_power_anti(y0, q)) / s
        return total


def _abs_power_anti(v: float, q: float) -> float:
    return math.copysign(abs(v) ** (q + 1.0) / (q + 1.0), v)


@dataclass(frozen=True)
class BudgetPlan:
    """The tolerance ledger of one construction run."""

    eps2: float
    eps3: float
    C: float
    c1: float
    degree: int


def _grid_action(deriv_coeffs: np.ndarray, q: float) -> float:
    """Fast composite-Gauss estimate of the action of a derivative poly."""
    vals = grid_values(BernsteinPolynomial(deriv_coeffs))
    return float(np.dot(gauss_grid()[1], np.abs(vals) ** q))


def _kantorovich_coeffs(antideriv, n: int) -> np.ndarray:
    # window averages of the derivative = scaled antiderivative increments
    nodes = np.arange(n + 2) / (n + 1)
    return (n + 1) * np.diff(np.asarray(antideriv(nodes), dtype=float))


def _hat_antideriv(us: np.ndarray, rs: np.ndarray) -> Callable:
    # antiderivative of the derivative of the interpolant through (u_i, r_i),
    # i.e. the interpolant itself minus its value at 0
    def anti(x):
        return np.interp(x, us, rs) - np.interp(0.0, us, rs)

    return anti


def _build_near_interpolant(
    s: SampleSet,
    q: float,
    res_target: float,
    act_slack: float,
    degree_cap: int,
    min_degree: int = 32,
) -> tuple[BernsteinPolynomial, BudgetPlan]:
    """Core construction: residuals below res_target, action excess below act_slack."""
    us = np.asarray(s.us)
    vs = np.asarray(s.vs)
    m = len(s)
    base_action = q_action(s, q)
    if np.ptp(vs) == 0.0:
        plan = BudgetPlan(0.0, 0.0, 2.0 / float(np.min(np.diff(us))), 0.0, 0)
        return BernsteinPolynomial([float(vs[0])]), plan
    gaps = np.diff(us)
    d = np.diff(vs) / gaps
    c1 = float(np.max(np.abs(d)))
    c = max(c1 ** q, 1e-12)
    max_jump = float(np.max(np.abs(np.diff(np.concatenate(([0.0], d, [0.0]))))))
    mingap = float(np.min(gaps))
    eps2_cap = 0.499 * mingap
    if us[0] > 0.0:
        eps2_cap = min(eps2_cap, 0.9 * float(us[0]))
    eps2 = min(0.2 * min(act_slack, res_target) / (m * max(c, c1, 1.0)), eps2_cap)
    smooth = SmoothedDerivative(s, eps2)
    # polynomial-step tolerance honoring both budget constraints:
    # under half the slack, and cheap enough in q-power spread
    eps3 = min(0.45 * res_target,
               (c1 ** q + 0.45 * act_slack) ** (1.0 / q) - c1)

    # correction rounds contract the residual geometrically, so start the
    # degree ladder well below the no-correction estimate and climb on
    # verification failure; building and verifying a level is cheap
    n_seed = (0.45 * max_jump / max(eps3, 1e-13)) ** 2
    n = int(np.clip(2 ** math.ceil(math.log2(max(n_seed / 64.0, 32.0))),
                    min_degree, min(2048, degree_cap)))
    n = max(n, min(min_degree, degree_cap))
    v1 = float(vs[0])
    while True:
        coeffs = _kantorovich_coeffs(smooth.integral_to, n)
        basis = bernstein_basis_matrix(n + 1, us)
        # up to six correction rounds, each followed by a fresh residual
        for corrections in range(7):
            anti = np.concatenate(([0.0], np.cumsum(coeffs))) / (n + 1)
            resid = basis @ anti + v1 - vs
            shift = 0.5 * (resid.max() + resid.min())
            spread = float(np.max(np.abs(resid - shift)))
            if spread <= 0.9 * eps3 or corrections == 6:
                break
            coeffs = coeffs + _kantorovich_coeffs(_hat_antideriv(us, -resid), n)
        resid_ok = spread < eps3
        action_est = _grid_action(coeffs, q)
        action_ok = action_est < base_action + 0.9 * act_slack
        if resid_ok and action_ok:
            poly = BernsteinPolynomial(anti + (v1 - shift))
            plan = BudgetPlan(eps2, eps3, 2.0 / mingap, c1, poly.degree)
            return poly, plan
        if n >= degree_cap:
            raise DegreeCapError(
                f"degree cap {degree_cap} reached: residual "
                f"{spread:.3e} vs {res_target:.3e}, "
                f"action {action_est:.6f} vs {base_action + act_slack:.6f} "
                f"(smoothed-derivative action {smooth.power_integral(q):.6f})"
            )
        n = min(2 * n, degree_cap)


def approx_interpolant_poly(
    s: SampleSet, q: float, eps: float, degree_cap: int = DEGREE_CAP
) -> tuple[BernsteinPolynomial, BudgetPlan]:
    """Polynomial within eps of every sample value and of the minimal action.

    Returns the polynomial together with the tolerance plan used to build
    it. Raises ``DegreeCapError`` if the requested eps needs a degree above
    the cap.
    """
    if len(s) < 2:
        raise ValueError("need at least two points; a singleton is a constant")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    FINITE_Q.check("q", q)
    return _build_near_interpolant(
        s, q, res_target=0.9 * eps, act_slack=0.9 * eps, degree_cap=degree_cap
    )


def weighted_combine(
    values: Mapping[frozenset, Sequence[float]],
    targets: Sequence[float],
) -> dict[frozenset, float]:
    """Convex weights making sign-patterned handles interpolate exactly.

    Nothing in the build calls this: it is the reference that tests check
    the correction solve of ``exact_interpolant_poly`` against. The
    handles P0 + eps * sum_i (+-1) C_i are affine in their signs, so the
    convex mix it finds is P0 plus a combination of the columns, which must
    equal the solved one. It stays in this module because
    ``bench/layertrace.py`` times it under this name.

    ``values`` maps each subset X of target indices to one handle's values
    at the k targets; the handle must be above target i exactly when i is
    in X. The recursion merges the half-families containing and missing the
    last index, each already exact on the earlier targets, and solves one
    scalar weight at the last target. The weighted sum of the handles'
    values must hit every target to 1e-10.
    """
    k = len(targets)
    expected = 1 << k
    if len(values) != expected:
        raise ValueError(f"need {expected} handles for {k} targets, got {len(values)}")
    rows: dict[frozenset, np.ndarray] = {}
    for key in _all_subsets(k):
        if key not in values:
            raise ValueError(f"missing handle for subset {sorted(key)}")
        row = np.asarray(values[key], dtype=float)
        if row.shape != (k,):
            raise ValueError(f"handle for subset {sorted(key)} needs {k} values, got {row.size}")
        for i, v in enumerate(targets):
            above = row[i] > v
            if row[i] == v or above != (i in key):
                raise ValueError(
                    f"handle for subset {sorted(key)} is on the wrong side of "
                    f"target {i}: value {row[i]} vs {v}"
                )
        rows[key] = row

    def solve(level: int, keys: list[frozenset]) -> dict[frozenset, float]:
        if level == 0:
            (key,) = keys
            return {key: 1.0}
        idx = level - 1
        group_a = [key for key in keys if idx in key]
        group_b = [key for key in keys if idx not in key]
        wa = solve(level - 1, group_a)
        wb = solve(level - 1, group_b)
        fa = sum(w * rows[key][idx] for key, w in wa.items())
        fb = sum(w * rows[key][idx] for key, w in wb.items())
        w = (targets[idx] - fb) / (fa - fb)
        out = {key: w * wv for key, wv in wa.items()}
        out.update({key: (1.0 - w) * wv for key, wv in wb.items()})
        return out

    weights = solve(k, list(rows))
    total = sum(weights.values())
    if not (abs(total - 1.0) <= 1e-12 and all(-1e-15 <= w <= 1.0 + 1e-12 for w in weights.values())):
        raise RuntimeError("combination weights left the simplex")
    hit = sum(w * rows[key] for key, w in weights.items())
    for i, v in enumerate(targets):
        if abs(hit[i] - v) > 1e-10:
            raise RuntimeError(f"combined handle misses target {i}: {hit[i]} vs {v}")
    return weights


def _all_subsets(k: int):
    for mask in range(1 << k):
        yield frozenset(i for i in range(k) if mask >> i & 1)


def exact_interpolant_poly(
    s: SampleSet,
    q: float,
    degree_cap: int = DEGREE_CAP,
) -> BernsteinPolynomial:
    """Polynomial hitting every sample exactly with q-action strictly below 1.

    Requires a finite q >= 1 and the set's own action strictly below 1.
    One near-interpolant P0 is built with residual and action slack each
    0.45 (1 - action), then one m x m solve A w = v - P0(u), with
    A[j, i] = C_i(u_j), picks the combination of correction columns C_i
    that P0 + sum w_i C_i needs to hit every knot. The result interpolates
    to 1e-8 and its action is certified by quadrature; otherwise (a failed
    check or a singular A) the degree floor doubles, up to the cap, so the
    degree never exceeds ``degree_cap + 1``.
    """
    FINITE_Q.check("q", q)
    m = len(s)
    if m == 0:
        return BernsteinPolynomial([0.0])
    if m == 1:
        return BernsteinPolynomial([s.vs[0]])
    base_action = q_action(s, q)
    if not base_action < 1.0:
        raise ValueError(f"action {base_action} must be strictly below 1")
    us = np.asarray(s.us)
    vs = np.asarray(s.vs)
    slack = 0.45 * (1.0 - base_action)
    degree_floor = 32
    while True:
        poly, _plan = _build_near_interpolant(
            s, q, res_target=slack, act_slack=slack,
            degree_cap=degree_cap, min_degree=degree_floor,
        )
        n = poly.degree - 1
        # a constant P0 (all values equal) already interpolates exactly
        if n >= 0:
            # column i is the degree-(n+1) Bernstein polynomial of phi_i, the
            # hat that is 1 at u_i and 0 at the other knots: its coefficients
            # are phi_i at the nodes k / (n + 1)
            nodes = np.arange(n + 2) / (n + 1)
            cols = np.column_stack([np.interp(nodes, us, e) for e in np.eye(m)])
            a = bernstein_basis_matrix(n + 1, us) @ cols
            try:
                w = np.linalg.solve(a, vs - poly(us))
            except np.linalg.LinAlgError:
                # column i is zero when no node lies in (u_{i-1}, u_{i+1}):
                # leave P0 as it is, so the checks below climb the ladder
                w = np.zeros(m)
            poly = BernsteinPolynomial(poly.coeffs + cols @ w)
        resid = float(np.max(np.abs(poly(us) - vs)))
        action = q_action_poly(poly, q)
        if resid <= 1e-8 and action < 1.0:
            return poly
        if n >= degree_cap:
            raise DegreeCapError(
                f"exact interpolation failed at the cap: residual {resid:.2e}, "
                f"action {action:.9f}"
            )
        degree_floor = 2 * n
