"""Action-bounded polynomials through (or near) a set of sample points.

Every polynomial the builds make is B_{n+1}[G], the degree-(n+1)
Bernstein polynomial of a piecewise-linear G on the knots (held constant
outside them): its coefficients are G at the nodes k/(n+1), one
``np.interp``. Its derivative is the Kantorovich polynomial of G',

    P'(x) = sum_k d_k b_{k,n}(x),  d_k = (n+1) * integral of G' over
                                         [k/(n+1), (k+1)/(n+1)],

so Jensen's inequality, once over the basis (a partition of unity) and
once over each window average d_k, gives the action bound structurally:

    integral |P'|^q <= sum_k |d_k|^q / (n+1) <= integral |G'|^q,

and the right-hand side is ``q_action`` of G's knots. No smoothness of G
is needed, and certifying a sup-norm tolerance instead would force degrees
far beyond the cap.

Near-interpolation error concentrates at the knots (G has corners there)
and shrinks like max-slope-jump / sqrt(degree); when a tighter fit is
needed, correction rounds add B_{n+1} of the residuals' own
piecewise-linear interpolant, contracting the residual geometrically. The
result is B_{n+1}[G] for the corrected G, whose action bounds it; the
corrections move G's knot values, so the degree ladder still estimates
the polynomial's action on the Gauss grid.

Exact interpolation solves for the G that hits every sample. Column i is
B_{n+1} of the hat that is 1 at knot i and 0 at the others, so the m x m
matrix of column values at the knots is close to the identity, and one
linear solve gives the knot values of G whose B_{n+1}[G] interpolates.
The degree starts at the first power of two at which every hat has a node
inside its support (knots closer than the node spacing 1/(n+1) leave a
column zero and the matrix singular). The degree doubles only where the
solve is singular, misses a knot by more than 1e-8, or quadrature does not
certify the action below 1. The cost is one m x m solve per degree tried,
so no knot count is rejected; the degree cap is the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class BudgetPlan:
    """The tolerance ledger of one construction run."""

    eps3: float
    c1: float
    degree: int


def approx_interpolant_poly(
    s: SampleSet, q: float, eps: float, degree_cap: int = DEGREE_CAP
) -> tuple[BernsteinPolynomial, BudgetPlan]:
    """Polynomial within eps of every sample value and of the minimal action.

    The polynomial is B_{n+1}[G], with G the samples' piecewise-linear
    interpolant plus up to six correction rounds' interpolants of the
    negated residuals, so its action is at most G's (the module's Jensen
    bound). The degree climbs a doubling ladder until the residual spread
    is below ``plan.eps3`` and the action on the Gauss grid is below the
    samples' action plus 0.81 eps. Each rung builds its candidate
    polynomial first and estimates from ``grid_values(poly.derivative())``,
    which the polynomial keeps, so the certificate of the one returned
    searches the roots of P' on those same values. Returns the polynomial
    together with the tolerance plan used to build it. Raises
    ``DegreeCapError`` if the requested eps needs a degree above the cap.
    """
    if len(s) < 2:
        raise ValueError("need at least two points; a singleton is a constant")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    FINITE_Q.check("q", q)
    us = np.asarray(s.us)
    vs = np.asarray(s.vs)
    if np.ptp(vs) == 0.0:
        return BernsteinPolynomial([float(vs[0])]), BudgetPlan(0.0, 0.0, 0)
    base_action = q_action(s, q)
    # the budget that the residual target eps3 and the action target take parts of
    slack = 0.9 * eps
    action_target = base_action + 0.9 * slack
    d = np.diff(vs) / np.diff(us)
    c1 = float(np.max(np.abs(d)))
    max_jump = float(np.max(np.abs(np.diff(np.concatenate(([0.0], d, [0.0]))))))
    try:
        # polynomial-step tolerance honoring both budget constraints:
        # under half the slack, and cheap enough in q-power spread
        eps3 = min(0.45 * slack, (c1 ** q + 0.45 * slack) ** (1.0 / q) - c1)
        # correction rounds contract the residual geometrically, so start the
        # degree ladder well below the no-correction estimate and climb on
        # verification failure; building and verifying a level is cheap
        n_seed = (0.45 * max_jump / max(eps3, 1e-13)) ** 2
    except OverflowError:
        raise ValueError(f"slopes up to {c1} at q={q} overflow the tolerance budget") from None
    n = min(2 ** math.ceil(math.log2(max(n_seed / 64.0, 32.0))), 2048, degree_cap)
    while True:
        # B_{n+1}[G] for the interpolant G: its coefficients are G at the nodes
        nodes = np.arange(n + 2) / (n + 1)
        coeffs = np.interp(nodes, us, vs)
        basis = bernstein_basis_matrix(n + 1, us)
        # up to six correction rounds, each followed by a fresh residual
        for corrections in range(7):
            resid = basis @ coeffs - vs
            shift = 0.5 * (resid.max() + resid.min())
            spread = float(np.max(np.abs(resid - shift)))
            if spread <= 0.9 * eps3 or corrections == 6:
                break
            coeffs = coeffs + np.interp(nodes, us, -resid)
        # a fast composite-Gauss estimate of the action of P', whose grid
        # values the rung's polynomial keeps for its certificate's root search
        poly = BernsteinPolynomial(coeffs - shift)
        action_est = float(np.dot(gauss_grid()[1], np.abs(grid_values(poly.derivative())) ** q))
        if spread < eps3 and action_est < action_target:
            return poly, BudgetPlan(eps3, c1, poly.degree)
        if n >= degree_cap:
            raise DegreeCapError(
                f"degree cap {degree_cap} reached: residual {spread:.3e} vs {eps3:.3e}, "
                f"action {action_est:.6f} vs {action_target:.6f}"
            )
        n = min(2 * n, degree_cap)


def weighted_combine(
    values: Mapping[frozenset, Sequence[float]],
    targets: Sequence[float],
) -> dict[frozenset, float]:
    """Convex weights making sign-patterned handles interpolate exactly.

    Nothing in the build calls this: it is the reference that tests check
    the solve of ``exact_interpolant_poly`` against. Take P0 = B_{n+1} of
    the samples' piecewise-linear interpolant at the solved degree. The
    handles P0 + eps * sum_i (+-1) C_i are affine in their signs, so the
    convex mix it finds is P0 plus a combination of the columns; P0 is
    itself one (its G is the sum of the hats weighted by the sample
    values), so the mix must equal the solved combination. It stays in
    this module because ``bench/layertrace.py`` times it under this name.

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
    The degree n + 1 starts at the smallest power of two >= 2 / (least knot
    gap), with n at most ``degree_cap``: there every hat has a node
    k / (n + 1) inside its support. One m x m solve A g = v, with
    A[j, i] = C_i(u_j) and C_i = B_{n+1} of the hat on knot i, gives the
    knot values g of the piecewise-linear G whose B_{n+1}[G] = sum g_i C_i
    hits every knot; its action is at most G's by the module's Jensen
    bound. The result interpolates to 1e-8, its knot values summed from the
    basis rows the solve formed, and its action is certified below 1 by
    quadrature; otherwise (a failed check or a singular A) n
    goes to 2n + 1, up to the cap, where ``DegreeCapError`` is raised, so
    the degree never exceeds ``degree_cap + 1``.
    """
    FINITE_Q.check("q", q)
    m = len(s)
    if m == 0:
        return BernsteinPolynomial([0.0])
    us = np.asarray(s.us)
    vs = np.asarray(s.vs)
    if m == 1 or np.ptp(vs) == 0.0:
        return BernsteinPolynomial([float(vs[0])])
    base_action = q_action(s, q)
    if not base_action < 1.0:
        raise ValueError(f"action {base_action} must be strictly below 1")
    gap = float(np.min(np.diff(us)))
    # the first degree with n + 1 >= 2 / gap, where every hat holds a node
    n = 1
    while n < degree_cap and (n + 1) * gap < 2.0:
        n = 2 * n + 1
    n = min(n, degree_cap)
    while True:
        # column i is the degree-(n+1) Bernstein polynomial of phi_i, the
        # hat that is 1 at u_i and 0 at the other knots: its coefficients
        # are phi_i at the nodes k / (n + 1)
        nodes = np.arange(n + 2) / (n + 1)
        cols = np.column_stack([np.interp(nodes, us, e) for e in np.eye(m)])
        basis = bernstein_basis_matrix(n + 1, us)
        try:
            poly = BernsteinPolynomial(cols @ np.linalg.solve(basis @ cols, vs))
        except np.linalg.LinAlgError:
            # column i is zero when no node lies in (u_{i-1}, u_{i+1})
            failure = f"singular solve at degree {n + 1}: a hat has no node in its support"
        else:
            # the knot values from the basis rows the solve used: poly(us) to rounding
            resid = float(np.max(np.abs(basis @ poly.coeffs - vs)))
            action = q_action_poly(poly, q)
            if resid <= 1e-8 and action < 1.0:
                return poly
            failure = f"residual {resid:.2e}, action {action:.9f}"
        if n >= degree_cap:
            raise DegreeCapError(f"exact interpolation failed at the cap: {failure}")
        n = min(2 * n + 1, degree_cap)
