"""The action quadrature before its shortcuts: the reference it is tested against.

``sign_changes`` filters the grid's sign changes one index at a time,
where ``polynomial_roots`` filters them in one vector expression.
``bisection_roots`` bisects each sign change of P' with one scalar
evaluation per step, down to ``ROOT_WIDTH``, where ``polynomial_roots``
refines all brackets together by false position and probes.
``graded_action`` splits [0, 1] at every root, at even q too, lays
uniform panels over each piece and grades every piece end of a
fractional-q integrand by 4x panels down to 1e-13 of the piece, all at
20 Gauss-Legendre points and evaluated afresh, where ``q_action_poly``
makes each zero of P' a panel edge at odd and fractional q, gives each
panel that ends at a zero s one 20-point Gauss-Jacobi rule for the
weight |x - s|^alpha (alpha = q at a root and, at fractional q, k q at
an end where P' has a zero of order k), reads the uniform panels clear
of the zeros from a cached rule, and does not grade an end where
P' != 0 at all, since |P'|^q is analytic there.
``uncached_grid_values`` and ``unit_panel_integral`` build their basis
windows afresh on every call, where ``grid_values`` and a doubling level
with no zero read them from the cache of ``_rule_basis``.
``level_rule`` lays one level's fresh panels in numpy over all its edges,
where ``_fresh_panels`` lays a certificate's opening pair of levels in one
pass that looks only at the zeros and the edges beside them.
The grid, the graze floor, the panel rule and the doubling certificate
(at most eight levels, then ``RuntimeError``) are those of
``smoothgame.bernstein``.
"""

import math

import numpy as np

from smoothgame import bernstein
from smoothgame.bernstein import QUADRATURE_TOL, ROOT_WIDTH, BernsteinPolynomial


def uncached_grid_values(poly: BernsteinPolynomial) -> np.ndarray:
    window = bernstein._basis_window(poly.degree, bernstein.gauss_grid()[0])
    return bernstein._window_dot(*window, poly.coeffs)


def panel_integral(deriv: BernsteinPolynomial, q: float, edges, order: int) -> float:
    xs, ws = bernstein._panel_rule(edges, order)
    return float(np.dot(ws, np.abs(deriv(xs)) ** q))


def unit_panel_integral(deriv: BernsteinPolynomial, q: float, panels: int) -> float:
    edges = full_depth_panels(0.0, 1.0, panels, False)
    return panel_integral(deriv, q, edges, 20)


def sign_changes(vals: np.ndarray) -> list[int]:
    floor = 1e-7 * float(np.max(np.abs(vals)))
    sign = np.sign(vals)
    return [i for i in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
            if np.max(np.abs(vals[max(0, i - 1) : i + 3])) >= floor]


def bisection_roots(poly: BernsteinPolynomial) -> list[float]:
    xs = np.concatenate(([0.0], bernstein.gauss_grid()[0], [1.0]))
    vals = np.concatenate(([poly.coeffs[0]], uncached_grid_values(poly), [poly.coeffs[-1]]))
    roots = []
    for i in sign_changes(vals):
        a, b = float(xs[i]), float(xs[i + 1])
        fa = vals[i]
        while b - a > ROOT_WIDTH:
            mid = 0.5 * (a + b)
            fm = poly(mid)
            if fm == 0.0:
                a = b = mid
                break
            if np.sign(fm) == np.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        r = 0.5 * (a + b)
        if 1e-12 < r < 1.0 - 1e-12:
            roots.append(r)
    return roots


def full_depth_panels(a: float, b: float, base: int, refine_ends: bool):
    edges = set(np.linspace(a, b, base + 1))
    if not refine_ends or b - a < 1e-12:
        return sorted(edges)
    w = (b - a) / base
    while w > (b - a) * 1e-13:
        w *= 0.25
        edges.add(a + w)
        edges.add(b - w)
    return sorted(edges)


def graded_action(poly: BernsteinPolynomial, q: float) -> float:
    deriv = poly.derivative()
    if deriv.degree == 0:
        return abs(deriv.coeffs[0]) ** q
    splits = [0.0] + bisection_roots(deriv) + [1.0]
    refine = not float(q).is_integer()
    base = int(np.clip((deriv.degree + 1) // 128, 8, 64))
    prev = None
    for factor in (1, 2, 4, 8, 16, 32, 64, 128):
        total = 0.0
        for a, b in zip(splits, splits[1:]):
            if b - a <= 1e-14:
                continue
            n_base = max(4 * factor, int(math.ceil(base * factor * (b - a))))
            edges = full_depth_panels(a, b, n_base, refine)
            total += panel_integral(deriv, q, edges, 20)
        if prev is not None and abs(total - prev) <= 0.5 * QUADRATURE_TOL:
            return total
        prev = total
    raise RuntimeError(f"the graded q = {q} action of degree {poly.degree} did not converge")


def level_rule(panels: int, zeros: dict):
    """One level's mask of replaced uniform panels, and the nodes and weights
    of the Jacobi panels that replace them, padded to whole tiles: the
    rule of ``bernstein._fresh_panels`` laid over every edge of the level."""
    order, tile = bernstein._PANEL_ORDER, bernstein._TILE
    fresh = np.zeros(panels, dtype=bool)
    if not zeros:
        return fresh, np.empty(0), np.empty(0)
    s, exps = zip(*sorted(zeros.items()))
    at = np.multiply(s, panels)
    k = np.rint(at)
    gone = k[(np.abs(k - at) < 1.0 / 3.0) & (k > 0) & (k < panels)].astype(np.intp)
    fresh[np.minimum(at.astype(np.intp), panels - 1)] = True
    fresh[gone - 1] = fresh[gone] = True
    kept = np.ones(panels + 1, dtype=bool)
    kept[gone] = False
    kept[0], kept[-1] = s[0] > 0.0, s[-1] < 1.0
    edges = np.concatenate((np.linspace(0.0, 1.0, panels + 1)[kept], s))
    by_x = edges.argsort(kind="stable")
    edges, alpha = edges[by_x], np.concatenate((np.zeros(len(edges) - len(s)), exps))[by_x]
    ends = np.flatnonzero(alpha[:-1] + alpha[1:])
    lo, hi = edges[ends, None], edges[ends + 1, None]
    rules = [bernstein._jacobi_rule(a, b) for a, b in zip(alpha[ends + 1].tolist(), alpha[ends].tolist())]
    xs = np.empty((len(ends), order + (-order % tile)))
    ws = np.zeros(xs.shape)
    xs[:, order:] = hi
    xs[:, :order] = lo + (hi - lo) * np.array([x for x, _ in rules])
    ws[:, :order] = (hi - lo) * np.array([w for _, w in rules])
    return fresh, xs.ravel(), ws.ravel()
