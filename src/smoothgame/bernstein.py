"""Bernstein-basis polynomials on [0, 1]: stable evaluation and calculus.

Coefficients live in the Bernstein basis, which keeps evaluation a convex
combination of coefficients (no cancellation blow-up at degrees in the
thousands), makes differentiation and antidifferentiation exact one-line
recurrences, and supports root isolation by coefficient sign variation.
The action functional ``integral of |P'|^q`` is computed by splitting the
domain at the derivative's real roots so every piece is smooth, then
applying composite Gauss panels with endpoint refinement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

DEGREE_CAP = 2 ** 14
_CHUNK_ENTRIES = 1 << 23


class DegreeCapError(RuntimeError):
    """The requested accuracy needs a polynomial degree above the cap."""


def bernstein_basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """Rows of all n+1 Bernstein basis values at each x, computed in log space.

    Exact at the endpoints; elsewhere exp(log C(n,k) + k log x + (n-k)
    log(1-x)), which stays accurate at any degree because every term is a
    probability weight in [0, 1].
    """
    xs = np.asarray(xs, dtype=float)
    k = np.arange(n + 1)
    out = np.empty((len(xs), n + 1))
    log_binom = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    interior = (xs > 0.0) & (xs < 1.0)
    xi = xs[interior]
    if xi.size:
        logs = (
            log_binom[None, :]
            + k[None, :] * np.log(xi)[:, None]
            + (n - k)[None, :] * np.log1p(-xi)[:, None]
        )
        out[interior] = np.exp(logs)
    for idx in np.nonzero(~interior)[0]:
        row = np.zeros(n + 1)
        row[0 if xs[idx] <= 0.0 else n] = 1.0
        out[idx] = row
    return out


def _elevation_weights(n: int, target: int) -> np.ndarray:
    """Hypergeometric elevation weights, row k mapping old coeffs to new."""
    r = target - n
    k = np.arange(target + 1)[:, None]
    j = np.arange(n + 1)[None, :]
    valid = (k - j >= 0) & (r - k + j >= 0)
    kj = np.where(valid, k - j, 0)
    logs = (
        gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
        + gammaln(r + 1) - gammaln(kj + 1) - gammaln(r - kj + 1)
        - (gammaln(target + 1) - gammaln(k + 1) - gammaln(target - k + 1))
    )
    return np.where(valid, np.exp(logs), 0.0)


class BernsteinPolynomial:
    """A polynomial stored by its Bernstein coefficients on [0, 1]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any((xs < 0.0) | (xs > 1.0)):
            raise ValueError("evaluation outside [0, 1]")
        n = self.degree
        out = np.empty(len(xs))
        step = max(1, _CHUNK_ENTRIES // (n + 1))
        for lo in range(0, len(xs), step):
            block = xs[lo : lo + step]
            out[lo : lo + step] = bernstein_basis_matrix(n, block) @ self.coeffs
        return float(out[0]) if scalar else out

    def derivative(self) -> "BernsteinPolynomial":
        n = self.degree
        if n == 0:
            return BernsteinPolynomial([0.0])
        return BernsteinPolynomial(n * np.diff(self.coeffs))

    def antiderivative(self, constant: float = 0.0) -> "BernsteinPolynomial":
        n = self.degree
        c = np.concatenate(([0.0], np.cumsum(self.coeffs))) / (n + 1)
        return BernsteinPolynomial(c + constant)

    def elevated(self, target_degree: int) -> "BernsteinPolynomial":
        """Same polynomial written at a higher degree (exact)."""
        n = self.degree
        r = target_degree - n
        if r < 0:
            raise ValueError("cannot lower the degree by elevation")
        if r == 0:
            return BernsteinPolynomial(self.coeffs.copy())
        # hypergeometric mixing weights, all in [0, 1]
        w = _elevation_weights(n, target_degree)
        return BernsteinPolynomial(w @ self.coeffs)

    def subdivide(self, t: float) -> tuple["BernsteinPolynomial", "BernsteinPolynomial"]:
        """Split at t into polynomials over [0, t] and [t, 1], reparametrized."""
        b = self.coeffs.copy()
        n = self.degree
        left = np.empty(n + 1)
        right = np.empty(n + 1)
        left[0] = b[0]
        right[n] = b[n]
        for r in range(1, n + 1):
            b = (1.0 - t) * b[:-1] + t * b[1:]
            left[r] = b[0]
            right[n - r] = b[-1]
        return BernsteinPolynomial(left), BernsteinPolynomial(right)

    def to_power_exact(self) -> list[Fraction]:
        """Monomial coefficients (ascending) as exact fractions.

        The basis change is exponentially ill-conditioned (condition number
        around 3^n), so rounding the result to float destroys the round
        trip beyond degree 18 or so no matter the algorithm. Exact
        rationals keep the conversion a faithful bijection at any degree.
        """
        n = self.degree
        cs = [Fraction(float(c)) for c in self.coeffs]
        a = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            if cs[k] == 0:
                continue
            base = cs[k] * math.comb(n, k)
            for j in range(k, n + 1):
                term = base * math.comb(n - k, j - k)
                a[j] += term if (j - k) % 2 == 0 else -term
        return a

    def to_power_coeffs(self) -> np.ndarray:
        """Monomial coefficients rounded to float; see ``to_power_exact``."""
        return np.array([float(v) for v in self.to_power_exact()])

    @classmethod
    def from_power_coeffs(cls, a) -> "BernsteinPolynomial":
        az = [v if isinstance(v, Fraction) else Fraction(float(v)) for v in a]
        n = len(az) - 1
        c = []
        for k in range(n + 1):
            total = Fraction(0)
            for j in range(k + 1):
                total += az[j] * Fraction(math.comb(k, j), math.comb(n, j))
            c.append(float(total))
        return cls(c)

    def __repr__(self) -> str:
        return f"BernsteinPolynomial(degree={self.degree})"


def constant_polynomial(v: float) -> BernsteinPolynomial:
    return BernsteinPolynomial([v])


# ---------------------------------------------------------------------------
# roots of the derivative and the action integral

_SUBDIVISION_MAX_DEGREE = 128
ROOT_WIDTH = 1e-12  # bracket width at which a root of P' is located
QUADRATURE_TOL = 1e-9  # absolute agreement that ends q_action_poly's refinement


def _sign_variations(c: np.ndarray) -> int:
    signs = np.sign(c[np.abs(c) > 0.0])
    return int(np.count_nonzero(np.diff(signs) != 0)) if signs.size else 0


def polynomial_roots(poly: BernsteinPolynomial) -> list[float]:
    """Real roots in (0, 1), as split points for piecewise-smooth integration.

    Low degrees use Bernstein coefficient sign-variation subdivision down to
    ``ROOT_WIDTH``; higher degrees locate sign changes on a dense grid and refine
    by bisection. Grid mode drops sign changes whose neighbourhood magnitude
    is below 1e-7 of the polynomial's scale: such grazes contribute less
    than scale^q * 1e-10 to any |P|^q integral, while a polynomial that is
    morally zero on a stretch would otherwise shower split points there.
    """
    if poly.degree <= _SUBDIVISION_MAX_DEGREE:
        roots: list[float] = []
        _subdivision_roots(poly, 0.0, 1.0, roots, 0)
    else:
        roots = _grid_roots(poly)
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if 1e-12 < r < 1.0 - 1e-12 and (not merged or r - merged[-1] > 1e-10):
            merged.append(r)
    return merged


def _subdivision_roots(poly, lo, hi, out, depth):
    v = _sign_variations(poly.coeffs)
    if v == 0:
        return
    if hi - lo <= ROOT_WIDTH or depth > 60:
        out.append(0.5 * (lo + hi))
        return
    if v == 1:
        f_lo, f_hi = poly.coeffs[0], poly.coeffs[-1]
        if f_lo != 0.0 and f_hi != 0.0 and np.sign(f_lo) != np.sign(f_hi):
            out.append(_bisect_in(poly, lo, hi))
            return
    left, right = poly.subdivide(0.5)
    mid = 0.5 * (lo + hi)
    _subdivision_roots(left, lo, mid, out, depth + 1)
    _subdivision_roots(right, mid, hi, out, depth + 1)


def _bisect_in(poly, lo, hi):
    # poly is parametrized over [lo, hi]; bisect in local coordinates
    a, b = 0.0, 1.0
    fa = poly.coeffs[0]
    while (b - a) * (hi - lo) > ROOT_WIDTH:
        mid = 0.5 * (a + b)
        fm = poly(mid)
        if fm == 0.0:
            a = b = mid
            break
        if np.sign(fm) == np.sign(fa):
            a = mid
        else:
            b = mid
    t = 0.5 * (a + b)
    return lo + t * (hi - lo)


def _grid_roots(poly):
    n_grid = int(min(2048, max(1024, 2 * poly.degree)))
    xs = np.linspace(0.0, 1.0, n_grid + 1)
    vals = grid_values(poly, xs)
    scale = float(np.max(np.abs(vals)))
    floor = 1e-7 * scale
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero((sign[:-1] * sign[1:] < 0.0))[0]:
        lo, hi = max(0, i - 1), min(len(vals) - 1, i + 2)
        if np.max(np.abs(vals[lo : hi + 1])) < floor:
            continue
        a, b = xs[i], xs[i + 1]
        fa = vals[i]
        while b - a > ROOT_WIDTH:
            mid = 0.5 * (a + b)
            fm = poly(np.array([mid]))[0]
            if fm == 0.0:
                a = b = mid
                break
            if np.sign(fm) == np.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots


_CACHED_BASIS_MAX_ENTRIES = 20_000_000


def grid_values(poly: BernsteinPolynomial, xs: np.ndarray) -> np.ndarray:
    """Values of ``poly`` at the nodes of a fixed grid, reusing the basis.

    The degree-n basis on a grid is kept in one bounded cache keyed by the
    degree and the grid nodes (least recently used out). A basis above 20M
    entries is never cached; ``poly`` is then evaluated directly.
    """
    if (poly.degree + 1) * len(xs) > _CACHED_BASIS_MAX_ENTRIES:
        return poly(xs)
    return _grid_basis(poly.degree, xs.tobytes()) @ poly.coeffs


@lru_cache(maxsize=8)
def _grid_basis(n: int, nodes: bytes) -> np.ndarray:
    return bernstein_basis_matrix(n, np.frombuffer(nodes))


@lru_cache(maxsize=8)
def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_rule(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss rule on every panel."""
    gx, gw = _gauss_rule(order)
    e = np.asarray(edges)
    widths = np.diff(e)
    xs = (e[:-1][:, None] + widths[:, None] * gx[None, :]).ravel()
    ws = (widths[:, None] * gw[None, :]).ravel()
    return xs, ws


@lru_cache(maxsize=4)
def gauss_grid(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite ``order``-point Gauss rule on ``panels`` equal panels of [0, 1]."""
    return _panel_rule(np.linspace(0.0, 1.0, panels + 1), order)


def _piece_panels(a: float, b: float, base: int, refine_ends: bool):
    """Panel edges over [a, b]: uniform core, geometric shrink at the ends.

    End refinement resolves the |x - root|^q behaviour of fractional-power
    integrands whose roots sit exactly at the piece boundaries.
    """
    edges = set(np.linspace(a, b, base + 1))
    if not refine_ends or b - a < 1e-12:
        return sorted(edges)
    w = (b - a) / base
    while w > (b - a) * 1e-13:
        w *= 0.25
        edges.add(a + w)
        edges.add(b - w)
    return sorted(edges)


def _panel_integral(deriv: BernsteinPolynomial, q: float, edges, order: int) -> float:
    xs, ws = _panel_rule(edges, order)
    vals = np.abs(deriv(xs)) ** q
    return float(np.dot(ws, vals))


def q_action_poly(poly: BernsteinPolynomial, q: float) -> float:
    """Action integral of |P'|^q over [0, 1] to absolute tolerance ``QUADRATURE_TOL``.

    The domain is split at the derivative's roots so |P'| is smooth on each
    piece; panels are refined geometrically toward the roots where the
    integrand has a fractional-power zero. Convergence is certified by
    doubling the panel count; on failure the dense composite rule takes
    over.
    """
    if q < 1.0:
        raise ValueError("q must be >= 1")
    deriv = poly.derivative()
    if deriv.degree == 0:
        return abs(deriv.coeffs[0]) ** q
    splits = [0.0] + polynomial_roots(deriv) + [1.0]
    refine = not float(q).is_integer()
    base = int(np.clip((deriv.degree + 1) // 128, 8, 64))
    prev = None
    for factor in (1, 2, 4, 8):
        total = 0.0
        for a, b in zip(splits, splits[1:]):
            if b - a <= 1e-14:
                continue
            n_base = max(4 * factor, int(math.ceil(base * factor * (b - a))))
            edges = _piece_panels(a, b, n_base, refine)
            total += _panel_integral(deriv, q, edges, 20)
        if prev is not None and abs(total - prev) <= 0.5 * QUADRATURE_TOL:
            return total
        prev = total
    return composite_rule_action(poly, q)


def de_casteljau_many(poly: BernsteinPolynomial, xs: np.ndarray) -> np.ndarray:
    """Convex-combination evaluation vectorized over points; O(n^2) work.

    Slow but independent of the log-space basis evaluation, which makes it
    the evaluator of choice for oracle cross-checks.
    """
    out = np.empty(len(xs))
    step = 4096
    for lo in range(0, len(xs), step):
        t = xs[lo : lo + step]
        b = np.broadcast_to(poly.coeffs[:, None], (len(poly.coeffs), len(t))).copy()
        for _ in range(poly.degree):
            b = (1.0 - t) * b[:-1] + t * b[1:]
        out[lo : lo + step] = b[0]
    return out


def composite_rule_action(
    poly: BernsteinPolynomial, q: float, n_points: int = 10 ** 6
) -> float:
    """Plain midpoint-rule action integral; the independent slow oracle.

    Uses the convex-combination evaluator for full independence from the
    log-space basis path up to degree 512; above that its quadratic cost is
    prohibitive and the stable evaluator takes over (the rule itself stays
    independent of the adaptive splitting).
    """
    deriv = poly.derivative()
    xs = (np.arange(n_points) + 0.5) / n_points
    if deriv.degree <= 512:
        vals = de_casteljau_many(deriv, xs)
    else:
        vals = deriv(xs)
    return float(np.mean(np.abs(vals) ** q))
