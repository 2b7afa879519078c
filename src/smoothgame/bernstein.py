"""Bernstein-basis polynomials on [0, 1]: stable evaluation and calculus.

Coefficients live in the Bernstein basis, which keeps evaluation a convex
combination of coefficients (no cancellation blow-up at degrees in the
thousands) and makes differentiation and antidifferentiation exact one-line
recurrences. At degree n only the O(sqrt(n)) basis terms near n x carry
weight at x, so every evaluation sums just those: ``_basis_window`` is the
one home of the log-space basis formula, and the terms its windows leave
out weigh less than ``WINDOW_MASS`` at any x. ``de_casteljau_many`` is the
independent oracle for it. The action functional ``integral of |P'|^q``
is computed by splitting the domain at the derivative's real roots so
every piece is smooth, then applying composite Gauss panels graded toward
the piece ends only as deep as a bound on the end panels requires. The
roots are sign changes of P' on one fixed action grid (``gauss_grid``)
plus the exact end values of P', all multisected together to
``ROOT_WIDTH`` with one vector evaluation per step; the degree ladder in
``polyapprox`` estimates actions on the same grid.

A polynomial's coefficients are a read-only copy, and it keeps every
action certified for it, so each (polynomial, q) is integrated once. The
basis window of a composite Gauss rule on [0, 1] is cached once per
(degree, rule) by ``_rule_basis``: the action grid, and the panel rules
of a derivative with no root at integer q, which is one ungraded piece.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import gammaln

from .schema import Real

DEGREE_CAP = 2 ** 14
_CHUNK_ENTRIES = 1 << 23


class DegreeCapError(RuntimeError):
    """The requested accuracy needs a polynomial degree above the cap."""


WINDOW_MASS = 1e-18  # basis mass a window may drop at any x
_TILE = 8  # consecutive x's that share one basis window


@lru_cache(maxsize=32)
def _log_binom(n: int) -> np.ndarray:
    k = np.arange(n + 1)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _half_width(n: int) -> int:
    """Window half-width h at degree n: the terms beyond it weigh < ``WINDOW_MASS``.

    A term outside [round(n x) - h, round(n x) + h] has |k - n x| >= h + 1/2
    > sqrt(n ln(2 / WINDOW_MASS) / 2), and Hoeffding's bound puts the
    binomial mass beyond that below ``WINDOW_MASS``.
    """
    return math.ceil(math.sqrt(0.5 * n * math.log(2.0 / WINDOW_MASS))) + 1


def _windows(n: int, centre: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Window starts, common width and tile size for x's centred at ``centre``.

    Consecutive x's are taken ``_TILE`` at a time, and each tile gets the
    window spanning the terms within ``_half_width(n)`` of every centre in
    it, clipped inside [0, n]; all tiles share the widest width. A window
    wider than half the row gives way to the whole row, as one tile of
    every x: the dense product is then the cheaper one.
    """
    h = _half_width(n)
    whole = np.zeros(1, dtype=np.intp), n + 1, len(centre)
    if 2 * (2 * h + 1) > n + 1:
        return whole
    tile = max(1, min(_TILE, len(centre)))
    tiles = np.concatenate((centre, centre[-1:].repeat(-len(centre) % tile))).reshape(-1, tile)
    lo = tiles.min(axis=1) - h
    width = int((tiles.max(axis=1) + h - lo).max(initial=0)) + 1
    if 2 * width > n + 1:
        return whole
    return np.minimum(np.maximum(lo, 0), n + 1 - width), width, tile


def _basis_window(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The live degree-n basis terms at each x, computed in log space.

    Returns ``starts`` and ``block`` with block[p, i, j] =
    b_{n, starts[p] + j}(x_{p * tile + i}) for the windows of ``_windows``
    (the last x repeated to fill the last tile). Sorted x's keep the
    windows narrow.

    Exact at the endpoints (x <= 0 is the k = 0 term, x >= 1 the k = n
    term); elsewhere exp(log C(n,k) + k log x + (n-k) log(1-x)), which
    stays accurate at any degree because every term is a probability
    weight in [0, 1].
    """
    xs = np.asarray(xs, dtype=float)
    interior = (xs > 0.0) & (xs < 1.0)
    centre = np.rint(n * np.where(interior, xs, xs > 0.0)).astype(np.intp)
    starts, width, tile = _windows(n, centre)
    pad = len(starts) * tile - len(xs)
    if pad:
        xs, interior, centre = (np.concatenate((v, v[-1:].repeat(pad)))
                                for v in (xs, interior, centre))
    ks = (starts[:, None] + np.arange(width))[:, None, :]
    safe = np.where(interior, xs, 0.5).reshape(len(starts), tile, 1)
    block = ks * np.log(safe)
    block += _log_binom(n)[ks]
    block += (n - ks) * np.log1p(-safe)
    np.exp(block, out=block)
    edge = np.nonzero(~interior.reshape(len(starts), tile))
    if edge[0].size:
        block[edge] = 0.0
        block[edge + (centre.reshape(len(starts), tile)[edge] - starts[edge[0]],)] = 1.0
    return starts, block


def _window_dot(starts: np.ndarray, block: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j block[p, i, j] * coeffs[starts[p] + j], one value per row (p, i)."""
    w = block.shape[2]
    if w == len(coeffs):
        return block[0] @ coeffs
    windows = as_strided(coeffs, (len(coeffs) - w + 1, w), coeffs.strides * 2, writeable=False)
    return np.matmul(block, windows[starts][:, :, None]).ravel()


def bernstein_basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """Rows of all n+1 Bernstein basis values at each x: the windows, scattered."""
    starts, block = _basis_window(n, xs)
    tiles, tile, w = block.shape
    if w == n + 1:
        return block[0]
    out = np.zeros((tiles, tile, n + 1))
    cols = (starts[:, None] + np.arange(w))[:, None, :]
    out[np.arange(tiles)[:, None, None], np.arange(tile)[None, :, None], cols] = block
    return out.reshape(-1, n + 1)[: len(xs)]


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
    """A polynomial stored by its Bernstein coefficients on [0, 1].

    The coefficients are a read-only copy of the ones given, so the
    polynomial never changes, and it keeps every action ``q_action_poly``
    certified for it (q to action) to hand back on the next call.
    """

    __slots__ = ("_coeffs", "_actions")

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        self._coeffs = c
        self._actions: dict[float, float] = {}

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __call__(self, x):
        """Values at x in [0, 1] (NaN is rejected), each from its basis window.

        Each x is summed over the basis terms within ``_half_width(n)`` of
        n x (see ``_windows``; the whole row below degree ~350), so the
        terms left out weigh less than ``WINDOW_MASS`` times max |c_k|.
        """
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if not ((xs >= 0.0) & (xs <= 1.0)).all():
            raise ValueError("evaluation outside [0, 1]")
        n = self.degree
        out = np.empty(len(xs))
        step = max(1, _CHUNK_ENTRIES // (n + 1))
        for lo in range(0, len(xs), step):
            block = xs[lo : lo + step]
            out[lo : lo + step] = _window_dot(*_basis_window(n, block), self.coeffs)[: len(block)]
        return float(out[0]) if scalar else out

    def derivative(self) -> "BernsteinPolynomial":
        n = self.degree
        if n == 0:
            return BernsteinPolynomial([0.0])
        return BernsteinPolynomial(n * np.diff(self.coeffs))

    def elevated(self, target_degree: int) -> "BernsteinPolynomial":
        """Exact degree elevation; it stays only because bench/layertrace.py patches it."""
        n = self.degree
        r = target_degree - n
        if r < 0:
            raise ValueError("cannot lower the degree by elevation")
        if r == 0:
            return BernsteinPolynomial(self.coeffs)
        # hypergeometric mixing weights, all in [0, 1]
        w = _elevation_weights(n, target_degree)
        return BernsteinPolynomial(w @ self.coeffs)

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

    def __repr__(self) -> str:
        return f"BernsteinPolynomial(degree={self.degree})"


# ---------------------------------------------------------------------------
# roots of the derivative and the action integral

ROOT_WIDTH = 1e-12  # bracket width at which a root of P' is located
QUADRATURE_TOL = 1e-9  # absolute agreement that ends q_action_poly's refinement
_SECTIONS = 16  # subintervals per multisection step of a root bracket
_PANEL_ORDER = 20  # Gauss points per panel of the action quadrature
_GRID = (192, 8)  # the action grid: panels of [0, 1], Gauss points per panel
_RULE_ENTRIES = 1 << 21  # dense basis entries a cached [0, 1] panel rule may span
_CASTELJAU_TILE = 1024  # points per de Casteljau tile: the fastest of 256-4096 at degrees 32 and 127


def polynomial_roots(poly: BernsteinPolynomial) -> list[float]:
    """Real roots in (0, 1), as split points for piecewise-smooth integration.

    Sign changes are searched on the action grid (``gauss_grid``), whose
    nodes come no closer than ~1e-4 to either end, with the exact end
    values P(0) = c_0 and P(1) = c_n added. A sign change whose
    neighbourhood magnitude is below 1e-7 of the polynomial's scale is
    dropped: such a graze contributes less than scale^q * 1e-10 to any
    |P|^q integral, while a polynomial that is morally zero on a stretch
    would otherwise shower split points there.

    The brackets are refined together by ``_SECTIONS``-way multisection,
    one vector evaluation per step: each bracket still wider than
    ``ROOT_WIDTH`` keeps its first subinterval whose right end's sign
    differs from the bracket's left end, and its midpoint is returned.
    """
    xs = np.concatenate(([0.0], gauss_grid()[0], [1.0]))
    vals = np.concatenate(([poly.coeffs[0]], grid_values(poly), [poly.coeffs[-1]]))
    floor = 1e-7 * float(np.max(np.abs(vals)))
    sign = np.sign(vals)
    idx = np.array([i for i in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
                    if np.max(np.abs(vals[max(0, i - 1) : i + 3])) >= floor], dtype=np.intp)
    lo, hi, lo_sign = xs[idx], xs[idx + 1], sign[idx]
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    # the interior points, the last one twice, so that each bracket fills
    # whole ``_TILE``s and its basis windows stay narrow
    cols = np.r_[1:_SECTIONS, _SECTIONS - 1]
    live = np.nonzero(hi - lo > ROOT_WIDTH)[0]
    while live.size:
        a, b = lo[live], hi[live]
        ends = np.column_stack((a, a[:, None] + (b - a)[:, None] * frac, b))
        signs = np.sign(poly(ends[:, cols].ravel())).reshape(len(live), -1)
        changed = signs[:, :-1] != lo_sign[live, None]
        # the first subinterval whose right end differs in sign, else the last
        j = np.where(changed.any(axis=1), changed.argmax(axis=1), _SECTIONS - 1)
        rows = np.arange(len(live))
        lo[live], hi[live] = ends[rows, j], ends[rows, j + 1]
        live = live[hi[live] - lo[live] > ROOT_WIDTH]
    roots = 0.5 * (lo + hi)
    return [float(r) for r in roots if 1e-12 < r < 1.0 - 1e-12]


def grid_values(poly: BernsteinPolynomial) -> np.ndarray:
    """Values of ``poly`` at the nodes of the action grid, from its cached basis."""
    starts, block, _ws = _rule_basis(poly.degree, *_GRID)
    return _window_dot(starts, block, poly.coeffs)


@lru_cache(maxsize=16)
def _rule_basis(n: int, panels: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degree-n basis window and the weights of a composite rule on [0, 1].

    The rule is the ``order``-point Gauss rule on ``panels`` equal panels;
    the window over all its nodes is the one ``BernsteinPolynomial.__call__``
    builds when it takes them in one chunk, so the values it gives are
    bit for bit those of ``poly(nodes)``. One bounded cache (least recently
    used out) serves the action grid ``_GRID`` at every degree, under 2M
    entries at ``DEGREE_CAP``, and the integer-q rules of
    ``_unit_integral`` whose nodes times n + 1 stay within ``_RULE_ENTRIES``.
    """
    xs, ws = _panel_rule(np.linspace(0.0, 1.0, panels + 1), order)
    starts, block = _basis_window(n, xs)
    return starts, block, ws


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


@lru_cache(maxsize=1)
def gauss_grid() -> tuple[np.ndarray, np.ndarray]:
    """The action grid: the composite 8-point Gauss rule on 192 equal panels.

    Nodes and weights on [0, 1]. The degree ladder's action estimate and
    the root search both evaluate on it, so they share one basis per degree.
    """
    return _panel_rule(np.linspace(0.0, 1.0, _GRID[0] + 1), _GRID[1])


def _piece_panels(a: float, b: float, base: int, grade=None):
    """Panel edges over [a, b]: uniform core, geometric shrink at the ends.

    End grading resolves the |x - root|^q behaviour of fractional-power
    integrands whose roots sit at the piece boundaries. ``grade`` is None
    (no grading) or ``(g_a, g_b, m, q, budget)``: |P'| is at most g_a at a
    and g_b at b, and |P''| is at most m, so the end panel of width w holds
    at most w (g + m w)^q of the integral, and its Gauss estimate lies
    between 0 and that bound too. Each end shrinks its panel 4x at a time
    until the bound is within ``budget`` or the panel is 1e-13 of b - a.
    """
    edges = set(np.linspace(a, b, base + 1))
    if grade is None or b - a < 1e-12:
        return sorted(edges)
    g_a, g_b, m, q, budget = grade
    for end, side, g in ((a, 1.0, g_a), (b, -1.0, g_b)):
        w = (b - a) / base
        while w > (b - a) * 1e-13 and w * (g + m * w) ** q > budget:
            w *= 0.25
            edges.add(end + side * w)
    return sorted(edges)


def _panel_integral(deriv: BernsteinPolynomial, q: float, edges, order: int) -> float:
    xs, ws = _panel_rule(edges, order)
    vals = np.abs(deriv(xs)) ** q
    return float(np.dot(ws, vals))


def _unit_integral(deriv: BernsteinPolynomial, q: float, panels: int) -> float:
    """``_panel_integral`` over ``panels`` equal panels of [0, 1], bit for bit.

    The basis comes from ``_rule_basis`` while ``__call__`` would take the
    rule's nodes in one chunk of at most ``_RULE_ENTRIES`` dense entries;
    beyond that the nodes are evaluated afresh.
    """
    n = deriv.degree
    if panels * _PANEL_ORDER * (n + 1) > _RULE_ENTRIES:
        return _panel_integral(deriv, q, _piece_panels(0.0, 1.0, panels), _PANEL_ORDER)
    starts, block, ws = _rule_basis(n, panels, _PANEL_ORDER)
    vals = np.abs(_window_dot(starts, block, deriv.coeffs)[: len(ws)]) ** q
    return float(np.dot(ws, vals))


# a polynomial's action exponent: |P'|^inf integrates to 0 wherever |P'| < 1
FINITE_Q = Real(1)


def q_action_poly(poly: BernsteinPolynomial, q: float) -> float:
    """Action integral of |P'|^q over [0, 1] to absolute tolerance ``QUADRATURE_TOL``.

    Certified once per polynomial and q: the result is kept on ``poly`` and
    handed back on every later call.

    The domain is split at the derivative's roots so |P'| is smooth on each
    piece. At fractional q the panels are graded geometrically toward every
    piece end, where the integrand may have a fractional-power zero, until
    the end panels' bounds (``_piece_panels``) sum to at most
    ``QUADRATURE_TOL`` / 10: |P'| is |c_0| at 0 and |c_n| at 1 (c the
    coefficients of P'), at most m * ``ROOT_WIDTH`` at a root, and
    m = deg P' * max |c_{k+1} - c_k| bounds |P''|. A derivative with no
    root at integer q is one ungraded piece, integrated by
    ``_unit_integral``. Convergence is certified by doubling the panel
    count; on failure the dense composite rule takes over.
    """
    FINITE_Q.check("q", q)
    action = poly._actions.get(q)
    if action is None:
        action = poly._actions[q] = _certify_action(poly, q)
    return action


def _certify_action(poly: BernsteinPolynomial, q: float) -> float:
    """The quadrature of ``q_action_poly``, run afresh."""
    deriv = poly.derivative()
    if deriv.degree == 0:
        return abs(deriv.coeffs[0]) ** q
    roots = polynomial_roots(deriv)
    splits = [0.0] + roots + [1.0]
    graded = not float(q).is_integer()
    if graded:
        c = deriv.coeffs
        m = deriv.degree * float(np.max(np.abs(np.diff(c))))
        slopes = [abs(float(c[0]))] + [m * ROOT_WIDTH] * len(roots) + [abs(float(c[-1]))]
        budget = 0.1 * QUADRATURE_TOL / (2 * (len(splits) - 1))  # shared by every piece end
    base = int(np.clip((deriv.degree + 1) // 128, 8, 64))
    unit = not (graded or roots)
    prev = None
    for factor in (1, 2, 4, 8):
        total = 0.0
        for i, (a, b) in enumerate(zip(splits, splits[1:])):
            if b - a <= 1e-14:
                continue
            n_base = max(4 * factor, int(math.ceil(base * factor * (b - a))))
            if unit:
                total += _unit_integral(deriv, q, n_base)
            else:
                grade = (slopes[i], slopes[i + 1], m, q, budget) if graded else None
                edges = _piece_panels(a, b, n_base, grade)
                total += _panel_integral(deriv, q, edges, _PANEL_ORDER)
        if prev is not None and abs(total - prev) <= 0.5 * QUADRATURE_TOL:
            return total
        prev = total
    return composite_rule_action(poly, q)


def de_casteljau_many(poly: BernsteinPolynomial, xs: np.ndarray) -> np.ndarray:
    """Convex-combination evaluation vectorized over points; O(n^2) work.

    Slow but independent of the windowed log-space basis evaluation (it
    uses neither the window nor the basis formula), which makes it the
    evaluator of choice for oracle cross-checks. Points go through in tiles
    of ``_CASTELJAU_TILE``, and each level b_k <- (1 - t) b_k + t b_{k+1}
    is formed in place in two preallocated arrays, in that operation order.
    """
    n = poly.degree
    out = np.empty(len(xs))
    b = np.empty((n + 1, min(_CASTELJAU_TILE, len(xs))))
    tb = np.empty((n, b.shape[1]))
    for lo in range(0, len(xs), _CASTELJAU_TILE):
        t = xs[lo : lo + _CASTELJAU_TILE]
        width = len(t)
        s = 1.0 - t
        level = b[:, :width]
        level[...] = poly.coeffs[:, None]
        for m in range(n, 0, -1):
            # t b_{k+1} first: scaling b_k in place overwrites b_{k+1}'s row
            np.multiply(t, level[1 : m + 1], out=tb[:m, :width])
            np.multiply(s, level[:m], out=level[:m])
            np.add(level[:m], tb[:m, :width], out=level[:m])
        out[lo : lo + width] = level[0]
    return out


def composite_rule_action(
    poly: BernsteinPolynomial, q: float, n_points: int = 10 ** 6
) -> float:
    """Plain midpoint-rule action integral; the slow quadrature oracle.

    Independent of the root search, the adaptive splitting and the panel
    rule at every degree. Up to degree 512 it evaluates P' with the
    convex-combination evaluator, so it is also independent of the windowed
    basis evaluation there; above that the quadratic cost is prohibitive
    and ``deriv(xs)`` takes over, so it shares the window with
    ``q_action_poly``.
    """
    deriv = poly.derivative()
    xs = (np.arange(n_points) + 0.5) / n_points
    if deriv.degree <= 512:
        vals = de_casteljau_many(deriv, xs)
    else:
        vals = deriv(xs)
    return float(np.mean(np.abs(vals) ** q))
