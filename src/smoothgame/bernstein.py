"""Bernstein-basis polynomials on [0, 1]: stable evaluation and calculus.

Coefficients live in the Bernstein basis, which keeps evaluation a convex
combination of coefficients (no cancellation blow-up at degrees in the
thousands) and makes differentiation and antidifferentiation exact one-line
recurrences. At degree n only the O(sqrt(n)) basis terms near n x carry
weight at x, so every evaluation sums just those; the terms a window
leaves out weigh less than ``WINDOW_MASS`` at any x. Where a window is
the whole row (always below degree ~350), ``_basis_window`` builds the
dense block without laying windows. ``_log_space_terms`` is the one home of the
log-space basis formula, and ``de_casteljau_many`` the independent oracle
for it. The action functional ``integral of |P'|^q``
is computed on equal Gauss panels over [0, 1], doubled until two levels
agree. |P'|^q is smooth except at the zeros of P' (a polynomial at even
q), so every zero is a panel edge, and a panel ending at a zero s takes
the Gauss-Jacobi rule for the weight |x - s|^alpha, which carries the
kink or singularity exactly.
The roots are sign changes of P' on one fixed action grid (``gauss_grid``)
plus the exact end values of P', all refined together to ``ROOT_WIDTH``
by false position with probes, one vector evaluation per step; the
degree ladder in ``polyapprox`` estimates actions on the same grid.

A polynomial's coefficients are a read-only copy, and it keeps what is
computed from them: every action certified for it, so each
(polynomial, q) is integrated once, its derivative, and its values on the
action grid, so the degree ladder's estimate and the certificate's root
search evaluate P' there once. The basis window of a composite Gauss rule
on [0, 1] is cached once per (degree, rule) by ``_rule_basis``, in a cache
bounded by the basis entries it holds: the action grid, a certificate's
opening pair of doubling levels as one window over both levels' nodes,
and each later level's uniform panels, each while its window holds at
most ``_LEVEL_RULE_ENTRIES`` of them (every level of degree 2049 and 64
panels or less, and the pair of 16 and 32 there). The opening pair is
integrated in one pass: one read of that window, one laying of both
levels' fresh panels and one evaluation of all their fresh nodes.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import lru_cache, update_wrapper

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
_WINDOW_CHUNK = 1 << 16  # basis entries a window's (n - k) log(1 - x) term forms at once


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


def _whole_row(n: int) -> bool:
    """Whether every degree-n window is the whole row: 2 h + 1 terms are more than half of it."""
    return 2 * (2 * _half_width(n) + 1) > n + 1


def _windows(n: int, centre: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Window starts, common width and tile size for x's centred at ``centre``.

    Consecutive x's are taken ``_TILE`` at a time, and each tile gets the
    window spanning the terms within ``_half_width(n)`` of every centre in
    it, clipped inside [0, n]; all tiles share the widest width. A window
    wider than half the row (every one, where ``_whole_row(n)``) gives way
    to the whole row, as one tile of every x: the dense product is cheaper.
    """
    h = _half_width(n)
    tile = max(1, min(_TILE, len(centre)))
    tiles = np.concatenate((centre, centre[-1:].repeat(-len(centre) % tile))).reshape(-1, tile)
    lo = tiles.min(axis=1) - h
    width = int((tiles.max(axis=1) + h - lo).max(initial=0)) + 1
    if 2 * width > n + 1:
        return np.zeros(1, dtype=np.intp), n + 1, len(centre)
    return np.minimum(np.maximum(lo, 0), n + 1 - width), width, tile


def _basis_window(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The live degree-n basis terms at each x, computed in log space.

    Returns ``starts`` and ``block`` with block[p, i, j] =
    b_{n, starts[p] + j}(x_{p * tile + i}) for the windows of ``_windows``
    (the last x repeated to fill the last tile). Sorted x's keep the
    windows narrow. Where the window is the whole row (always below degree
    ~350), the block is the dense (1, len(xs), n + 1) one, built without
    tiles, padding or a gather of log C(n, k); below degree ~350 without
    centres either.

    Exact at the endpoints (x <= 0 is the k = 0 term, x >= 1 the k = n
    term); elsewhere ``_log_space_terms``.
    """
    xs = np.asarray(xs, dtype=float)
    interior = (xs > 0.0) & (xs < 1.0)
    if not _whole_row(n):
        centre = np.rint(n * np.where(interior, xs, xs > 0.0)).astype(np.intp)
        starts, width, tile = _windows(n, centre)
        if width <= n:
            pad = len(starts) * tile - len(xs)
            if pad:
                xs, interior, centre = (np.concatenate((v, v[-1:].repeat(pad)))
                                        for v in (xs, interior, centre))
            ks = (starts[:, None] + np.arange(width))[:, None, :]
            safe = np.where(interior, xs, 0.5).reshape(len(starts), tile, 1)
            block = _log_space_terms(n, ks, _log_binom(n)[ks], safe)
            edge = np.nonzero(~interior.reshape(len(starts), tile))
            if edge[0].size:
                block[edge] = 0.0
                block[edge + (centre.reshape(len(starts), tile)[edge] - starts[edge[0]],)] = 1.0
            return starts, block
    ks = np.arange(n + 1)[None, None, :]
    block = _log_space_terms(n, ks, _log_binom(n), np.where(interior, xs, 0.5)[None, :, None])
    if not interior.all():
        edge = ~interior
        block[0, edge] = 0.0
        block[0, edge, np.where(xs[edge] > 0.0, n, 0)] = 1.0
    return np.zeros(1, dtype=np.intp), block


def _log_space_terms(n: int, ks: np.ndarray, log_binom: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """exp(log C(n,k) + k log x + (n-k) log(1-x)) for the k's ``ks`` (p, 1, w) at the x's ``safe`` (p, t, 1).

    ``log_binom`` holds log C(n, k) for ``ks``, and every x of ``safe`` is
    in (0, 1). Every term is a probability weight in [0, 1], so nothing
    overflows or cancels, but the exponent is a sum of terms of size ~n,
    each rounded at its ulp, so a value sums to within ~0.8 n eps max |c_k|
    of the exact one (measured against de Casteljau and a 60-digit sum:
    2.1e-13 max |c_k| at degree 2049); the window's differential test
    allows 4 n eps.
    """
    block = ks * np.log(safe)
    block += log_binom
    # a chunk of tiles at a time, or of one tile's x's when a tile alone is
    # larger (the whole row), so no second array the block's size is made
    log1m = np.log1p(-safe)
    width, tile = ks.shape[2], safe.shape[1]
    xs_step = max(1, _WINDOW_CHUNK // width)
    step = max(1, xs_step // max(tile, 1))  # tile is 0 for a dense row of no x's
    for lo in range(0, len(safe), step):
        for i in range(0, tile, xs_step):
            rows = block[lo : lo + step, i : i + xs_step]
            rows += (n - ks[lo : lo + step]) * log1m[lo : lo + step, i : i + xs_step]
    np.exp(block, out=block)
    return block


def _window_dot(starts: np.ndarray, block: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j block[p, i, j] * coeffs[starts[p] + j], one value per row (p, i)."""
    w = block.shape[2]
    if w == len(coeffs):
        return block[0] @ coeffs
    windows = as_strided(coeffs, (len(coeffs) - w + 1, w), coeffs.strides * 2, writeable=False)
    return np.matmul(block, windows[starts][:, :, None]).ravel()


def _unit_points(x) -> np.ndarray:
    """x as a 1-d float array; ValueError unless every point is in [0, 1] (NaN is not)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not ((xs >= 0.0) & (xs <= 1.0)).all():
        raise ValueError("evaluation outside [0, 1]")
    return xs


def bernstein_basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """Rows of all n+1 Bernstein basis values at each x in [0, 1]: the windows, scattered."""
    xs = _unit_points(xs)
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
    polynomial never changes, and it keeps what is computed from them to
    hand back on the next call: every action ``q_action_poly`` certified
    for it (q to action), its derivative and its ``grid_values``.
    """

    __slots__ = ("_coeffs", "_actions", "_derivative", "_grid")

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        self._coeffs = c
        self._actions: dict[float, float] = {}
        self._derivative: BernsteinPolynomial | None = None
        self._grid: np.ndarray | None = None

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
        Points are taken ``_CHUNK_ENTRIES`` basis entries at a time, one
        window and one dot product a chunk; every call but a very large
        one is a single chunk.
        """
        scalar = np.isscalar(x)
        xs = _unit_points(x)
        n = self.degree
        step = max(1, _CHUNK_ENTRIES // (n + 1))
        out = np.empty(len(xs))
        for lo in range(0, len(xs), step):
            block = xs[lo : lo + step]
            out[lo : lo + step] = _window_dot(*_basis_window(n, block), self.coeffs)[: len(block)]
        return float(out[0]) if scalar else out

    def derivative(self) -> "BernsteinPolynomial":
        """P', formed on the first call and kept: every later call returns that object."""
        if self._derivative is None:
            n = self.degree
            self._derivative = BernsteinPolynomial(n * np.diff(self.coeffs) if n else [0.0])
        return self._derivative

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
# offsets, in bracket widths, of the root probes around a false-position point
_PROBES = np.array([-2.0 ** -4, -2.0 ** -12, -2.0 ** -20, 0.0, 2.0 ** -20, 2.0 ** -12, 2.0 ** -4])
_PANEL_ORDER = 20  # Gauss points per panel of the action quadrature
_GRID = ((192,), 8)  # the action grid: panels of [0, 1] (one level), Gauss points per panel
_RULE_ENTRIES = 1 << 21  # basis entries one cached rule window may hold: the grid's at DEGREE_CAP is 1.94M
_CACHE_ENTRIES = 2 * _RULE_ENTRIES  # basis entries the cache of _rule_basis holds in all
_LEVEL_RULE_ENTRIES = 1 << 20  # basis entries a cached level rule may hold: 556,800 for 64 panels at degree 2049
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

    The brackets are refined together, one vector evaluation of one
    ``_TILE`` per bracket per step, until each is at most ``ROOT_WIDTH``
    wide; its midpoint is returned. A step probes the false-position point
    x of the bracket [a, b], the points x +- (b - a) ``_PROBES`` around it
    and the midpoint, and keeps the first gap between the sorted points
    whose right end's sign differs from the bracket's left end. False
    position is off by O((b - a)^2) at a simple root, so the probes
    around x usually catch the root in a gap thousands of times narrower
    than the bracket; the midpoint at least halves it when they do not.
    """
    xs = np.concatenate(([0.0], gauss_grid()[0], [1.0]))
    vals = np.concatenate(([poly.coeffs[0]], grid_values(poly), [poly.coeffs[-1]]))
    idx = _sign_changes(vals)
    lo, hi, lo_sign = xs[idx], xs[idx + 1], np.sign(vals[idx])
    f_lo, f_hi = vals[idx], vals[idx + 1]
    live = np.nonzero(hi - lo > ROOT_WIDTH)[0]
    while live.size:
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        x = a + (b - a) * (fa / (fa - fb))
        probes = np.column_stack((x[:, None] + (b - a)[:, None] * _PROBES, 0.5 * (a + b)))
        probes = np.sort(np.clip(probes, a[:, None], b[:, None]), axis=1)
        ends = np.column_stack((a, probes, b))
        fs = np.column_stack((fa, poly(probes.ravel()).reshape(probes.shape), fb))
        # the first gap whose right end differs in sign (b's always does)
        j = (np.sign(fs[:, 1:]) != lo_sign[live, None]).argmax(axis=1)
        rows = np.arange(len(live))
        lo[live], hi[live] = ends[rows, j], ends[rows, j + 1]
        f_lo[live], f_hi[live] = fs[rows, j], fs[rows, j + 1]
        live = live[hi[live] - lo[live] > ROOT_WIDTH]
    roots = 0.5 * (lo + hi)
    return [float(r) for r in roots if 1e-12 < r < 1.0 - 1e-12]


def _sign_changes(vals: np.ndarray) -> np.ndarray:
    """Each i where vals[i] and vals[i + 1] differ in sign, grazes left out.

    A graze is a change where no |vals| over i - 1 .. i + 2 reaches 1e-7
    of max |vals|.
    """
    mags = np.abs(vals)
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    near = np.concatenate(([0.0], mags, [0.0]))[idx[:, None] + np.arange(4)].max(axis=1, initial=0.0)
    return idx[near >= 1e-7 * float(np.max(mags))]


def grid_values(poly: BernsteinPolynomial) -> np.ndarray:
    """Values of ``poly`` at the nodes of the action grid, from its cached basis.

    Computed on the first call and kept on ``poly`` as a read-only array,
    which every later call returns: the degree ladder's action estimate and
    the certificate's root search read the same values.
    """
    if poly._grid is None:
        starts, block, _ws = _rule_basis(poly.degree, *_GRID)
        vals = _window_dot(starts, block, poly.coeffs)
        vals.flags.writeable = False
        poly._grid = vals
    return poly._grid


_CacheInfo = namedtuple("CacheInfo", "hits misses limit entries")


class _EntryBoundedCache:
    """A least-recently-used cache of basis windows, bounded by the entries they hold.

    ``build`` returns ``(starts, block, weights)``; an entry weighs
    ``block.size``. After each build the oldest entries are dropped until
    the total is within ``limit`` (the newest entry always stays), so the
    cache holds at most ``limit`` + one entry's worth of basis values.
    ``cache_info`` and ``cache_clear`` behave as ``functools.lru_cache``'s.
    """

    def __init__(self, build, limit: int):
        update_wrapper(self, build)
        self._build, self._limit = build, limit
        self.cache_clear()

    def __call__(self, *key):
        entry = self._store.get(key)
        if entry is not None:
            self._hits += 1
            self._store.move_to_end(key)
            return entry
        self._misses += 1
        entry = self._store[key] = self._build(*key)
        self._held += entry[1].size
        while self._held > self._limit and len(self._store) > 1:
            self._held -= self._store.popitem(last=False)[1][1].size
        return entry

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self._limit, self._held)

    def cache_clear(self) -> None:
        self._store: OrderedDict = OrderedDict()
        self._held = self._hits = self._misses = 0


def _rule_basis(n: int, levels: tuple, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degree-n basis window and the weights of ``_uniform_rule(levels, order)``.

    The window over all the rule's nodes is the one
    ``BernsteinPolynomial.__call__`` builds when it takes them in one
    chunk, so the values it gives are bit for bit those of ``poly(nodes)``.
    One cache (least recently used out) serves the action grid ``_GRID``
    at every degree, under 2M entries at ``DEGREE_CAP``, and the 20-point
    rules of ``_level_integral`` whose windows hold at most
    ``_LEVEL_RULE_ENTRIES`` (``_level_entries``): a certificate's opening
    pair of levels as one window over both levels' nodes, and each later
    level as its own; a rule beyond that evaluates its nodes afresh. It is
    bounded by the basis entries it holds, ``_CACHE_ENTRIES`` = 2
    ``_RULE_ENTRIES``, and up to ``DEGREE_CAP``, the largest degree
    ``poly-build`` accepts, no entry holds more than ``_RULE_ENTRIES``, so
    it never holds more than 3 ``_RULE_ENTRIES`` doubles (48 MiB). A degree
    ladder of 33..2049 with all its certificates' levels, the pair of 16
    and 32 panels at degree 2049 among them, needs ~2.5M entries, and a
    seed-1 pass of the ``poly-build`` benchmark, whose certificates reach
    64 panels at degree 2049, 3.76M; cycling over either makes no misses.
    """
    xs, ws = _uniform_rule(levels, order)
    starts, block = _basis_window(n, xs)
    return starts, block, ws


_rule_basis = _EntryBoundedCache(_rule_basis, _CACHE_ENTRIES)


@lru_cache(maxsize=256)
def _level_entries(n: int, levels: tuple) -> int:
    """Basis entries ``_rule_basis(n, levels, _PANEL_ORDER)`` holds, without building it."""
    xs, _ = _uniform_rule(levels, _PANEL_ORDER)
    starts, width, tile = _windows(n, np.rint(n * xs).astype(np.intp))
    return len(starts) * tile * width


@lru_cache(maxsize=8)
def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_rule(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss rule on every panel."""
    gx, gw = _gauss_rule(order)
    e = np.asarray(edges)
    widths = np.diff(e)
    return (e[:-1, None] + widths[:, None] * gx).ravel(), (widths[:, None] * gw).ravel()


def _uniform_rule(levels: tuple, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``order``-point Gauss rule on each level's equal panels of [0, 1], level after level.

    ``levels`` holds panel counts. A level whose nodes fill whole ``_TILE``s
    (at 20 points, an even count) keeps every basis window inside it.
    """
    rules = [_panel_rule(np.linspace(0.0, 1.0, panels + 1), order) for panels in levels]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


@lru_cache(maxsize=1)
def gauss_grid() -> tuple[np.ndarray, np.ndarray]:
    """The action grid: the composite 8-point Gauss rule on 192 equal panels.

    Nodes and weights on [0, 1]. The degree ladder's action estimate and
    the root search both evaluate on it, so they share one basis per degree.
    """
    return _uniform_rule(*_GRID)


@lru_cache(maxsize=256)
def _jacobi_rule(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``_PANEL_ORDER``-point Gauss rule on [0, 1] for the weight x^beta (1 - x)^alpha.

    Golub and Welsch: the nodes are the eigenvalues of the Jacobi
    polynomials' recurrence matrix, shifted to [0, 1] (its diagonal
    written as a sum of positive terms), and each weight is
    B(beta + 1, alpha + 1) times the squared first component of its
    eigenvector. Returns the nodes and the weights divided by the weight
    function at them.
    """
    a, b = float(alpha), float(beta)
    k = np.arange(1.0, _PANEL_ORDER)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b + 1.0) / (a + b + 2.0)],
                           (2.0 * k * (k + a + b + 1.0) + (a + b) * (b + 1.0)) / (s * (s + 2.0))))
    off = np.sqrt(k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    xs, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return xs, mass * vectors[0] ** 2 / (xs ** b * (1.0 - xs) ** a)


def _fresh_panels(levels: tuple, zeros: dict):
    """The uniform panels each doubling level replaces, and the rule that replaces them.

    ``zeros`` maps each zero s of P' to its exponent alpha, |P'|^q ~
    |x - s|^alpha. A level of ``panels`` has as edges the ``panels + 1``
    uniform edges i / panels and every zero, where a uniform edge within a
    third of a panel of a zero gives way to it (the edges at 0 and 1 stay,
    unless a zero is there). A uniform panel that keeps both its edges and
    holds no zero is thus at least a third of its width from every zero;
    the others (the mask) give way to the panels between the level's edges
    that end at a zero, each of which takes the ``_jacobi_rule`` of the
    exponents at its two ends.

    One pass lays every level of ``levels`` (panel counts). Only the zeros
    and the edges beside them are looked at, in plain floats: a zero's
    neighbours are the nearest kept uniform edge on its side (i * (1 /
    panels), as ``np.linspace`` makes it) or the next zero, whichever is
    nearer.
    Returns each level's mask, and the nodes and weights of the
    replacement rules, level after level and sorted within a level, each
    panel's nodes followed by its right end at weight 0 until they fill
    whole ``_TILE``s (so no basis window spans two panels), with the
    index at which each level's nodes end.
    """
    masks = [np.zeros(panels, dtype=bool) for panels in levels]
    if not zeros:
        return masks, np.empty(0), np.empty(0), [0] * len(levels)
    s = sorted(zeros)
    found, ends = [], []  # (left end, right end, rule) of each replacement panel
    for panels, mask in zip(levels, masks):
        step = 1.0 / panels
        gone = set()
        for z in s:
            at = z * panels
            k = round(at)
            if 0 < k < panels and abs(k - at) < 1.0 / 3.0:
                gone.add(k)
            mask[min(int(at), panels - 1)] = True
        for k in gone:
            mask[k - 1] = mask[k] = True

        def edge(i):
            return 1.0 if i == panels else i * step

        def kept(i):  # an edge at 0 or 1 stays unless a zero is there
            return i not in gone if 0 < i < panels else (s[0] > 0.0 if i == 0 else s[-1] < 1.0)

        for j, z in enumerate(s):
            # the nearest kept uniform edge on each side of z (-1 or 2 if none)
            # and the zeros beside it: the nearer one ends z's panel on that side
            i = min(int(z * panels), panels)
            below = next((edge(k) for k in range(i, -1, -1) if edge(k) < z and kept(k)), -1.0)
            above = next((edge(k) for k in range(i, panels + 1) if edge(k) > z and kept(k)), 2.0)
            if j and s[j - 1] > below:
                found.append((s[j - 1], z, _jacobi_rule(zeros[z], zeros[s[j - 1]])))
            elif below >= 0.0:
                found.append((below, z, _jacobi_rule(zeros[z], 0.0)))
            # the panel right of z, unless the next zero's panel on the left is it
            if above <= 1.0 and (j + 1 == len(s) or above < s[j + 1]):
                found.append((z, above, _jacobi_rule(0.0, zeros[z])))
        ends.append(len(found))
    los, his, rules = zip(*found)
    lo, hi = np.array(los)[:, None], np.array(his)[:, None]
    xs = np.empty((len(found), _PANEL_ORDER + (-_PANEL_ORDER % _TILE)))
    ws = np.zeros(xs.shape)
    xs[:, _PANEL_ORDER:] = hi
    xs[:, :_PANEL_ORDER] = lo + (hi - lo) * np.array([x for x, _ in rules])
    ws[:, :_PANEL_ORDER] = (hi - lo) * np.array([w for _, w in rules])
    return masks, xs.ravel(), ws.ravel(), [e * xs.shape[1] for e in ends]


def _level_integral(deriv: BernsteinPolynomial, q: float, levels: tuple, zeros: dict) -> list[float]:
    """The action at each doubling level of ``levels``: that many equal panels of [0, 1].

    Every uniform panel takes the ``_PANEL_ORDER``-point Legendre rule,
    except those ``_fresh_panels`` replaces by the panels that end at the
    zeros of P'. The levels are integrated in one pass: one read of the
    uniform rule of all of them (``_uniform_rule``), one ``_fresh_panels``
    and one ``deriv`` call on all their fresh nodes. The uniform rule's
    values come from the cache of ``_rule_basis`` while its basis window
    holds at most ``_LEVEL_RULE_ENTRIES`` entries (``_level_entries``:
    462,720 at degree 2048 for the pair of 16 and 32 panels, 556,800 for
    64 and 1.09M for 128; 1.67M at ``DEGREE_CAP`` and 64), and from
    ``deriv(nodes)`` beyond that; levels whose window together does not
    fit are integrated one at a time. The cached window is the one
    ``__call__`` builds for the nodes in one chunk, so the two give the
    same values bit for bit.
    """
    n = deriv.degree
    fits = _level_entries(n, levels) <= _LEVEL_RULE_ENTRIES
    if len(levels) > 1 and not fits:
        return [total for panels in levels for total in _level_integral(deriv, q, (panels,), zeros)]
    if fits:
        window, block, rule_ws = _rule_basis(n, levels, _PANEL_ORDER)
        vals = _window_dot(window, block, deriv.coeffs)[: len(rule_ws)]
    else:
        nodes, rule_ws = _uniform_rule(levels, _PANEL_ORDER)
        vals = deriv(nodes)
    masks, xs, ws, ends = _fresh_panels(levels, zeros)
    powers = np.abs(vals) ** q
    fresh = np.abs(deriv(xs)) ** q if xs.size else xs
    totals, start, lo = [], 0, 0
    for panels, mask, end in zip(levels, masks, ends):
        level = slice(start, start + _PANEL_ORDER * panels)
        total = float(np.dot(rule_ws[level] * np.repeat(~mask, _PANEL_ORDER), powers[level]))
        totals.append(total + float(np.dot(ws[lo:end], fresh[lo:end])))
        start, lo = level.stop, end
    return totals


# a polynomial's action exponent: |P'|^inf integrates to 0 wherever |P'| < 1
FINITE_Q = Real(1)


def q_action_poly(poly: BernsteinPolynomial, q: float) -> float:
    """Action integral of |P'|^q over [0, 1] to absolute tolerance ``QUADRATURE_TOL``.

    Certified once per polynomial and q: the result is kept on ``poly`` and
    handed back on every later call.

    At even q, |P'|^q = P'^q is a polynomial and [0, 1] is one smooth
    piece. Otherwise |P'|^q is smooth except at the zeros of P', where it
    has a kink (odd q) or a fractional-power zero. Each doubling level lays
    equal panels over [0, 1] (``_level_integral``) and makes every zero a
    panel edge (``_fresh_panels``): a panel that ends at a zero s takes the
    20-point Gauss-Jacobi rule for the weight |x - s|^alpha, evaluating
    |P'|^q at its nodes and dividing by the weight, with alpha = q at each
    root of ``polynomial_roots`` and, at fractional q, alpha = k q at an
    end where the first k coefficients of P' counted from that end are
    exactly 0 (a zero of order k). |P'|^q / |x - s|^alpha is analytic on
    the panel unless P' has another zero near it, and the nodes keep 8e-3
    of the panel from s, far beyond ``ROOT_WIDTH``. The uniform panels
    left, which take the cached 20-point rule, keep a third of their
    width from every zero: a Bernstein ellipse of rho = 3, error O(3^-40).

    An end where P' != 0 is a regular point and needs no rule of its own:
    a zero of P' at distance d outside [0, 1] makes the end panel's
    integrand ~(x + d)^q, on which the 20-point rule errs by at most
    1.8e-7 of the panel's integral for every d >= 0 (measured for
    1 <= q <= 8; the worst is d -> 0, q ~ 1.16), and while d is below the
    panel's width w that integral, ~w^(q + 1), falls 2^(q + 1)-fold per
    doubling. Convergence is certified by doubling the panel count, up to
    eight levels; a steep P' with a zero within 1e-6 of an end at q = 1.1
    takes five. Raises ``RuntimeError`` if no two successive levels agree.
    """
    FINITE_Q.check("q", q)
    action = poly._actions.get(q)
    if action is None:
        action = poly._actions[q] = _certify_action(poly, q)
    return action


def _certify_action(poly: BernsteinPolynomial, q: float) -> float:
    """The quadrature of ``q_action_poly``, run afresh: base * 2^k panels at level k < 8.

    The base is (n + 1) // 128 clipped to [8, 64] and rounded down to even,
    for a derivative of degree n, so every level's nodes fill whole
    ``_TILE``s. The opening pair of levels, base and 2 base panels, is
    integrated in one ``_level_integral`` pass, and each later level alone.
    """
    deriv = poly.derivative()
    n = deriv.degree
    live = np.flatnonzero(deriv.coeffs)
    if n == 0 or not live.size:
        return abs(deriv.coeffs[0]) ** q
    # |P'|^q is a polynomial at even q and on each side of a root at odd q; at
    # fractional q an end where the first k coefficients of P' counted from it
    # are 0 is a zero of order k too
    zeros = {} if q % 2 == 0 else dict.fromkeys(polynomial_roots(deriv), q)
    if not float(q).is_integer():
        for end, k in ((0.0, int(live[0])), (1.0, n - int(live[-1]))):
            if k:
                zeros[end] = k * q
    base = int(np.clip((n + 1) // 128, 8, 64)) & ~1
    totals = []
    for levels in [(base, 2 * base)] + [(base << k,) for k in range(2, 8)]:
        totals += _level_integral(deriv, q, levels, zeros)
        if abs(totals[-1] - totals[-2]) <= 0.5 * QUADRATURE_TOL:
            return totals[-1]
    raise RuntimeError(f"the q = {q} action of a degree-{poly.degree} polynomial did not converge: "
                       f"{totals[-2]!r} at {base << 6} panels, {totals[-1]!r} at {base << 7}")


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
    """Plain midpoint-rule action integral: the slow oracle of the tests.

    No code in the package calls it; it stays in this module only because
    the benchmark's tracer patches it here. Independent of the root search
    and the panel rules. Up to degree 512 it evaluates P' by de Casteljau;
    above that ``deriv(xs)`` takes over and shares the basis window.
    """
    deriv = poly.derivative()
    xs = (np.arange(n_points) + 0.5) / n_points
    if deriv.degree <= 512:
        vals = de_casteljau_many(deriv, xs)
    else:
        vals = deriv(xs)
    return float(np.mean(np.abs(vals) ** q))
