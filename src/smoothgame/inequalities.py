"""Gap functions and falsification search for the engine's core inequalities.

Each gap function returns ``LHS - RHS`` of one inequality used in the regret
analysis; all of them are expected to be nonnegative over their stated
domains. ``gap_out``, ``gap_in`` and ``gap_two_variable`` take scalars or
equal-shape arrays, and every element must lie in the domain.
``search_near_violation`` scores ``budget`` uniform and boundary-biased
draws of one domain through one scan, with the gap id's draw function from
one table, and reports the smallest gap found, flagging anything below
``-DEFAULT_TOL`` as a violation. The point-set searches
(``h_increment``, ``dichotomy``) draw and score their sets in numpy batches
of padded knot arrays. The ``cumulative`` search grows a whole batch of
revelation sequences in lockstep, one point per row per step. Only the
replies and the running 1-actions depend on earlier steps, so the step
loop computes just those: every step's uniforms are drawn as one block
before it, every point's neighbours are found from a sorted list before
it, and the slope-gap sums are formed after it. The references that score
one set or one sequence at a time, and that the batches are tested
against, live in the tests (``tests/search_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bench/layertrace.py patches action_increment, eval_interpolant,
# feasible_reply_interval and q_action under this module's name
from .interpolation import (  # noqa: F401
    ACTION_TOL,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)

DEFAULT_TOL = 1e-9


def gap_out(a, b, q, x):
    """Gap of the exterior two-segment inequality, valid for |x| >= a."""
    _check_ab(a, b)
    if not np.all((b < 1.0) & (a + b <= 1.0)):
        raise ValueError("requires b < 1 and a + b <= 1")
    _check_q_open(q)
    if not np.all(abs(x) >= a):
        raise ValueError(f"|x|={abs(x)} must be >= a={a}")
    lhs = a * abs(x / a + 1.0) ** q + b * abs(x / b - 1.0) ** q - (a + b)
    return lhs - (q - 1.0) * abs(x) ** q / 3.0


def gap_in(a, b, q, x):
    """Gap of the interior quadratic-lower-bound inequality, |x| < a."""
    _check_ab(a, b)
    _check_q_open(q)
    if not np.all((-a < x) & (x < a)):
        raise ValueError(f"x={x} must lie in (-{a}, {a})")
    lhs = a * (1.0 + x / a) ** q + b * (1.0 - x / b) ** q - (a + b)
    return lhs - q * (q - 1.0) * x * x / (3.0 * a)


def gap_two_variable(p, x):
    """Gap of x^p - (x-1)^(p-1) x >= p - 1 for p > 1, x >= 2."""
    if not np.all(p > 1.0):
        raise ValueError(f"p={p} must be > 1")
    if not np.all(x >= 2.0):
        raise ValueError(f"x={x} must be >= 2")
    return x ** p - (x - 1.0) ** (p - 1.0) * x - (p - 1.0)


def _check_ab(a, b) -> None:
    if not np.all((0.0 < a) & (a <= b)):
        raise ValueError(f"requires 0 < a <= b, got a={a}, b={b}")


def _check_q_open(q) -> None:
    if not np.all((1.0 < q) & (q < 2.0)):
        raise ValueError(f"q={q} must lie in the open interval (1, 2)")


# ---------------------------------------------------------------------------
# violation search


@dataclass
class GapReport:
    """Outcome of a falsification search over one inequality's domain."""

    gap_id: str
    samples: int
    min_gap: float
    argmin: dict
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "gap_id": self.gap_id,
            "samples": self.samples,
            "min_gap": self.min_gap,
            "argmin": dict(self.argmin),
            "violations": self.violations,
            "tolerance": DEFAULT_TOL,
            "ok": self.ok,
        }


def _mix_log_uniform(rng, n, lo, hi):
    # half uniform, half log-uniform crowded toward lo
    u = rng.uniform(size=n)
    vals = np.where(
        rng.uniform(size=n) < 0.5,
        lo + (hi - lo) * u,
        lo * (hi / lo) ** u,
    )
    return vals


def _sample_out(rng, n):
    q = _sample_q_open(rng, n)
    b = _mix_log_uniform(rng, n, 1e-6, 1.0 - 1e-9)
    a_hi = np.minimum(b, 1.0 - b)
    a_hi = np.maximum(a_hi, 2e-7)
    a = np.minimum(_mix_log_uniform(rng, n, 1e-7, 1.0), 1.0) * a_hi
    # the 2e-7 floor on a_hi exceeds 1 - b when b > 1 - 2e-7
    a = np.minimum(np.maximum(np.minimum(a, b), 1e-9), 1.0 - b)
    mag = a + (4.0 - a) * _mix_log_uniform(rng, n, 1e-9, 1.0)
    x = np.where(rng.uniform(size=n) < 0.5, mag, -mag)
    return {"a": a, "b": b, "q": q, "x": x}


def _sample_in(rng, n):
    q = _sample_q_open(rng, n)
    b = _mix_log_uniform(rng, n, 1e-6, 2.0)
    a = b * np.minimum(_mix_log_uniform(rng, n, 1e-7, 1.0), 1.0)
    a = np.maximum(a, 1e-9)
    t = rng.uniform(-1.0, 1.0, size=n)
    biased = np.sign(t) * (1.0 - 10.0 ** rng.uniform(-9.0, 0.0, size=n))
    t = np.where(rng.uniform(size=n) < 0.4, biased, t)
    x = a * t * (1.0 - 1e-12)
    return {"a": a, "b": b, "q": q, "x": x}


def _sample_two_variable(rng, n):
    p = 1.0 + _mix_log_uniform(rng, n, 1e-7, 7.0)
    x = 2.0 + _mix_log_uniform(rng, n, 1e-9, 1e4 - 2.0)
    return {"p": p, "x": x}


def _sample_q_open(rng, n):
    u = rng.uniform(size=n)
    edge = 10.0 ** rng.uniform(-7.0, 0.0, size=n)
    pick = rng.uniform(size=n)
    z = np.where(pick < 0.4, u, np.where(pick < 0.7, edge, 1.0 - edge))
    return 1.0 + np.clip(z, 1e-9, 1.0 - 1e-9)


# the most draws made and scored in one numpy call; bounds a search's memory
_CHUNK = 50_000


def _scan(budget: int, rng, draw) -> tuple[float, dict, int]:
    """Score ``budget`` draws in chunks of at most ``_CHUNK``.

    ``draw(rng, n)`` returns the gaps of n draws and a function from a
    draw's index to its parameters. Returns the smallest gap, the parameters
    it was drawn with and the number of violations.
    """
    best = math.inf
    best_params: dict = {}
    violations = 0
    done = 0
    while done < budget:
        n = min(budget - done, _CHUNK)
        gaps, params_at = draw(rng, n)
        done += n
        violations += int(np.count_nonzero(gaps < -DEFAULT_TOL))
        i = int(np.argmin(gaps))
        if gaps[i] < best:
            best = float(gaps[i])
            best_params = params_at(i)
    return best, best_params, violations


def _scalar_draw(gap, sampler):
    """``draw`` for a gap function of arrays, its parameters drawn by ``sampler``."""
    def draw(rng, n):
        params = sampler(rng, n)
        return gap(**params), lambda i: {k: float(v[i]) for k, v in params.items()}

    return draw


# ---------------------------------------------------------------------------
# batched point-set searches

_MAX_KNOTS = 8


@dataclass
class _SetBatch:
    """Point-set draws, one per row, as padded knot arrays.

    Row k holds a set of ``size[k]`` knots in columns 1 to ``size[k]`` of
    ``us`` and ``vs``, a new point ``(x[k], y[k])`` off the knots, and the
    draw's exponent. The pads are flat knots: column 0 sits at u = -1 with
    the first value, and the columns past the set sit at u > 1 with the last
    value. A flat segment adds nothing to an action or a potential and has
    slope 0, and the interpolant outside the knot span is the flat pad's
    value, so only the increments need a mask.
    """

    us: np.ndarray
    vs: np.ndarray
    size: np.ndarray
    x: np.ndarray
    y: np.ndarray
    exponent: np.ndarray

    def knots(self, k: int) -> tuple[list[float], list[float]]:
        """Row k's set as plain-float knot lists."""
        end = int(self.size[k]) + 1
        return self.us[k, 1:end].tolist(), self.vs[k, 1:end].tolist()

    def params(self, k: int, exponent: str) -> dict:
        """Row k as plain values, with the exponent under the given name."""
        us, vs = self.knots(k)
        return {exponent: float(self.exponent[k]), "x": float(self.x[k]),
                "y": float(self.y[k]), "set_size": int(self.size[k]), "us": us, "vs": vs}


def _random_feasible_sets(rng, q: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded knot arrays of random sets, row k of ``size[k]`` knots.

    The knots are sorted uniforms at least 1e-4 apart, and the values a
    random walk from v0 rescaled so that the row's ``q[k]``-action is a
    uniform level in (0.1, 1); a set of action 0 keeps its values.
    """
    n = len(size)
    cols = np.arange(_MAX_KNOTS + 1)
    real = cols < size[:, None]
    inner = np.empty((n, _MAX_KNOTS + 1))
    redraw = np.arange(n)
    while len(redraw):
        # the pads, at u = column + 2 > 1, sort after the knots and pass the gap test
        draws = np.where(real[redraw], rng.uniform(size=(len(redraw), _MAX_KNOTS + 1)), cols + 2.0)
        draws.sort(axis=1)
        inner[redraw] = draws
        redraw = redraw[np.diff(draws, axis=1).min(axis=1) <= 1e-4]
    us = np.hstack([np.full((n, 1), -1.0), inner])
    v0 = rng.uniform(-0.5, 0.5, size=n)[:, None]
    steps = rng.normal(size=(n, _MAX_KNOTS)) * rng.uniform(0.05, 1.0, size=(n, _MAX_KNOTS))
    # step j joins the set's knots j and j + 1 (from 0); the pads stay flat
    steps[~real[:, 1:]] = 0.0
    vs = v0 + np.hstack([np.zeros((n, 2)), np.cumsum(steps, axis=1)])
    du = np.diff(us, axis=1)
    action = (du * np.abs(np.diff(vs, axis=1) / du) ** q[:, None]).sum(axis=1)
    target = rng.uniform(0.1, 1.0, size=n)
    # a set of action 0 is scaled by 1
    scale = (target / np.where(action > 0.0, action, target)) ** (1.0 / q)
    return us, v0 + (vs - v0) * scale[:, None]


def _locate(us: np.ndarray, vs: np.ndarray, x: np.ndarray):
    """The segment of each row that holds x: the column ``i`` of its right
    end, its ends ``(u0, v0)`` and ``(u1, v1)``, and the interpolant at x."""
    i = np.count_nonzero(us < x[:, None], axis=1)
    rows = np.arange(len(x))
    u0, u1, v0, v1 = us[rows, i - 1], us[rows, i], vs[rows, i - 1], vs[rows, i]
    return i, u0, u1, v0, v1, v0 + (x - u0) * (v1 - v0) / (u1 - u0)


def _off_knots(x: np.ndarray, us: np.ndarray) -> np.ndarray:
    """x, each entry moved up one double while it is a knot of its row of ``us``."""
    on = np.flatnonzero((us == x[:, None]).any(axis=1))
    while len(on):
        x[on] = np.nextafter(x[on], 2.0)
        on = on[(us[on] == x[on, None]).any(axis=1)]
    return x


def _fresh_points(rng, us, vs, spread_hi: float, exact_frac: float):
    """x uniform off the knots; y the interpolant at x, plus noise of scale
    10^U(-6, spread_hi) except in a fraction ``exact_frac`` of rows."""
    n = len(us)
    x = _off_knots(rng.uniform(size=n), us)
    base = _locate(us, vs, x)[-1]
    noisy = base + 10.0 ** rng.uniform(-6.0, spread_hi, size=n) * rng.normal(size=n)
    return x, np.where(rng.uniform(size=n) < exact_frac, base, noisy)


def _h_increment_batch(rng, n: int) -> _SetBatch:
    size = rng.integers(2, _MAX_KNOTS + 1, size=n)
    us, vs = _random_feasible_sets(rng, np.ones(n), size)
    p = 1.0 + _mix_log_uniform(rng, n, 1e-6, 3.0)
    x, y = _fresh_points(rng, us, vs, 0.3, 0.1)
    return _SetBatch(us, vs, size, x, y, p)


def _dichotomy_batch(rng, n: int) -> _SetBatch:
    q = _sample_q_open(rng, n)
    size = rng.integers(1, _MAX_KNOTS + 1, size=n)
    us, vs = _random_feasible_sets(rng, q, size)
    x, y = _fresh_points(rng, us, vs, 0.5, 0.05)
    return _SetBatch(us, vs, size, x, y, q)


def _h_increment_gaps(b: _SetBatch) -> np.ndarray:
    """``search_reference.gap_h_increment`` of every row, from the segments the point touches."""
    i, u0, u1, v0, v1, _ = _locate(b.us, b.vs, b.x)
    p = b.exponent
    left, right = b.x - u0, u1 - b.x
    # a pad's segment is not part of the set: mask the new segments to it
    dh = (np.where(i > 1, np.abs(b.y - v0) * (1.0 - left ** (p - 1.0)), 0.0)
          + np.where(i <= b.size, np.abs(v1 - b.y) * (1.0 - right ** (p - 1.0)), 0.0)
          - np.abs(v1 - v0) * (1.0 - (u1 - u0) ** (p - 1.0)))
    slope = (v1 - v0) / (u1 - u0)
    return dh - (p - 1.0) * np.abs(slope) * np.minimum(left, right) ** p


def _dichotomy_margin_arrays(b: _SetBatch) -> tuple[np.ndarray, np.ndarray]:
    """``search_reference._dichotomy_margins`` of every row."""
    i, u0, u1, v0, v1, value = _locate(b.us, b.vs, b.x)
    q = b.exponent
    left, right = b.x - u0, u1 - b.x
    inc = (np.where(i > 1, left * np.abs((b.y - v0) / left) ** q, 0.0)
           + np.where(i <= b.size, right * np.abs((v1 - b.y) / right) ** q, 0.0)
           - (left + right) * np.abs((v1 - v0) / (left + right)) ** q)
    err = b.y - value
    margin1 = inc - (q - 1.0) / 3.0 * np.abs(err) ** q
    slope = (v1 - v0) / (u1 - u0)
    flat = slope == 0.0
    bound2 = ((q - 1.0) / (3.0 * np.abs(np.where(flat, 1.0, slope)) ** (2.0 - q)
                           * np.minimum(left, right)) * err * err)
    margin2 = np.where(err == 0.0, inc, np.where(flat, -np.inf, inc - bound2))
    return margin1, margin2


def _dichotomy_gaps(b: _SetBatch) -> np.ndarray:
    # the effective gap of an either/or claim is the larger branch margin
    return np.maximum(*_dichotomy_margin_arrays(b))


def _point_set_draw(sampler, score, exponent: str):
    """``draw`` for a batch sampler and its scorer; ``exponent`` names the
    batch's exponent in the parameters."""
    def draw(rng, n):
        batch = sampler(rng, n)
        return score(batch), lambda k: batch.params(k, exponent)

    return draw


# ---------------------------------------------------------------------------
# lockstep revelation sequences


@dataclass
class _SequenceBatch:
    """Revelation sequences, one per row, grown in lockstep.

    Row k holds its ``length[k]`` points in revelation order in columns 0 to
    ``length[k] - 1`` of ``us`` and ``vs``; the columns past them are NaN.
    ``total[k]`` is ``search_reference.cumulative_slope_gap`` of the row at
    exponent ``p[k]``.
    """

    us: np.ndarray
    vs: np.ndarray
    length: np.ndarray
    p: np.ndarray
    total: np.ndarray

    def params(self, k: int) -> dict:
        """Row k as plain values, its points as float lists in revelation order."""
        end = int(self.length[k])
        return {"p": float(self.p[k]), "length": end,
                "us": self.us[k, :end].tolist(), "vs": self.vs[k, :end].tolist()}


def _step_draws(rng, us: np.ndarray, grow: np.ndarray):
    """Every step's draws, read from ``rng`` in the order that a step at a
    time draws them: the step's x for each growing row, then its frac, then
    its pick. An x on an earlier knot of its row moves up one double until
    it is on none (``_off_knots``), so the block's length is fixed.

    ``grow[t, k]`` says whether row k draws a point at step t. Fills the
    columns past the first of ``us`` with the x's. Returns where in its reply
    interval each y lands (an end in 30% of rows, half of them each end,
    else frac), laid out as ``us``, and the flat indices of each row's
    points in ascending order of x, the NaN pads last.
    """
    live = np.count_nonzero(grow, axis=1)
    # the block holds each step's x's, then its fracs, then its picks, so
    # a growing row's x, frac and pick lie ``live`` doubles apart
    start = 3 * (np.cumsum(live) - live)
    x_at = (start[:, None] + np.arange(len(us)))[grow]
    block = rng.uniform(size=3 * int(live.sum()))
    us.T[grow] = block[x_at]
    while True:
        # a stable sort puts equal x's in step order: the later step's x of
        # each equal pair moves up, which ends where moving each step's x
        # in turn does
        order = np.argsort(us, axis=1, kind="stable")
        ranked = np.take_along_axis(us, order, axis=1)
        rows, cols = np.nonzero(ranked[:, 1:] == ranked[:, :-1])
        if not len(rows):
            break
        later = order[rows, cols + 1]
        us[rows, later] = np.nextafter(us[rows, later], 2.0)
    del ranked
    gap = np.broadcast_to(live[:, None], grow.shape)[grow]
    frac, pick = block[x_at + gap], block[x_at + 2 * gap]
    del block, x_at, gap
    at = np.zeros(us.shape)
    at.T[grow] = np.where(pick < 0.3, pick >= 0.15, frac)
    order += np.arange(0, us.size, us.shape[1])[:, None]
    return at, order


def _earlier_neighbours(ids: np.ndarray, length: np.ndarray, live: list) -> np.ndarray:
    """The nearest earlier knots below and above each point.

    Row k of ``ids`` holds the flat indices of row k's points in ascending
    order, its ``length[k]`` points first. Point (k, t), drawn at step t, has
    its neighbours at the flat indices ``links[0, k, t]`` (below) and
    ``links[1, k, t]`` (above), or at ``ids.size`` where it has none. A
    sorted list holds every point at once; taking the points out from the
    last step back leaves each point's neighbours in the list as they were
    when it came, and its own links keep them.
    """
    n, steps = ids.shape
    none = n * steps
    # each point's neighbours in its row's sorted order; the pads are no
    # one's neighbour, and ``none`` is a sink for the writes to a missing one
    links = np.full((2, none + 1), none)
    below, above = links
    below[ids[:, 1:]] = ids[:, :-1]
    above[ids[:, :-1]] = ids[:, 1:]
    above[ids[np.arange(n), length - 1]] = none
    for t in range(steps - 1, 0, -1):
        f = np.arange(t, live[t] * steps, steps)
        lo, hi = below[f], above[f]
        above[lo], below[hi] = hi, lo
    return links[:, :none].reshape(2, n, steps)


def _lockstep_sequences(rng, n: int) -> _SequenceBatch:
    """n sequences drawn and scored as the one-sequence reference does one.

    Each row draws p from {1.1, 1.5, 2, 1 + 10^U(-3, 0.5)} and a length from
    U{5..50}. The rows are ordered longest first, so the rows still growing
    at step t are the first ones. At each step every such row draws x off
    its knots, takes its nearest knots on either side (a missing one is a
    flat pad at the other's value, masked out of the action increment), and
    picks y in the closed-form q = 1 feasible interval, at an end of it in
    30% of rows. Each row carries its running 1-action; a row above
    1 + ``ACTION_TOL`` raises ``ValueError``, as that reference does.

    The draws and the neighbours depend on no y, so they are made for all
    steps before the loop: the uniforms in one block (``_step_draws``) and
    the neighbours from each row's sorted points (``_earlier_neighbours``).
    The slope-gap terms are formed after it, so the loop carries only each
    row's running 1-action and its revealed values. The generator gives the
    same doubles in the same order as drawing step by step would, and ends
    in the same state, so the batch equals a step-by-step one bit for bit.
    """
    pick = rng.integers(0, 4, size=n)
    p = np.choose(pick, [1.1, 1.5, 2.0, 1.0 + 10.0 ** rng.uniform(-3.0, 0.5, size=n)])
    length = np.sort(rng.integers(5, 51, size=n))[::-1]
    steps = int(length[0])
    us = np.full((n, steps), np.nan)
    vs = np.full_like(us, np.nan)
    us[:, 0] = rng.uniform(size=n)
    vs[:, 0] = rng.uniform(-0.5, 0.5, size=n)
    # grow[t, k]: row k draws a point at step t
    grow = length > np.arange(steps)[:, None]
    grow[0] = False
    live = np.count_nonzero(grow, axis=1).tolist()
    at, ids = _step_draws(rng, us, grow)
    i0, i1 = _earlier_neighbours(ids, length, live)
    del ids
    # a missing neighbour is a flat pad at the other's value
    np.copyto(i0, i1, where=i0 == us.size)
    np.copyto(i1, i0, where=i1 == us.size)
    # a one-sided point's two end segments are one segment counted twice;
    # its slack is not halved, and doubling then halving is exact
    twice = np.where(i0 == i1, 2.0, 1.0)
    flat_vs = vs.reshape(-1)
    # each row's 1-action after each step
    action = np.zeros(us.shape)
    for t in range(1, steps):
        m = live[t]
        v0, v1 = flat_vs[i0[:m, t]], flat_vs[i1[:m, t]]
        low, high = np.minimum(v0, v1), np.maximum(v0, v1)
        slack = np.maximum(1.0 - action[:m, t - 1], 0.0) * twice[:m, t] * 0.5
        lo, hi = low - slack, high + slack
        y = lo + (hi - lo) * at[:m, t]
        vs[:m, t] = y
        # |v1 - v0| is high - low
        inc = (np.abs(y - v0) + np.abs(v1 - y)) / twice[:m, t] - (high - low)
        np.add(action[:m, t - 1], inc, out=action[:m, t])
    over = np.flatnonzero((action > 1.0 + ACTION_TOL).any(axis=0))
    if len(over):
        raise ValueError(f"a prefix of length {over[0] + 1} violates the unit 1-action budget")
    del at, twice, action
    # the slope-gap terms of the growing rows, step by step; a point's
    # neighbour is on the side where it is, and a pad is no neighbour
    j0, j1 = i0.T[grow], i1.T[grow]
    del i0, i1
    x, u0, u1 = us.T[grow], us.reshape(-1)[j0], us.reshape(-1)[j1]
    u0, u1 = np.where(u0 < x, u0, -np.inf), np.where(u1 > x, u1, np.inf)
    # numpy's power can round a broadcast (stride-0) exponent unlike a
    # contiguous one, so p is laid out in full, as a step's slice of p is
    power = np.minimum(x - u0, u1 - x) ** np.broadcast_to(p, grow.shape)[grow]
    terms = np.zeros(us.shape)
    # outside the span the pad makes v1 == v0 and u1 - u0 infinite: slope 0
    terms.T[grow] = np.abs((flat_vs[j1] - flat_vs[j0]) / (u1 - u0)) * power
    # each row's terms added in step order, as a running total adds them
    total = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return _SequenceBatch(us, vs, length, p, total)


def _cumulative_draw(rng, n):
    # the q = 1 feasible interval is closed form, so a whole chunk of
    # sequences grows in lockstep, one point per row per step
    batch = _lockstep_sequences(rng, n)
    return 1.0 / (batch.p - 1.0) - batch.total, batch.params


# ---------------------------------------------------------------------------
# the searches

# gap id -> ``draw(rng, n)``, which ``_scan`` calls for each chunk of draws
_SEARCHES = {
    "out": _scalar_draw(gap_out, _sample_out),
    "in": _scalar_draw(gap_in, _sample_in),
    "two_variable": _scalar_draw(gap_two_variable, _sample_two_variable),
    "h_increment": _point_set_draw(_h_increment_batch, _h_increment_gaps, "p"),
    "dichotomy": _point_set_draw(_dichotomy_batch, _dichotomy_gaps, "q"),
    "cumulative": _cumulative_draw,
}

GAP_IDS = tuple(_SEARCHES)


def search_near_violation(gap_id: str, budget: int = 100_000, seed: int = 0) -> GapReport:
    """Sample one inequality's domain ``budget`` times, reporting the worst gap.

    Raises ``ValueError`` for an unknown ``gap_id`` or a budget below 1.
    """
    if budget < 1:
        raise ValueError(f"budget {budget} for {gap_id!r} must be at least 1")
    if gap_id not in _SEARCHES:
        raise ValueError(f"unknown gap_id {gap_id!r}; known: {GAP_IDS}")
    rng = np.random.default_rng(seed)
    return GapReport(gap_id, budget, *_scan(budget, rng, _SEARCHES[gap_id]))
