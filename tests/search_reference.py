"""What the inequality searches are tested against.

The one-set references score one point set or one revelation sequence at
a time, in plain floats through ``SampleSet``:

- ``gap_h_increment`` is what the ``h_increment`` batch gives each row;
- ``check_dichotomy`` reports whether each margin of ``_dichotomy_margins``
  clears the tolerance, and the ``dichotomy`` batch gives each row the
  larger margin;
- ``random_feasible_set`` draws one set as the point-set batches draw
  their rows;
- ``random_feasible_sequence`` and ``cumulative_slope_gap`` draw and score
  one sequence as the ``cumulative`` search does a whole chunk.

``SamplePoint``, ``slope_at``, ``nearest_gap`` and ``h_potential`` are the
one-point helpers they read. ``step_by_step_sequences`` is
``inequalities._lockstep_sequences`` as it was when each step drew its own
x, frac and pick, found each row's neighbours by a masked max and min over
the row's knots, and added the step's slope-gap terms to the running
totals. Every reference reads ``inequalities.ACTION_TOL`` and
``inequalities.DEFAULT_TOL`` at call time, like the searches they check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from smoothgame import inequalities
from smoothgame.inequalities import (
    _check_q_open,
    _random_feasible_sets,
    _SequenceBatch,
    _uniform_off_knots,
)
from smoothgame.interpolation import (
    SampleSet,
    _check_knot,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)


@dataclass(frozen=True)
class SamplePoint:
    """A single revealed pair (u, v) with u in [0, 1] and v finite."""

    u: float
    v: float

    def __post_init__(self):
        _check_knot(self.u, self.v)


def slope_at(s: SampleSet, x: float) -> float:
    """Slope of the interpolant at a non-knot x; 0 outside the knot span."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x={x} outside [0, 1]")
    m = len(s)
    if m == 0:
        return 0.0
    i = bisect_left(s.us, x)
    if i < m and s.us[i] == x:
        raise ValueError(f"x={x} coincides with a knot; slope undefined there")
    if x < s.us[0] or x > s.us[-1]:
        return 0.0
    u0, u1 = s.us[i - 1], s.us[i]
    return (s.vs[i] - s.vs[i - 1]) / (u1 - u0)


def nearest_gap(s: SampleSet, x: float) -> float:
    """Distance from x to the nearest knot; error on the empty set."""
    if len(s) == 0:
        raise ValueError("nearest_gap undefined for an empty set")
    i = bisect_left(s.us, x)
    best = math.inf
    if i < len(s.us):
        best = abs(s.us[i] - x)
    if i > 0:
        best = min(best, abs(x - s.us[i - 1]))
    return best


def h_potential(s: SampleSet, p: float) -> float:
    """Bookkeeping potential sum |dv| * (1 - |du|^(p-1)) over segments.

    Stays within [0, 1] whenever the 1-action of the set is at most 1, and
    never decreases when points are inserted.
    """
    if len(s) < 2:
        raise ValueError("h_potential needs at least two points")
    if p < 1.0:
        raise ValueError(f"p={p} must be >= 1")
    total = 0.0
    for i in range(len(s) - 1):
        du = s.us[i + 1] - s.us[i]
        dv = abs(s.vs[i + 1] - s.vs[i])
        total += dv * (1.0 - du ** (p - 1.0))
    return total


def check_dichotomy(s: SampleSet, pt: SamplePoint, q: float) -> tuple[bool, bool]:
    """Test the two action-increment lower bounds; at least one must hold.

    Branch 1 compares the increment against the q-th power of the raw error;
    branch 2 against the squared error weighted by slope and nearest gap.
    Branch 2 is reported false when the slope is zero and the error is not,
    since its right-hand side diverges there.
    """
    _check_q_open(q)
    if len(s) < 1:
        raise ValueError("dichotomy needs a nonempty set")
    margin1, margin2 = _dichotomy_margins(s, pt, q)
    tol = inequalities.DEFAULT_TOL
    return margin1 >= -tol, margin2 >= -tol


def _dichotomy_margins(s: SampleSet, pt: SamplePoint, q: float) -> tuple[float, float]:
    # increment minus each branch's lower bound; branch 2 is -inf at zero
    # slope with nonzero error, where its right-hand side diverges
    inc = action_increment(s, pt.u, pt.v, q)
    err = pt.v - eval_interpolant(s, pt.u)
    margin1 = inc - (q - 1.0) / 3.0 * abs(err) ** q
    if err == 0.0:
        return margin1, inc
    m = slope_at(s, pt.u)
    if m == 0.0:
        return margin1, -math.inf
    d = nearest_gap(s, pt.u)
    return margin1, inc - (q - 1.0) / (3.0 * abs(m) ** (2.0 - q) * d) * err * err


def gap_h_increment(s: SampleSet, pt: SamplePoint, p: float) -> float:
    """Gap of the potential increment bound: dH >= (p-1) |m| d^p."""
    if len(s) < 2:
        raise ValueError("h increment needs at least two points")
    if not p > 1.0:
        raise ValueError(f"p={p} must be > 1")
    dh = h_potential(s.insert(pt.u, pt.v), p) - h_potential(s, p)
    m = slope_at(s, pt.u)
    d = nearest_gap(s, pt.u)
    return dh - (p - 1.0) * abs(m) * d ** p


def check_cumulative(points: list[SamplePoint], p: float) -> bool:
    """Check the cumulative slope-gap bound along a revelation sequence.

    Every prefix interpolant must have 1-action at most 1 (a precondition,
    not part of the inequality); then the sum of |m_i| d_i^p over points
    after the first must stay within 1/(p-1).
    """
    return cumulative_slope_gap(points, p) <= 1.0 / (p - 1.0) + inequalities.DEFAULT_TOL


def cumulative_slope_gap(points: list[SamplePoint], p: float) -> float:
    """The sum bounded by ``check_cumulative``; errors on infeasible prefixes
    and on p not above 1."""
    if not p > 1.0:
        raise ValueError(f"p={p} must be > 1")
    s = SampleSet()
    total = 0.0
    for k, pt in enumerate(points):
        if k >= 1:
            m = slope_at(s, pt.u)
            d = nearest_gap(s, pt.u)
            total += abs(m) * d ** p
        s.add(pt.u, pt.v)
        if q_action(s, 1.0) > 1.0 + inequalities.ACTION_TOL:
            raise ValueError(f"prefix of length {k + 1} violates the unit 1-action budget")
    return total


def random_feasible_set(rng, q: float, m: int) -> SampleSet:
    """Random set of m <= 8 knots whose q-action lands at a random level <= 1."""
    us, vs = _random_feasible_sets(rng, np.array([q]), np.array([m]))
    return SampleSet(us[0, 1:m + 1], vs[0, 1:m + 1])


def random_feasible_sequence(rng, length: int) -> list[SamplePoint]:
    """Revelation sequence whose every prefix keeps the 1-action within 1."""
    if length < 1:
        raise ValueError(f"sequence length {length} must be at least 1")
    pts = [SamplePoint(float(rng.uniform()), float(rng.uniform(-0.5, 0.5)))]
    s = SampleSet([pts[0].u], [pts[0].v])
    while len(pts) < length:
        x = float(rng.uniform())
        if x in s.us:
            continue
        lo, hi = feasible_reply_interval(s, x, 1.0, 1.0)
        frac = rng.uniform()
        if rng.uniform() < 0.3:
            frac = float(rng.integers(0, 2))  # hit an endpoint
        y = lo + (hi - lo) * frac
        pts.append(SamplePoint(x, y))
        s.add(x, y)
    return pts


def step_by_step_sequences(rng, n: int) -> _SequenceBatch:
    """n sequences drawn as ``random_feasible_sequence`` draws one, and scored.

    Each row draws p from {1.1, 1.5, 2, 1 + 10^U(-3, 0.5)} and a length from
    U{5..50}. The rows are ordered longest first, so the rows still growing
    at step t are the first ones. At each step every such row draws x off
    its knots, takes its nearest knots on either side (a missing one is a
    flat pad at the other's value, masked out of the action increment), and
    picks y in the closed-form q = 1 feasible interval, at an end of it in
    30% of rows. Each row carries its running 1-action; a row above
    1 + ``inequalities.ACTION_TOL`` raises ``ValueError``, as
    ``cumulative_slope_gap`` does.
    """
    pick = rng.integers(0, 4, size=n)
    p = np.choose(pick, [1.1, 1.5, 2.0, 1.0 + 10.0 ** rng.uniform(-3.0, 0.5, size=n)])
    length = np.sort(rng.integers(5, 51, size=n))[::-1]
    us = np.full((n, int(length[0])), np.nan)
    vs = np.full_like(us, np.nan)
    us[:, 0] = rng.uniform(size=n)
    vs[:, 0] = rng.uniform(-0.5, 0.5, size=n)
    action, total = np.zeros(n), np.zeros(n)
    for t in range(1, us.shape[1]):
        live = int(np.count_nonzero(length > t))
        knots_u, knots_v = us[:live, :t], vs[:live, :t]
        x = _uniform_off_knots(rng, knots_u)
        rows = np.arange(live)
        below = np.where(knots_u < x[:, None], knots_u, -np.inf)
        above = np.where(knots_u > x[:, None], knots_u, np.inf)
        j0, j1 = below.argmax(axis=1), above.argmin(axis=1)
        u0, u1 = below[rows, j0], above[rows, j1]
        has_left, has_right = u0 > -np.inf, u1 < np.inf
        v0 = np.where(has_left, knots_v[rows, j0], knots_v[rows, j1])
        v1 = np.where(has_right, knots_v[rows, j1], v0)
        # outside the span the pad makes v1 == v0 and u1 - u0 infinite: slope 0
        total[:live] += np.abs((v1 - v0) / (u1 - u0)) * np.minimum(x - u0, u1 - x) ** p[:live]
        slack = np.maximum(1.0 - action[:live], 0.0)
        half = np.where(has_left & has_right, 0.5 * slack, slack)
        lo, hi = np.minimum(v0, v1) - half, np.maximum(v0, v1) + half
        frac, pick = rng.uniform(size=(2, live))
        # 30% of rows hit an end of the interval, half of them each end
        y = lo + (hi - lo) * np.where(pick < 0.3, pick >= 0.15, frac)
        action[:live] += (np.where(has_left, np.abs(y - v0), 0.0)
                          + np.where(has_right, np.abs(v1 - y), 0.0) - np.abs(v1 - v0))
        if (action[:live] > 1.0 + inequalities.ACTION_TOL).any():
            raise ValueError(f"a prefix of length {t + 1} violates the unit 1-action budget")
        us[:live, t], vs[:live, t] = x, y
    return _SequenceBatch(us, vs, length, p, total)
