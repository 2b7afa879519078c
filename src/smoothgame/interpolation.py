"""Point sets, piecewise-linear interpolants, q-action and related potentials.

Everything else in the package is built on top of the objects here: an
ordered set of samples ``(u_i, v_i)`` on ``[0, 1] x R``, the continuous
piecewise-linear function through them (constant beyond the extreme knots),
the action functional ``integral of |f'|^q``, and the feasibility interval
for the next revealed value under an action budget.

One class, ``SampleSet``, holds every point set: the sets the polynomial
builds read, and the sets a game's players grow in place one knot per
round. The inequality searches keep their sets as padded numpy arrays.

``eval_interpolant``, ``feasible_reply_interval`` and ``action_increment``
each find x's position in the set with one ``bisect_left``, check their
arguments, and hand the position to a ``SampleSet`` method that does the
arithmetic there (``eval_at``, ``reply_bounds``, ``increment_at``).
``eval_interpolant_many`` evaluates at many x in one vector pass, bit for
bit as ``eval_interpolant`` does at each. At q not in {1, 2, inf},
``reply_bounds`` finds each end of the reply interval by doubling, then
bisecting, the offset from the interpolant, at the position it was given.
A game's three owners each grow a set one knot per round and each finds
the round's query in it once: the referee with ``SampleSet.locate``,
which also rejects a knot, the greedy adversary in its query chooser's
test for a knot, and a learner in ``predict`` (a staged learner's
unbanded round in ``observe``). Each passes that position to its
round's interval, increment, ``eval_at`` and ``add_at``. A position holds
only until the set next grows, so an owner that keeps one between calls
checks that the set has not grown before it reuses it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import lt
from typing import Iterable, Sequence

import numpy as np

from .schema import ACTION_Q

ACTION_TOL = 1e-9


class DuplicateKnotError(ValueError):
    """Raised when a u-coordinate is inserted twice (a repeated query)."""


def _check_knot(u: float, v: float) -> None:
    # the knot rule of ``SampleSet`` for one knot; NaN fails the range test
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u={u} outside [0, 1]")
    if not math.isfinite(v):
        raise ValueError(f"v={v} is not finite")


class SampleSet:
    """Ordered set of sample points, grown in place.

    The knot rule: every u lies in [0, 1] (NaN does not), every v is
    finite, and u is strictly increasing. The constructor checks it for the
    whole set; ``add`` checks it for one knot and raises
    ``DuplicateKnotError`` for a u already present. The empty set is
    allowed and its interpolant is identically zero.

    ``add`` grows the set in place with ``bisect``, so a game that adds one
    knot per round does no per-round copy; ``insert`` returns a grown copy
    and leaves the set as it was. ``us`` and ``vs`` are the set's own
    lists; read them, do not mutate. The set keeps nothing beside its
    knots: an owner that grows it and needs its action keeps that as a
    running total and passes it as ``base_action``.

    ``locate(u)`` is the position ``bisect_left(us, u)`` where a u that is
    not a knot would go. ``add_at``, ``eval_at``, ``increment_at`` and
    ``reply_bounds`` take that position, so an owner that grows the set one
    knot per round finds each query once. A position lives until the set
    next grows: any add, wherever it lands, makes it stale.
    """

    __slots__ = ("us", "vs")

    def __init__(self, us: Sequence[float] = (), vs: Sequence[float] = ()):
        if len(us) != len(vs):
            raise ValueError("us and vs must have equal length")
        self.us = us = [float(u) for u in us]
        self.vs = vs = [float(v) for v in vs]
        if not all(map(math.isfinite, vs)):
            raise ValueError("v-values must be finite")
        if us and not (0.0 <= us[0] and us[-1] <= 1.0 and all(map(lt, us, us[1:]))):
            # strictly increasing with both ends in [0, 1] puts every u there
            if not all(0.0 <= u <= 1.0 for u in us):
                raise ValueError("u-coordinates must lie in [0, 1]")
            raise ValueError("u-coordinates must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "SampleSet":
        pts = sorted((float(u), float(v)) for u, v in pairs)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self):
        return iter(zip(self.us, self.vs))

    def __eq__(self, other) -> bool:
        return isinstance(other, SampleSet) and self.us == other.us and self.vs == other.vs

    def __repr__(self) -> str:
        return f"SampleSet({list(zip(self.us, self.vs))!r})"

    def add(self, u: float, v: float) -> None:
        _check_knot(u, v)
        i = self.locate(u)
        self.us.insert(i, u)
        self.vs.insert(i, v)

    def locate(self, u: float) -> int:
        """Position ``bisect_left(us, u)`` of a u that is not a knot.

        Raises ``DuplicateKnotError`` for a knot. The position holds until
        the set next grows.
        """
        us = self.us
        i = bisect_left(us, u)
        if i < len(us) and us[i] == u:
            raise DuplicateKnotError(f"u={u} already a knot")
        return i

    def add_at(self, i: int, u: float, v: float) -> None:
        """``add`` at the position ``i = locate(u)``."""
        if not (0.0 <= u <= 1.0 and math.isfinite(v)):
            _check_knot(u, v)
        self.us.insert(i, u)
        self.vs.insert(i, v)

    def insert(self, u: float, v: float) -> "SampleSet":
        grown = self.copy()
        grown.add(u, v)
        return grown

    def copy(self) -> "SampleSet":
        # the knots already obey the rule, so nothing is checked again
        twin = SampleSet.__new__(SampleSet)
        twin.us, twin.vs = self.us[:], self.vs[:]
        return twin

    def eval_at(self, i: int, x: float) -> float:
        """``eval_interpolant`` at x's position ``i``."""
        us, vs = self.us, self.vs
        if i == 0:
            return vs[0] if us else 0.0
        if i == len(us):
            return vs[-1]
        u1 = us[i]
        if u1 == x:
            return vs[i]
        u0, v0 = us[i - 1], vs[i - 1]
        return v0 + (x - u0) * (vs[i] - v0) / (u1 - u0)

    def increment_at(
        self, i: int, x: float, y: float, q: float, base_action: float | None = None
    ) -> float:
        """``action_increment`` at the position ``i`` of an x that is not a knot."""
        us, vs = self.us, self.vs
        if not us:
            return 0.0
        m = len(us)
        if q == math.inf:
            # the split segment's slope lies between the two new ones, so the
            # sup can only grow to the largest slope the new point touches
            old = q_action(self, q) if base_action is None else base_action
            new = old
            if i > 0:
                c = abs(y - vs[i - 1]) / (x - us[i - 1])
                if c > new:
                    new = c
            if i < m:
                c = abs(vs[i] - y) / (us[i] - x)
                if c > new:
                    new = c
            return new - old
        try:
            if i == 0:
                gap = us[0] - x
                dv = vs[0] - y
                return 0.0 if dv == 0.0 else gap * abs(dv / gap) ** q
            if i == m:
                gap = x - us[-1]
                dv = y - vs[-1]
                return 0.0 if dv == 0.0 else gap * abs(dv / gap) ** q
            u0, u1 = us[i - 1], us[i]
            v0, v1 = vs[i - 1], vs[i]
            a = x - u0
            b = u1 - x
            old_dv = v1 - v0
            old = 0.0 if old_dv == 0.0 else (a + b) * abs(old_dv / (a + b)) ** q
            new = 0.0
            if y != v0:
                new += a * abs((y - v0) / a) ** q
            if v1 != y:
                new += b * abs((v1 - y) / b) ** q
        except OverflowError:
            return math.inf
        return new - old

    def reply_bounds(
        self, i: int, x: float, q: float, budget: float, base_action: float | None = None
    ) -> tuple[float, float]:
        """``feasible_reply_interval``'s (lo, hi) at the position ``i`` of an x
        that is not a knot."""
        us, vs = self.us, self.vs
        if not us:
            return -math.inf, math.inf
        m = len(us)
        if base_action is None:
            base_action = q_action(self, q)
        slack = budget - base_action
        if slack < -ACTION_TOL:
            raise ValueError(f"budget {budget} below current action {base_action}")
        if slack < 0.0:
            slack = 0.0

        if q == math.inf:
            # every segment touching the new point must have |slope| <= budget; the
            # two neighbours' bounds come from different knots, and at zero slack
            # they can cross by rounding, where the only reply is the interpolant's.
            # A bound replaces the last one only if strictly tighter, as max and
            # min would, NaN and signed zeros included
            lo, hi = -math.inf, math.inf
            if i > 0:
                v, gap = vs[i - 1], x - us[i - 1]
                c = v - budget * gap
                if c > lo:
                    lo = c
                c = v + budget * gap
                if c < hi:
                    hi = c
            if i < m:
                v, gap = vs[i], us[i] - x
                c = v - budget * gap
                if c > lo:
                    lo = c
                c = v + budget * gap
                if c < hi:
                    hi = c
            if lo > hi:
                lo = hi = self.eval_at(i, x)
            return lo, hi

        if q == 2.0:
            # the centre is eval_at's value, in its operation order
            if i == 0:
                center = vs[0]
                r = math.sqrt(slack * (us[0] - x))
            elif i == m:
                center = vs[-1]
                r = math.sqrt(slack * (x - us[-1]))
            else:
                u0, u1, v0 = us[i - 1], us[i], vs[i - 1]
                a = x - u0
                b = u1 - x
                center = v0 + a * (vs[i] - v0) / (u1 - u0)
                r = math.sqrt(slack * a * b / (a + b))
            return center - r, center + r

        if q == 1.0:
            # interior: moving y outside [v0, v1] costs 2 * distance; exterior: distance
            if i == 0:
                return vs[0] - slack, vs[0] + slack
            if i == m:
                return vs[-1] - slack, vs[-1] + slack
            v0, v1 = vs[i - 1], vs[i]
            return min(v0, v1) - 0.5 * slack, max(v0, v1) + 0.5 * slack

        center = self.eval_at(i, x)
        if slack == 0.0:
            # the increment is strictly convex with its zero at the centre
            return center, center

        def overshoot(y: float) -> float:
            return self.increment_at(i, x, y, q) - slack

        hi = _bisect_boundary(overshoot, center, +1.0)
        lo = _bisect_boundary(overshoot, center, -1.0)
        return lo, hi


def eval_interpolant(s: SampleSet, x: float) -> float:
    """Value of the piecewise-linear interpolant of ``s`` at ``x``.

    Constant at ``v_1`` left of the first knot and at ``v_m`` right of the
    last; the empty set evaluates to 0 everywhere.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x={x} outside [0, 1]")
    return s.eval_at(bisect_left(s.us, x), x)


def eval_interpolant_many(s: SampleSet, xs: Sequence[float]) -> list[float]:
    """``eval_interpolant(s, x)`` for each x of ``xs``, bit for bit, in one vector pass.

    Each value is ``eval_at``'s: the end values outside the knot span, a
    knot's own value at a knot, and between knots
    ``v0 + (x - u0) * (v1 - v0) / (u1 - u0)`` in that operation order, which
    float64 arrays round as Python floats do. The first x outside [0, 1]
    (NaN included) raises ``eval_interpolant``'s ``ValueError``.
    """
    x = np.asarray(xs, dtype=float)
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"x={xs[int(np.argmax(outside))]} outside [0, 1]")
    m = len(s.us)
    if m == 0:
        return [0.0] * len(x)
    us, vs = np.array(s.us), np.array(s.vs)
    i = np.searchsorted(us, x)
    u1, v1 = us[np.minimum(i, m - 1)], vs[np.minimum(i, m - 1)]
    u0, v0 = us[np.maximum(i - 1, 0)], vs[np.maximum(i - 1, 0)]
    with np.errstate(all="ignore"):  # the ends divide 0 by 0; where drops them
        between = v0 + (x - u0) * (v1 - v0) / (u1 - u0)
    at_end = (i == 0) | (i == m)
    return np.where(at_end | (u1 == x), v1, between).tolist()


def error_power(e: float, p: float) -> float:
    """|e| ** p, and inf where that overflows, as an overflowing slope power
    makes ``q_action`` inf."""
    try:
        return abs(e) ** p
    except OverflowError:
        return math.inf


def q_action(s: SampleSet, q: float) -> float:
    """Action sum over segments: sum |du| * |dv/du|^q.

    Zero for fewer than two points. ``q = math.inf`` means the sup-norm
    constraint and returns the largest absolute segment slope. A slope
    whose q-th power overflows makes the action inf.
    """
    ACTION_Q.check("q", q)
    if len(s) <= 1:
        return 0.0
    if math.isinf(q):
        return max(abs(s.vs[i + 1] - s.vs[i]) / (s.us[i + 1] - s.us[i]) for i in range(len(s) - 1))
    total = 0.0
    try:
        for i in range(len(s) - 1):
            du = s.us[i + 1] - s.us[i]
            dv = s.vs[i + 1] - s.vs[i]
            if dv != 0.0:
                total += du * abs(dv / du) ** q
    except OverflowError:
        return math.inf
    return total


def action_increment(
    s: SampleSet, x: float, y: float, q: float, base_action: float | None = None
) -> float:
    """Change in q-action when the point (x, y) is added to ``s``.

    Computed from the one or two segments the new point touches, which keeps
    per-trial feasibility checks O(log m) and avoids cancellation between
    large totals. At q = inf the action is the largest segment slope, and
    ``base_action`` may pass the set's current action, the running sup its
    owner keeps, to skip an O(m) scan; finite q ignores it. A touched
    slope whose q-th power overflows makes the increment inf.
    """
    ACTION_Q.check("q", q)
    return s.increment_at(s.locate(x), x, y, q, base_action)


def feasible_reply_interval(
    s: SampleSet,
    x: float,
    q: float,
    budget: float,
    base_action: float | None = None,
) -> tuple[float, float]:
    """All y such that inserting (x, y) keeps the q-action within ``budget``.

    The action is convex in y with minimum 0 at the interpolant value, so
    the feasible set is a closed interval; endpoints are found in closed
    form for q = 1, 2 and inf. Otherwise ``_bisect_boundary`` doubles the
    offset from the interpolant value until it overshoots the budget, then
    bisects to an absolute bracket width of 1e-12 and returns the feasible
    end, evaluating ``increment_at`` at x's position, found once. The
    result is (lo, hi), and (-inf, inf) for the empty set.
    """
    ACTION_Q.check("q", q)
    return s.reply_bounds(s.locate(x), x, q, budget, base_action)


def _bisect_boundary(overshoot, center: float, direction: float) -> float:
    """Feasible end of the reply interval on one side of ``center``.

    ``overshoot(y)`` is the action increment of reply y minus the slack: it
    is convex with its minimum at ``center`` and is <= 0 exactly on the
    feasible set. When it is >= 0 at ``center`` the slack is 0 up to
    rounding, the feasible set is {center}, and ``center`` is returned.
    Otherwise the offset from ``center`` doubles from 1 until it overshoots,
    and the bracket [inner, outer] of offsets with overshoot(inner) <= 0 <
    overshoot(outer) is bisected until it is at most 1e-12 wide, or until
    floats cannot split it (past an offset of 8192, one ulp exceeds 1e-12).
    The inner end is returned.
    """
    if overshoot(center) >= 0.0:
        return center
    inner, outer = 0.0, 1.0
    while overshoot(center + direction * outer) <= 0.0:
        inner, outer = outer, 2.0 * outer
        if outer > 1e12:
            raise RuntimeError("feasible interval endpoint search diverged")
    mid = 0.5 * (inner + outer)
    while outer - inner > 1e-12 and inner < mid < outer:
        if overshoot(center + direction * mid) <= 0.0:
            inner = mid
        else:
            outer = mid
        mid = 0.5 * (inner + outer)
    return center + direction * inner
