"""Point sets, piecewise-linear interpolants, q-action and related potentials.

Everything else in the package is built on top of the objects here: an
ordered set of samples ``(u_i, v_i)`` on ``[0, 1] x R``, the continuous
piecewise-linear function through them (constant beyond the extreme knots),
the action functional ``integral of |f'|^q``, and the feasibility interval
for the next revealed value under an action budget.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

ACTION_TOL = 1e-9


class DuplicateKnotError(ValueError):
    """Raised when a u-coordinate is inserted twice (a repeated query)."""


@dataclass(frozen=True)
class SamplePoint:
    """A single revealed pair (u, v) with u in [0, 1] and v finite."""

    u: float
    v: float

    def __post_init__(self):
        if not (0.0 <= self.u <= 1.0):
            raise ValueError(f"u={self.u} outside [0, 1]")
        if not math.isfinite(self.v):
            raise ValueError(f"v={self.v} is not finite")


class SampleSet:
    """Immutable ordered set of sample points with strictly increasing u.

    Value semantics: ``insert`` returns a new set. The empty set is allowed
    and its interpolant is identically zero.
    """

    __slots__ = ("us", "vs")

    def __init__(self, us: Sequence[float] = (), vs: Sequence[float] = ()):
        if len(us) != len(vs):
            raise ValueError("us and vs must have equal length")
        self.us = tuple(float(u) for u in us)
        self.vs = tuple(float(v) for v in vs)
        for a, b in zip(self.us, self.us[1:]):
            if not a < b:
                raise ValueError("u-coordinates must be strictly increasing")
        if self.us:
            if self.us[0] < 0.0 or self.us[-1] > 1.0:
                raise ValueError("u-coordinates must lie in [0, 1]")
        for v in self.vs:
            if not math.isfinite(v):
                raise ValueError("v-values must be finite")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "SampleSet":
        pts = sorted((float(u), float(v)) for u, v in pairs)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    @classmethod
    def _trusted(cls, us: tuple, vs: tuple) -> "SampleSet":
        # internal fast path: invariants already hold by construction
        obj = cls.__new__(cls)
        obj.us = us
        obj.vs = vs
        return obj

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self):
        return iter(zip(self.us, self.vs))

    def __eq__(self, other) -> bool:
        return isinstance(other, SampleSet) and self.us == other.us and self.vs == other.vs

    def __repr__(self) -> str:
        return f"SampleSet({list(zip(self.us, self.vs))!r})"

    def contains_u(self, u: float) -> bool:
        i = bisect_left(self.us, u)
        return i < len(self.us) and self.us[i] == u

    def insert(self, u: float, v: float) -> "SampleSet":
        pt = SamplePoint(u, v)
        i = bisect_left(self.us, pt.u)
        if i < len(self.us) and self.us[i] == pt.u:
            raise DuplicateKnotError(f"u={pt.u} already present (repeated query)")
        return SampleSet._trusted(
            self.us[:i] + (pt.u,) + self.us[i:],
            self.vs[:i] + (pt.v,) + self.vs[i:],
        )


def eval_interpolant(s: SampleSet, x: float) -> float:
    """Value of the piecewise-linear interpolant of ``s`` at ``x``.

    Constant at ``v_1`` left of the first knot and at ``v_m`` right of the
    last; the empty set evaluates to 0 everywhere.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x={x} outside [0, 1]")
    m = len(s)
    if m == 0:
        return 0.0
    if x <= s.us[0]:
        return s.vs[0]
    if x >= s.us[-1]:
        return s.vs[-1]
    i = bisect_left(s.us, x)
    if s.us[i] == x:
        return s.vs[i]
    u0, u1 = s.us[i - 1], s.us[i]
    v0, v1 = s.vs[i - 1], s.vs[i]
    return v0 + (x - u0) * (v1 - v0) / (u1 - u0)


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


def q_action(s: SampleSet, q: float) -> float:
    """Action sum over segments: sum |du| * |dv/du|^q.

    Zero for fewer than two points. ``q = math.inf`` means the sup-norm
    constraint and returns the largest absolute segment slope.
    """
    _check_q(q)
    if len(s) <= 1:
        return 0.0
    if math.isinf(q):
        worst = 0.0
        for i in range(len(s) - 1):
            du = s.us[i + 1] - s.us[i]
            worst = max(worst, abs(s.vs[i + 1] - s.vs[i]) / du)
        return worst
    total = 0.0
    for i in range(len(s) - 1):
        du = s.us[i + 1] - s.us[i]
        dv = s.vs[i + 1] - s.vs[i]
        if dv != 0.0:
            total += du * abs(dv / du) ** q
    return total


def action_increment(s: SampleSet, x: float, y: float, q: float) -> float:
    """Change in q-action when the point (x, y) is added to ``s``.

    Computed from the one or two segments the new point touches, which keeps
    per-trial feasibility checks O(log m) and avoids cancellation between
    large totals.
    """
    _check_q(q)
    m = len(s)
    if m == 0:
        return 0.0
    if math.isinf(q):
        return q_action(s.insert(x, y), q) - q_action(s, q)
    i = bisect_left(s.us, x)
    if i < m and s.us[i] == x:
        raise DuplicateKnotError(f"x={x} already a knot")
    if i == 0:
        gap = s.us[0] - x
        dv = s.vs[0] - y
        return 0.0 if dv == 0.0 else gap * abs(dv / gap) ** q
    if i == m:
        gap = x - s.us[-1]
        dv = y - s.vs[-1]
        return 0.0 if dv == 0.0 else gap * abs(dv / gap) ** q
    u0, u1 = s.us[i - 1], s.us[i]
    v0, v1 = s.vs[i - 1], s.vs[i]
    a = x - u0
    b = u1 - x
    old_dv = v1 - v0
    old = 0.0 if old_dv == 0.0 else (a + b) * abs(old_dv / (a + b)) ** q
    new = 0.0
    if y != v0:
        new += a * abs((y - v0) / a) ** q
    if v1 != y:
        new += b * abs((v1 - y) / b) ** q
    return new - old


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


@dataclass(frozen=True)
class FeasibleInterval:
    """Closed interval of replies y compatible with the action budget."""

    lo: float
    hi: float

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


def feasible_reply_interval(
    s: SampleSet,
    x: float,
    q: float,
    budget: float,
    tol: float = 1e-12,
    base_action: float | None = None,
) -> FeasibleInterval:
    """All y such that inserting (x, y) keeps the q-action within ``budget``.

    The action is convex in y with minimum 0 at the interpolant value, so
    the feasible set is a closed interval; endpoints are found in closed
    form for q = 2 and q = inf, and by bisection to absolute tolerance
    ``tol`` otherwise. The empty set yields an unbounded interval.
    """
    _check_q(q)
    if len(s) == 0:
        return FeasibleInterval(-math.inf, math.inf)
    if s.contains_u(x):
        raise DuplicateKnotError(f"x={x} already a knot")
    if base_action is None:
        base_action = q_action(s, q)
    slack = budget - base_action
    if slack < -ACTION_TOL:
        raise ValueError(f"budget {budget} below current action {base_action}")
    slack = max(slack, 0.0)

    if math.isinf(q):
        return _feasible_interval_sup(s, x, budget)

    if q == 2.0:
        center = eval_interpolant(s, x)
        i = bisect_left(s.us, x)
        if i == 0:
            r = math.sqrt(slack * (s.us[0] - x))
        elif i == len(s):
            r = math.sqrt(slack * (x - s.us[-1]))
        else:
            a = x - s.us[i - 1]
            b = s.us[i] - x
            r = math.sqrt(slack * a * b / (a + b))
        return FeasibleInterval(center - r, center + r)

    if q == 1.0:
        # interior: moving y outside [v0, v1] costs 2 * distance; exterior: distance
        i = bisect_left(s.us, x)
        if i == 0:
            return FeasibleInterval(s.vs[0] - slack, s.vs[0] + slack)
        if i == len(s):
            return FeasibleInterval(s.vs[-1] - slack, s.vs[-1] + slack)
        v0, v1 = s.vs[i - 1], s.vs[i]
        return FeasibleInterval(min(v0, v1) - 0.5 * slack, max(v0, v1) + 0.5 * slack)

    def overshoot(y: float) -> float:
        return action_increment(s, x, y, q) - slack

    center = eval_interpolant(s, x)
    hi = _bisect_boundary(overshoot, center, +1.0, tol)
    lo = _bisect_boundary(overshoot, center, -1.0, tol)
    return FeasibleInterval(lo, hi)


def _bisect_boundary(overshoot, center: float, direction: float, tol: float) -> float:
    step = 1.0
    while overshoot(center + direction * step) <= 0.0:
        step *= 2.0
        if step > 1e12:
            raise RuntimeError("feasible interval endpoint search diverged")
    inner, outer = 0.0, step
    while outer - inner > tol:
        mid = 0.5 * (inner + outer)
        if overshoot(center + direction * mid) <= 0.0:
            inner = mid
        else:
            outer = mid
    return center + direction * inner


def _feasible_interval_sup(s: SampleSet, x: float, budget: float) -> FeasibleInterval:
    # every segment touching the new point must have |slope| <= budget
    i = bisect_left(s.us, x)
    lo, hi = -math.inf, math.inf
    if i > 0:
        gap = x - s.us[i - 1]
        lo = max(lo, s.vs[i - 1] - budget * gap)
        hi = min(hi, s.vs[i - 1] + budget * gap)
    if i < len(s):
        gap = s.us[i] - x
        lo = max(lo, s.vs[i] - budget * gap)
        hi = min(hi, s.vs[i] + budget * gap)
    return FeasibleInterval(lo, hi)


def _check_q(q: float) -> None:
    if math.isinf(q):
        return
    if not (q >= 1.0 and math.isfinite(q)):
        raise ValueError(f"q={q} must be >= 1 or inf")
