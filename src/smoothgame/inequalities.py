"""Gap functions and falsification search for the engine's core inequalities.

Each gap function returns ``LHS - RHS`` of one inequality used in the regret
analysis; all of them are expected to be nonnegative over their stated
domains. ``gap_out``, ``gap_in`` and ``gap_two_variable`` take scalars or
equal-shape arrays, and every element must lie in the domain.
``search_near_violation`` hammers each domain with uniform, boundary-biased
and locally refined samples and reports the smallest gap found, flagging
anything below ``-DEFAULT_TOL`` as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interpolation import (
    ACTION_TOL,
    SamplePoint,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    h_potential,
    nearest_gap,
    q_action,
    slope_at,
)

DEFAULT_TOL = 1e-9


def gap_out(a, b, q, x):
    """Gap of the exterior two-segment inequality, valid for |x| >= a."""
    _check_ab(a, b)
    if not _every((b < 1.0) & (a + b <= 1.0)):
        raise ValueError("requires b < 1 and a + b <= 1")
    _check_q_open(q)
    if not _every(abs(x) >= a):
        raise ValueError(f"|x|={abs(x)} must be >= a={a}")
    lhs = a * abs(x / a + 1.0) ** q + b * abs(x / b - 1.0) ** q - (a + b)
    return lhs - (q - 1.0) * abs(x) ** q / 3.0


def gap_in(a, b, q, x):
    """Gap of the interior quadratic-lower-bound inequality, |x| < a."""
    _check_ab(a, b)
    _check_q_open(q)
    if not _every((-a < x) & (x < a)):
        raise ValueError(f"x={x} must lie in (-{a}, {a})")
    lhs = a * (1.0 + x / a) ** q + b * (1.0 - x / b) ** q - (a + b)
    return lhs - q * (q - 1.0) * x * x / (3.0 * a)


def gap_two_variable(p, x):
    """Gap of x^p - (x-1)^(p-1) x >= p - 1 for p > 1, x >= 2."""
    if not _every(p > 1.0):
        raise ValueError(f"p={p} must be > 1")
    if not _every(x >= 2.0):
        raise ValueError(f"x={x} must be >= 2")
    return x ** p - (x - 1.0) ** (p - 1.0) * x - (p - 1.0)


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
    return margin1 >= -DEFAULT_TOL, margin2 >= -DEFAULT_TOL


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
    if not p > 1.0:
        raise ValueError(f"p={p} must be > 1")
    return cumulative_slope_gap(points, p) <= 1.0 / (p - 1.0) + DEFAULT_TOL


def cumulative_slope_gap(points: list[SamplePoint], p: float) -> float:
    """The sum bounded by ``check_cumulative``; errors on infeasible prefixes."""
    s = SampleSet()
    total = 0.0
    for k, pt in enumerate(points):
        if k >= 1:
            m = slope_at(s, pt.u)
            d = nearest_gap(s, pt.u)
            total += abs(m) * d ** p
        s.add(pt.u, pt.v)
        if q_action(s, 1.0) > 1.0 + ACTION_TOL:
            raise ValueError(f"prefix of length {k + 1} violates the unit 1-action budget")
    return total


def _every(cond) -> bool:
    # comparisons of Python floats give a bool; skip numpy's reduction there
    return cond if isinstance(cond, bool) else bool(cond.all())


def _check_ab(a, b) -> None:
    if not _every((0.0 < a) & (a <= b)):
        raise ValueError(f"requires 0 < a <= b, got a={a}, b={b}")


def _check_q_open(q) -> None:
    if not _every((1.0 < q) & (q < 2.0)):
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
            "argmin": {k: _plain(v) for k, v in self.argmin.items()},
            "violations": self.violations,
            "tolerance": DEFAULT_TOL,
            "ok": self.ok,
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


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


# gap id -> (gap function, sampler of its parameters as arrays)
_SCALAR_SEARCHES = {
    "out": (gap_out, _sample_out),
    "in": (gap_in, _sample_in),
    "two_variable": (gap_two_variable, _sample_two_variable),
}


def random_feasible_set(rng, q: float, m: int) -> SampleSet:
    """Random sample set whose q-action lands at a random level <= 1."""
    while True:
        us = np.sort(rng.uniform(0.0, 1.0, size=m))
        if m < 2 or np.min(np.diff(us)) > 1e-4:
            break
    v0 = rng.uniform(-0.5, 0.5)
    if m == 1:
        return SampleSet([float(us[0])], [v0])
    dv = rng.normal(size=m - 1) * rng.uniform(0.05, 1.0, size=m - 1)
    s = SampleSet(us, np.concatenate([[v0], v0 + np.cumsum(dv)]))
    action = q_action(s, q)
    if action > 0.0:
        target = rng.uniform(0.1, 1.0)
        scale = (target / action) ** (1.0 / q) if not math.isinf(q) else target / action
        vs = [v0 + (v - v0) * scale for v in s.vs]
        s = SampleSet(s.us, vs)
    return s


def random_feasible_sequence(rng, length: int) -> list[SamplePoint]:
    """Revelation sequence whose every prefix keeps the 1-action within 1."""
    pts = [SamplePoint(float(rng.uniform()), float(rng.uniform(-0.5, 0.5)))]
    s = SampleSet([pts[0].u], [pts[0].v])
    while len(pts) < length:
        x = float(rng.uniform())
        if s.contains_u(x):
            continue
        box = feasible_reply_interval(s, x, 1.0, 1.0)
        frac = rng.uniform()
        if rng.uniform() < 0.3:
            frac = float(rng.integers(0, 2))  # hit an endpoint
        y = box.lo + (box.hi - box.lo) * frac
        pts.append(SamplePoint(x, y))
        s.add(x, y)
    return pts


def _fresh_x(rng, s: SampleSet) -> float:
    while True:
        x = float(rng.uniform())
        if not s.contains_u(x):
            return x


def _search_scalar(gap_id: str, budget: int, rng) -> GapReport:
    scalar_gap, sampler = _SCALAR_SEARCHES[gap_id]
    refine_budget = budget // 4
    scan_budget = budget - refine_budget
    best = math.inf
    best_params: dict = {}
    violations = 0
    done = 0
    while done < scan_budget:
        n = min(scan_budget - done, 50_000)
        params = sampler(rng, n)
        gaps = scalar_gap(**params)
        done += n
        violations += int(np.count_nonzero(gaps < -DEFAULT_TOL))
        i = int(np.argmin(gaps))
        if gaps[i] < best:
            best = float(gaps[i])
            best_params = {k: float(v[i]) for k, v in params.items()}
    # local refinement: shrink multiplicative perturbations around the minimum
    center = dict(best_params)
    scale = 0.5
    done_ref = 0
    while done_ref < refine_budget:
        step = min(64, refine_budget - done_ref)
        for _ in range(step):
            trial = {
                k: v * (1.0 + scale * rng.uniform(-1.0, 1.0)) for k, v in center.items()
            }
            try:
                g = scalar_gap(**trial)
            except ValueError:
                continue
            if g < best:
                best = g
                center = trial
                best_params = dict(trial)
            if g < -DEFAULT_TOL:
                violations += 1
        done_ref += step
        scale *= 0.7
    return GapReport(gap_id, budget, best, best_params, violations)


def _search_samples(gap_id: str, budget: int, rng, draw) -> GapReport:
    """Score ``budget`` draws; ``draw(rng)`` returns one (gap, parameters) pair."""
    best = math.inf
    best_params: dict = {}
    violations = 0
    for _ in range(budget):
        g, params = draw(rng)
        if g < -DEFAULT_TOL:
            violations += 1
        if g < best:
            best, best_params = g, params
    return GapReport(gap_id, budget, best, best_params, violations)


def _draw_h_increment(rng):
    m = int(rng.integers(2, 9))
    s = random_feasible_set(rng, 1.0, m)
    p = 1.0 + float(_mix_log_uniform(rng, 1, 1e-6, 3.0)[0])
    x = _fresh_x(rng, s)
    base = eval_interpolant(s, x)
    spread = float(10.0 ** rng.uniform(-6, 0.3))
    y = base if rng.uniform() < 0.1 else base + spread * rng.normal()
    g = gap_h_increment(s, SamplePoint(x, y), p)
    return g, {"p": p, "x": x, "y": y, "set_size": m}


def _draw_dichotomy(rng):
    # the effective gap of an either/or claim is the larger branch margin
    q = float(_sample_q_open(rng, 1)[0])
    m = int(rng.integers(1, 9))
    s = random_feasible_set(rng, q, m)
    x = _fresh_x(rng, s)
    base = eval_interpolant(s, x)
    spread = float(10.0 ** rng.uniform(-6, 0.5))
    y = base if rng.uniform() < 0.05 else base + spread * rng.normal()
    g = max(_dichotomy_margins(s, SamplePoint(x, y), q))
    return g, {"q": q, "x": x, "y": y, "set_size": m}


def _draw_cumulative(rng):
    p = float(rng.choice([1.1, 1.5, 2.0, 1.0 + 10 ** rng.uniform(-3, 0.5)]))
    length = int(rng.integers(5, 51))
    g = 1.0 / (p - 1.0) - cumulative_slope_gap(random_feasible_sequence(rng, length), p)
    return g, {"p": p, "length": length}


_SAMPLE_SEARCHES = {
    "h_increment": _draw_h_increment,
    "dichotomy": _draw_dichotomy,
    "cumulative": _draw_cumulative,
}


GAP_IDS = ("out", "in", "two_variable", "h_increment", "dichotomy", "cumulative")


def search_near_violation(gap_id: str, budget: int = 100_000, seed: int = 0) -> GapReport:
    """Sample one inequality's domain ``budget`` times, reporting the worst gap."""
    rng = np.random.default_rng(seed)
    if gap_id in _SCALAR_SEARCHES:
        return _search_scalar(gap_id, budget, rng)
    if gap_id in _SAMPLE_SEARCHES:
        return _search_samples(gap_id, budget, rng, _SAMPLE_SEARCHES[gap_id])
    raise ValueError(f"unknown gap_id {gap_id!r}; known: {GAP_IDS}")
