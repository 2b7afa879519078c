"""Adversaries: feasibility-greedy revelation and the scripted lower bounds.

An adversary owns the other side of the game loop: it picks the next query,
answers the learner's prediction, and at the end of a noisy game discloses
which answers were lies together with a ground-truth witness. Legality
means at most ``eta`` lies and a truthful point set realizable within the
unit action budget.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, Protocol

import numpy as np

from .interpolation import (
    ACTION_TOL,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)

QUERY_POLICIES = ("widest-gap-midpoint", "uniform-random", "fixed-sequence")


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs for the feasibility-greedy adversary.

    ``budget`` is the action ceiling for the revealed set (1 targets the
    closed class; shave it slightly below 1 to mimic the open class). The
    reply is always the feasible endpoint farther from the prediction, with
    ties broken toward ``tie_break``.
    """

    query_policy: str = "widest-gap-midpoint"
    budget: float = 1.0
    tie_break: str = "lower"

    def __post_init__(self):
        if self.query_policy not in QUERY_POLICIES:
            raise ValueError(f"unknown query policy {self.query_policy!r}")
        if self.budget < 0.0:
            raise ValueError("budget must be >= 0")
        if self.tie_break not in ("lower", "upper"):
            raise ValueError("tie_break must be 'lower' or 'upper'")


@dataclass
class Disclosure:
    """End-of-game disclosure: per-trial lie flags and a truth witness."""

    lie_flags: list[bool]
    truth: SampleSet

    @property
    def lie_count(self) -> int:
        return sum(self.lie_flags)

    def truth_function(self) -> Callable[[float], float]:
        return partial(eval_interpolant, self.truth)


class Adversary(Protocol):
    def next_query(self, t: int) -> float: ...

    def reveal(self, x: float, prediction: float) -> float: ...

    def done(self, t: int) -> bool: ...

    def finalize(self) -> Disclosure: ...


def greedy_reveal(
    s: SampleSet,
    x: float,
    prediction: float,
    q: float,
    cfg: GreedyConfig,
    base_action: float | None = None,
) -> float:
    """Feasible reply maximizing |y - prediction| under the action budget.

    With no knowledge yet the interval is unbounded and the reply is 0 by
    convention: the opening error is never counted, and anchoring at 0
    costs the adversary nothing. ``base_action`` may pass a running action
    total to avoid an O(m) recomputation per trial.
    """
    box = feasible_reply_interval(s, x, q, cfg.budget, base_action=base_action)
    if not box.bounded:
        return 0.0
    d_lo = abs(box.lo - prediction)
    d_hi = abs(box.hi - prediction)
    if d_lo == d_hi:
        return box.lo if cfg.tie_break == "lower" else box.hi
    return box.lo if d_lo > d_hi else box.hi


def van_der_corput(i: int) -> float:
    """Base-2 radical inverse; a deterministic low-discrepancy sequence."""
    x = 0.0
    denom = 1.0
    i += 1
    while i:
        denom *= 2.0
        i, rem = divmod(i, 2)
        x += rem / denom
    return x


class _QueryChooser:
    """Query selection for the greedy adversary.

    ``choose`` is passed the adversary's truth set. The adversary answers
    each query before it asks the next, so that set holds every query
    returned so far and none is returned twice.
    """

    def __init__(self, policy: str, rng: np.random.Generator, sequence=None):
        self.policy = policy
        self.rng = rng
        self.sequence = list(sequence) if sequence is not None else None
        self._seq_pos = 0
        self._vdc_pos = 0
        self._gap_heap: list[tuple[float, float, float]] = []

    def choose(self, s: SampleSet) -> float:
        if self.policy == "widest-gap-midpoint":
            return self._widest_gap(s)
        if self.policy == "uniform-random":
            while True:
                x = float(self.rng.uniform())
                if not s.contains_u(x):
                    return x
        # fixed-sequence
        while True:
            if self.sequence is not None:
                if self._seq_pos >= len(self.sequence):
                    raise ValueError("fixed query sequence exhausted")
                x = float(self.sequence[self._seq_pos])
                self._seq_pos += 1
            else:
                x = van_der_corput(self._vdc_pos)
                self._vdc_pos += 1
            if not s.contains_u(x):
                return x

    def _widest_gap(self, s: SampleSet) -> float:
        if len(s) == 0:
            return 0.5
        if not self._gap_heap:
            knots = (0.0,) + s.us + (1.0,)
            for a, b in zip(knots, knots[1:]):
                if b > a:
                    heapq.heappush(self._gap_heap, (a - b, a, b))
        while True:
            neg_width, a, b = self._gap_heap[0]
            if not self._gap_valid(s, a, b):
                heapq.heappop(self._gap_heap)
                continue
            heapq.heappop(self._gap_heap)
            x = 0.5 * (a + b)
            heapq.heappush(self._gap_heap, (-(x - a), a, x))
            heapq.heappush(self._gap_heap, (-(b - x), x, b))
            return x

    def _gap_valid(self, s: SampleSet, a: float, b: float) -> bool:
        # a gap survives if no knot fell strictly inside it
        i = bisect_right(s.us, a)
        return i >= len(s.us) or s.us[i] >= b


class GreedyAdversary:
    """Feasibility-greedy adversary that lies on ``eta`` random trials.

    The truthful value of every trial is the greedy feasible endpoint with
    respect to the truth set. On ``eta`` trials drawn up front from the
    first ``rounds`` the revelation is that value +-``lie_magnitude``
    instead. With ``eta = 0`` (the default) every revelation is true and
    this is the standard-model adversary. The truth set is disclosed at the
    end for actual-error accounting.

    Random draws come from one generator seeded by ``seed``, in this order:
    the lie schedule (only when ``eta > 0``), then the queries, then a sign
    at each lie. So an ``eta = 0`` liar plays the same game as the truthful
    adversary.
    """

    def __init__(
        self,
        q: float,
        cfg: GreedyConfig | None = None,
        seed: int | None = None,
        sequence=None,
        *,
        eta: int = 0,
        rounds: int = 0,
        lie_magnitude: float = 0.75,
    ):
        if eta < 0:
            raise ValueError("eta must be >= 0")
        if not 0.0 <= lie_magnitude <= 1.0:
            raise ValueError("lie_magnitude must be in [0, 1]")
        self.q = q
        self.cfg = cfg or GreedyConfig()
        self.lie_magnitude = lie_magnitude
        self.rng = np.random.default_rng(seed)
        self._lie_trials: set[int] = set()
        if eta > 0:
            draws = self.rng.choice(rounds, size=min(eta, rounds), replace=False)
            self._lie_trials = set(int(i) for i in draws)
        self._chooser = _QueryChooser(self.cfg.query_policy, self.rng, sequence)
        self.truth_set = SampleSet()
        self._action = 0.0
        self._lies: list[bool] = []

    def next_query(self, t: int) -> float:
        return self._chooser.choose(self.truth_set)

    def reveal(self, x: float, prediction: float) -> float:
        y = greedy_reveal(self.truth_set, x, prediction, self.q, self.cfg, self._action)
        self._action += action_increment(self.truth_set, x, y, self.q)
        self.truth_set = self.truth_set.insert(x, y)
        lie = len(self._lies) in self._lie_trials and self.lie_magnitude > 0.0
        self._lies.append(lie)
        if lie:
            sign = 1.0 if self.rng.uniform() < 0.5 else -1.0
            return y + sign * self.lie_magnitude
        return y

    def done(self, t: int) -> bool:
        return False

    def finalize(self) -> Disclosure:
        return Disclosure(list(self._lies), self.truth_set)


# ``random-liar`` is the same adversary; the engine registers it with
# uniform-random queries by default.
RandomLiarAdversary = GreedyAdversary


class NoisyLowerBoundAdversary:
    """Scripted liar forcing total error >= 2*eta + 1 for p >= 2.

    Queries 0 for the 2*eta+1 uncounted rounds revealing the true value 0,
    then queries 1 for 2*eta+1 rounds: eta answers of -1, eta answers of
    +1, and finally the true endpoint value, chosen as whichever sign makes
    the accumulated counted error larger. Exactly eta of the revelations
    are lies either way, and the truthful set has action exactly 1.
    """

    def __init__(self, eta: int, p: float):
        if eta < 1:
            raise ValueError("eta must be >= 1")
        if p < 2.0:
            raise ValueError("the forced bound needs p >= 2")
        self.eta = eta
        self.p = p
        self._block = 2 * eta + 1
        self._predictions_at_one: list[float] = []
        self._reveals: list[float] = []
        self.sign: float | None = None

    def next_query(self, t: int) -> float:
        return 0.0 if t < self._block else 1.0

    def reveal(self, x: float, prediction: float) -> float:
        t = len(self._reveals)
        if t < self._block:
            y = 0.0
        else:
            self._predictions_at_one.append(prediction)
            k = t - self._block
            if k < self.eta:
                y = -1.0
            elif k < 2 * self.eta:
                y = 1.0
            else:
                plus = sum(abs(v - 1.0) ** self.p for v in self._predictions_at_one)
                minus = sum(abs(v + 1.0) ** self.p for v in self._predictions_at_one)
                self.sign = 1.0 if plus >= minus else -1.0
                y = self.sign
        self._reveals.append(y)
        return y

    def done(self, t: int) -> bool:
        return t >= 2 * self._block

    def finalize(self) -> Disclosure:
        if self.sign is None:
            raise RuntimeError("script did not reach its final revelation")
        truth = SampleSet([0.0, 1.0], [0.0, self.sign])
        flags = []
        for t, y in enumerate(self._reveals):
            true_value = 0.0 if t < self._block else self.sign
            flags.append(y != true_value)
        return Disclosure(flags, truth)


class InsufficientInitAdversary:
    """Scripted liar showing 2*eta uncounted rounds cannot suffice.

    Over 2*eta + 1 distinct inputs it reveals 0 for eta rounds and ``swing``
    for eta rounds, then commits to whichever constant function makes the
    final prediction wrong by at least swing / 2. Exactly eta lies.
    """

    def __init__(self, eta: int, swing: float = 1e6):
        if eta < 1:
            raise ValueError("eta must be >= 1")
        if swing <= 0.0:
            raise ValueError("swing must be positive")
        self.eta = eta
        self.swing = swing
        self._n = 2 * eta + 1
        self._reveals: list[float] = []
        self.constant: float | None = None

    def next_query(self, t: int) -> float:
        return t / self._n

    def reveal(self, x: float, prediction: float) -> float:
        t = len(self._reveals)
        if t < self.eta:
            y = 0.0
        elif t < 2 * self.eta:
            y = self.swing
        else:
            self.constant = 0.0 if prediction >= self.swing / 2.0 else self.swing
            y = self.constant
        self._reveals.append(y)
        return y

    def done(self, t: int) -> bool:
        return t >= self._n

    def finalize(self) -> Disclosure:
        if self.constant is None:
            raise RuntimeError("script did not reach its final revelation")
        truth = SampleSet([0.0], [self.constant])
        flags = [y != self.constant for y in self._reveals]
        return Disclosure(flags, truth)


def verify_legality(
    trials: list,
    disclosure: Disclosure,
    eta: int,
    q: float,
    tol: float = ACTION_TOL,
) -> bool:
    """Certify a finalized game: few enough lies and a feasible truth.

    Checks that the disclosure flags every trial, that at most ``eta``
    revelations are flagged as lies, that the disclosed truth witness has
    q-action within the unit budget, and that the witness actually matches
    every truthful revelation.
    """
    if len(disclosure.lie_flags) != len(trials):
        return False
    if disclosure.lie_count > eta:
        return False
    if q_action(disclosure.truth, q) > 1.0 + tol:
        return False
    for rec, lied in zip(trials, disclosure.lie_flags):
        if not lied:
            if abs(eval_interpolant(disclosure.truth, rec.x) - rec.revealed) > 1e-9:
                return False
    return True
