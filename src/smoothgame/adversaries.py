"""Adversaries: feasibility-greedy revelation and the scripted lower bounds.

An adversary owns the other side of the game loop: it picks the next query,
answers the learner's prediction, and at the end of a noisy game discloses
which answers were lies together with a ground-truth witness. Legality
means at most ``eta`` lies and a truthful point set realizable within the
unit action budget.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Protocol

import numpy as np

# bench/layertrace.py patches action_increment, eval_interpolant and
# feasible_reply_interval under this module's name; GreedyAdversary.reveal
# calls the SampleSet methods and verify_legality eval_interpolant_many instead
from .interpolation import (  # noqa: F401
    ACTION_TOL,
    SampleSet,
    action_increment,
    error_power,
    eval_interpolant,
    eval_interpolant_many,
    feasible_reply_interval,
    q_action,
)
from .schema import ACTION_Q, Choice, Count, Real, check, key, table

QUERY_POLICIES = ("widest-gap-midpoint", "uniform-random", "fixed-sequence")


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs for the feasibility-greedy adversary.

    ``budget`` is the action ceiling for the revealed set (1 targets the
    closed class; shave it slightly below 1 to mimic the open class). The
    reply is always the feasible endpoint farther from the prediction, with
    ties broken toward ``tie_break``.
    """

    query_policy: str = key(Choice(QUERY_POLICIES), "widest-gap-midpoint")
    budget: float = key(Real(0), 1.0)
    tie_break: str = key(Choice(("lower", "upper")), "lower")

    def __post_init__(self):
        check(table(GreedyConfig), vars(self))


@dataclass
class Disclosure:
    """End-of-game disclosure: per-trial lie flags and a truth witness."""

    lie_flags: list[bool]
    truth: SampleSet

    @property
    def lie_count(self) -> int:
        return sum(self.lie_flags)


class Adversary(Protocol):
    def next_query(self, t: int) -> float: ...

    def reveal(self, x: float, prediction: float) -> float: ...

    def done(self, t: int) -> bool: ...

    def finalize(self) -> Disclosure: ...


def _farther_end(lo: float, hi: float, prediction: float, tie_break: str) -> float:
    # the end of [lo, hi] farther from the prediction, or 0 if [lo, hi] is unbounded
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return 0.0
    d_lo = abs(lo - prediction)
    d_hi = abs(hi - prediction)
    if d_lo == d_hi:
        return lo if tie_break == "lower" else hi
    return lo if d_lo > d_hi else hi


def van_der_corput(i: int) -> float:
    """Base-2 radical inverse of i + 1; a deterministic low-discrepancy sequence.

    The binary digits of n = i + 1 reversed are the numerator over
    2^(n.bit_length()). Integer true division rounds once, so for
    n < 2^53 the value is exact.
    """
    n = i + 1
    return int(format(n, "b")[::-1], 2) / (1 << n.bit_length())


class _Uniforms:
    """``rng``'s uniform doubles one at a time, drawn ``BLOCK`` at a time.

    ``rng.random(size=n)`` gives the n doubles that n calls of
    ``rng.random()`` would, so a game reads the same stream, and a game of
    a few rounds draws at most ``BLOCK`` doubles ahead.
    """

    BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block: list[float] = []
        self._pos = 0

    def next(self) -> float:
        pos = self._pos
        if pos == len(self._block):
            self._block, pos = self._rng.random(self.BLOCK).tolist(), 0
        self._pos = pos + 1
        return self._block[pos]


class _QueryChooser:
    """Query selection for the greedy adversary.

    ``choose`` is passed the adversary's truth set and returns an x that is
    not a knot of it, with its position ``bisect_left(us, x)`` from the test
    for a knot; every policy skips known x. The widest-gap heap starts
    with the gap (0, 1) and splits each gap at its midpoint when popped,
    whether or not that midpoint is already a knot. A ``sequence`` is read
    only by the fixed-sequence policy, and any other policy rejects one.
    """

    def __init__(self, policy: str, uniforms: _Uniforms, sequence=None):
        if sequence is not None and policy != "fixed-sequence":
            raise ValueError(
                f"option 'sequence' needs query_policy 'fixed-sequence', not {policy!r}"
            )
        self.sequence = list(sequence) if sequence is not None else None
        self._seq_pos = 0
        self._vdc_pos = 0
        self._gap_heap: list[tuple[float, float, float]] = [(-1.0, 0.0, 1.0)]
        self._candidate = {"widest-gap-midpoint": self._widest_gap_midpoint,
                           "uniform-random": uniforms.next,
                           "fixed-sequence": self._next_in_sequence}[policy]

    def choose(self, s: SampleSet) -> tuple[float, int]:
        us = s.us
        while True:
            x = self._candidate()
            i = bisect_left(us, x)
            if i == len(us) or us[i] != x:
                return x, i

    def _widest_gap_midpoint(self) -> float:
        _, a, b = heapq.heappop(self._gap_heap)
        x = 0.5 * (a + b)
        heapq.heappush(self._gap_heap, (-(x - a), a, x))
        heapq.heappush(self._gap_heap, (-(b - x), x, b))
        return x

    def _next_in_sequence(self) -> float:
        if self.sequence is not None:
            if self._seq_pos >= len(self.sequence):
                raise ValueError("fixed query sequence exhausted")
            x = float(self.sequence[self._seq_pos])
            self._seq_pos += 1
            return x
        x = van_der_corput(self._vdc_pos)
        self._vdc_pos += 1
        return x


class GreedyAdversary:
    """Feasibility-greedy adversary that lies on ``eta`` random trials.

    The truthful value of every trial is the greedy feasible endpoint with
    respect to the truth set. On ``eta`` trials drawn up front from the
    first ``rounds`` the revelation is that value +-``lie_magnitude``
    instead. With ``eta = 0`` (the default) every revelation is true and
    this is the standard-model adversary. The truth set is a ``SampleSet``
    grown in place; ``finalize`` discloses a copy of it for actual-error
    accounting. ``next_query`` keeps the position its chooser found the
    query at, and ``reveal`` uses it for the interval, the increment and the
    insert when x is that query and the truth set has not grown since;
    otherwise it finds x with ``SampleSet.locate``. So a round finds its
    query in the truth set once.

    Random draws come from one generator seeded by ``seed``, in this order:
    the lie schedule (only when ``eta > 0``), then, in the order the game
    asks for them, the queries (a redraw for a query on a knot) and a sign
    at each lie, read from blocks. So an ``eta = 0`` liar plays the same
    game as the truthful adversary.
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
        ACTION_Q.check("q", q)
        self.q = q
        self.cfg = cfg or GreedyConfig()
        self.lie_magnitude = lie_magnitude
        rng = np.random.default_rng(seed)
        self._lie_trials: set[int] = set()
        if eta > 0:
            draws = rng.choice(rounds, size=min(eta, rounds), replace=False)
            self._lie_trials = set(int(i) for i in draws)
        self._uniforms = _Uniforms(rng)
        self._chooser = _QueryChooser(self.cfg.query_policy, self._uniforms, sequence)
        self.truth_set = SampleSet()
        self._action = 0.0
        self._lies: list[bool] = []
        # the last query, its position in the truth set and the set's size then
        self._asked: tuple[float, int, int] | None = None

    def next_query(self, t: int) -> float:
        s = self.truth_set
        x, i = self._chooser.choose(s)
        self._asked = (x, i, len(s.us))
        return x

    def reveal(self, x: float, prediction: float) -> float:
        s, q, cfg = self.truth_set, self.q, self.cfg
        asked = self._asked
        if asked is not None and asked[0] == x and asked[2] == len(s.us):
            i = asked[1]
        else:
            i = s.locate(x)
        lo, hi = s.reply_bounds(i, x, q, cfg.budget, self._action)
        y = _farther_end(lo, hi, prediction, cfg.tie_break)
        self._action += s.increment_at(i, x, y, q, self._action)
        s.add_at(i, x, y)
        lie = len(self._lies) in self._lie_trials and self.lie_magnitude > 0.0
        self._lies.append(lie)
        if lie:
            sign = 1.0 if self._uniforms.next() < 0.5 else -1.0
            return y + sign * self.lie_magnitude
        return y

    def done(self, t: int) -> bool:
        return False

    def finalize(self) -> Disclosure:
        return Disclosure(list(self._lies), self.truth_set.copy())


# ``random-liar`` is the same adversary; the engine registers it with
# uniform-random queries by default.
RandomLiarAdversary = GreedyAdversary


class NoisyLowerBoundAdversary:
    """Scripted liar forcing the ``forced_lower`` row of ``cli.CERTIFIED_BOUNDS``, for p >= 2.

    Queries 0 for the 2*eta+1 uncounted rounds revealing the true value 0,
    then queries 1 for 2*eta+1 rounds: eta answers of -1, eta answers of
    +1, and finally the true endpoint value, chosen as whichever sign makes
    the accumulated counted error larger. Exactly eta of the revelations
    are lies either way, and the truthful set has action exactly 1.
    """

    def __init__(self, eta: int, p: float):
        Count(1).check("eta", eta)
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
                plus = sum(error_power(v - 1.0, self.p) for v in self._predictions_at_one)
                minus = sum(error_power(v + 1.0, self.p) for v in self._predictions_at_one)
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
        Count(1).check("eta", eta)
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


def verify_legality(trials: list, disclosure: Disclosure, eta: int, q: float) -> bool:
    """Certify a finalized game: few enough lies and a feasible truth.

    Checks that the disclosure flags every trial, that at most ``eta``
    revelations are flagged as lies, that the disclosed truth witness has
    q-action within the unit budget, and that the witness actually matches
    every truthful revelation; the witness is evaluated at every trial's x
    in one ``eval_interpolant_many`` pass.
    """
    flags = disclosure.lie_flags
    if len(flags) != len(trials):
        return False
    if disclosure.lie_count > eta:
        return False
    if q_action(disclosure.truth, q) > 1.0 + ACTION_TOL:
        return False
    true_values = eval_interpolant_many(disclosure.truth, [rec.x for rec in trials])
    # written so that a NaN revelation fails the match
    return not any(not abs(v - rec.revealed) <= 1e-9
                   for rec, v, lied in zip(trials, true_values, flags) if not lied)
