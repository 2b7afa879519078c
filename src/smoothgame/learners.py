"""Learners: interpolation-following prediction and its lie-tolerant wrapper.

Both learners are deterministic state machines driven by a predict/observe
cycle. ``LinintLearner`` simply predicts the interpolant of everything it
has been told. ``StagedLearner`` wraps an inner ``LinintLearner`` for
games where up to ``eta`` revealed values may be false: it burns the first
``2 * eta + 1`` rounds to trap the function in a band, delegates to the
inner learner only inside quarter-intervals it has densely sampled, and
restarts from scratch whenever one of three lie-detection events fires.
"""

from __future__ import annotations

import math
from typing import Protocol

from .interpolation import DuplicateKnotError, SampleSet, eval_interpolant


class Learner(Protocol):
    def predict(self, x: float) -> float: ...

    def observe(self, x: float, y: float) -> None: ...


class ProtocolViolationError(RuntimeError):
    """A learner contract was driven outside its certified envelope."""


class LinintLearner:
    """Predicts the piecewise-linear interpolant of all observed pairs.

    Predicts 0 before any feedback. Repeated inputs keep their first
    observed value; the standard protocol never repeats queries, and under
    lying feedback the first answer is as good a guess as any.
    """

    def __init__(self):
        self.known = SampleSet()

    def predict(self, x: float) -> float:
        return eval_interpolant(self.known, x)

    def observe(self, x: float, y: float) -> None:
        try:
            self.known.add(x, y)
        except DuplicateKnotError:
            pass


def interval_of(x: float) -> int:
    """Quarter-interval index 1..4 of x; the last interval is closed at 1."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x={x} outside [0, 1]")
    return min(int(x * 4.0), 3) + 1


def median_center(values: list[float], eta: int) -> float:
    """The (eta+1)-th smallest of exactly 2*eta + 1 values."""
    if len(values) != 2 * eta + 1:
        raise ValueError(f"need exactly {2 * eta + 1} values, got {len(values)}")
    return sorted(values)[eta]


class StagedLearner:
    """Lie-tolerant learner running in stages with three restart triggers.

    After the initial ``2*eta + 1`` uncounted rounds it fixes a global
    center ``v`` (median of the initial revealed values) and predicts ``v``
    whenever the queried quarter-interval holds fewer than ``2*eta + 1``
    revelations this stage. Once an interval is full, its own median ``c``
    confines the function to ``[c - 1/2, c + 1/2]`` and trials there are
    *mimicked*: the inner learner predicts, clamped to that band. A stage
    ends (all stores cleared, fresh inner learner) when a revealed value
    leaves the band, the inner learner's raw prediction leaves the band, or
    the perceived error of the stage's mimicked trials exceeds the
    threshold. Each event certifies at least one lie since the stage began,
    so a legal adversary can force at most ``eta`` restarts.

    The unit threshold is certified for p >= 2 with an action exponent
    >= 2; other exponents require an explicit experimental threshold.
    """

    def __init__(self, eta: int, p: float, threshold: float | None = None):
        if eta < 1:
            raise ValueError("eta must be >= 1")
        if threshold is None:
            if p < 2.0:
                raise ValueError(
                    "unit threshold is certified only for p >= 2; "
                    "pass an explicit experimental threshold for smaller p"
                )
            threshold = 1.0
        if not (threshold > 0.0 and math.isfinite(threshold)):
            raise ValueError("threshold must be positive and finite")
        self.eta = eta
        self.p = p
        self.threshold = threshold
        self.initial_values: list[float] = []
        self.global_center: float | None = None
        self.stores: list[list[tuple[float, float]]] = [[], [], [], []]
        self.centers: list[float | None] = [None, None, None, None]
        self.inner = LinintLearner()
        self.stage_resets = 0
        self.perceived_error_sum = 0.0
        self._last: tuple[float, int, bool, float] | None = None  # x, j, mimicked, raw
        self._fill = 2 * eta + 1

    # -- generic learner interface -------------------------------------

    def predict(self, x: float) -> float:
        if self.global_center is None:
            return 0.0
        return self.staged_predict(x)[0]

    def observe(self, x: float, y: float) -> None:
        if self.global_center is None:
            self.initial_values.append(y)
            if len(self.initial_values) == self._fill:
                self.global_center = median_center(self.initial_values, self.eta)
            return
        self.staged_observe(x, y)

    # -- staged protocol -----------------------------------------------

    def staged_predict(self, x: float) -> tuple[float, bool]:
        """Prediction and mimicked flag; requires the initial phase done."""
        if self.global_center is None:
            raise ProtocolViolationError("initial feedback phase not complete")
        j = interval_of(x) - 1
        if len(self.stores[j]) < self._fill:
            self._last = (x, j, False, 0.0)
            return self.global_center, False
        c = self.centers[j]
        raw = self.inner.predict(x)
        emitted = min(max(raw, c - 0.5), c + 0.5)  # band clamp; raw kept for events
        self._last = (x, j, True, raw)
        return emitted, True

    def staged_observe(self, x: float, y: float) -> bool:
        """Record feedback for the previous prediction; True on stage reset."""
        if self.global_center is None:
            raise ProtocolViolationError("initial feedback phase not complete")
        if self._last is None or self._last[0] != x:
            raise ProtocolViolationError("observe does not match the last predict")
        _, j, mimicked, raw = self._last
        self._last = None
        self.stores[j].append((x, y))
        if self.centers[j] is None and len(self.stores[j]) == self._fill:
            self.centers[j] = median_center([v for _, v in self.stores[j]], self.eta)
        self.inner.observe(x, y)
        if not mimicked:
            return False
        c = self.centers[j]
        self.perceived_error_sum += abs(raw - y) ** self.p
        revealed_out = not (c - 0.5 <= y <= c + 0.5)
        inner_out = not (c - 0.5 <= raw <= c + 0.5)
        budget_blown = self.perceived_error_sum > self.threshold
        if revealed_out or inner_out or budget_blown:
            self._reset_stage()
            return True
        return False

    def _reset_stage(self) -> None:
        self.stores = [[], [], [], []]
        self.centers = [None, None, None, None]
        self.inner = LinintLearner()
        self.perceived_error_sum = 0.0
        self.stage_resets += 1
