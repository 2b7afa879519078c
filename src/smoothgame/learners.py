"""Learners: interpolation-following prediction and its lie-tolerant form.

Both learners are deterministic state machines driven by a predict/observe
cycle. ``LinintLearner`` simply predicts the interpolant of everything it
has been told. ``StagedLearner`` is for games where up to ``eta`` revealed
values may be false: it burns the first ``2 * eta + 1`` rounds to trap the
function in a band, follows the interpolant of its stage's revealed pairs
only inside quarter-intervals it has densely sampled, and restarts from
scratch whenever one of three lie-detection events fires. Each learner
keeps its revealed pairs in one ``SampleSet``, ``known``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Protocol

# bench/layertrace.py patches eval_interpolant under this module's name;
# both learners call SampleSet.eval_at instead
from .interpolation import SampleSet, _check_knot, error_power, eval_interpolant  # noqa: F401
from .schema import ACTION_Q, Count


class Learner(Protocol):
    def predict(self, x: float) -> float: ...

    def observe(self, x: float, y: float) -> None: ...


class ProtocolViolationError(RuntimeError):
    """A learner contract was driven outside its certified envelope."""


class LinintLearner:
    """Predicts the piecewise-linear interpolant of all observed pairs.

    Predicts 0 before any feedback. Repeated inputs keep their first
    observed value, but a non-finite value raises ``ValueError`` as
    ``SampleSet.add`` does; the standard protocol never repeats queries,
    and under lying feedback the first answer is as good a guess as any.

    ``predict`` finds x in ``known`` once and keeps x, its position and the
    set's size; ``observe`` of the same x inserts there if the set has not
    grown since, and otherwise finds x itself.
    """

    def __init__(self):
        self.known = SampleSet()
        self._last: tuple[float, int, int] | None = None

    def predict(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x={x} outside [0, 1]")
        known = self.known
        us = known.us
        i = bisect_left(us, x)
        self._last = (x, i, len(us))
        return known.eval_at(i, x)

    def observe(self, x: float, y: float) -> None:
        known = self.known
        us = known.us
        last = self._last
        if last is not None and last[0] == x and last[2] == len(us):
            i = last[1]
        else:
            i = bisect_left(us, x)
        if i < len(us) and us[i] == x:
            _check_knot(x, y)  # a repeated x keeps its first value, but y must be a knot's
        else:
            known.add_at(i, x, y)


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


# what fired a stage reset, in the order the events are tested
REVEALED_OUT = "revealed value out of band"
PREDICTION_OUT = "prediction out of band"
BUDGET_BLOWN = "error budget"


class StagedLearner:
    """Lie-tolerant learner running in stages with three restart triggers.

    After the initial ``2*eta + 1`` uncounted rounds it fixes a global
    center ``v`` (median of the initial revealed values) and predicts ``v``
    whenever the queried quarter-interval holds fewer than ``2*eta + 1``
    revelations this stage. Once an interval is full, the median ``c`` of
    its first ``2*eta + 1`` values, the only ones ``first_values`` keeps,
    confines the function to the band ``[c - w, c + w]`` and trials there
    are *mimicked*: the prediction is the interpolant of the stage's
    revealed pairs, clamped to that band. A stage ends (values, bands and
    pairs cleared) when a revealed value leaves the band, the unclamped
    interpolant leaves the band, or the perceived error of the stage's
    mimicked trials exceeds the threshold. Each event certifies at least
    one lie since the stage began, so a legal adversary can force at most
    ``eta`` restarts. ``resets`` records each one as (trial index, trigger),
    the trigger being the first of the three events, in that order, that
    fired.

    The stage's pairs are one ``SampleSet``, ``known``, grown in place: a
    repeated x keeps its first value, but a non-finite value raises
    ``ValueError`` as ``SampleSet.add`` does. The initial phase adds
    nothing to it. A mimicked ``predict`` finds x in the set once and its
    ``observe`` inserts there, since nothing grows the set in between; an
    unbanded round finds x once, in ``observe``. ``observe`` must follow
    the ``predict`` of the same x.

    The half-width is ``w = max(1/2, (1/4)^(1 - 1/q))``. By Hoelder, f with
    q-action at most 1 varies on a quarter interval I by at most
    ``int_I |f'| <= |I|^(1 - 1/q) (int_I |f'|^q)^(1/q) <= (1/4)^(1 - 1/q)``,
    and the median of ``2*eta + 1`` values, at most ``eta`` of them false,
    falls between two true values, so the band holds f on I. That bound
    is 1/2 at q = 2 and below it for q > 2, where the band stays at 1/2;
    it exceeds 1/2 for q < 2.

    The unit threshold is certified for p >= 2 with an action exponent
    q >= 2; other p require an explicit experimental threshold. At q < 2
    the learner runs with the widened band, but no bound on its totals is
    certified there.
    """

    def __init__(self, eta: int, p: float, threshold: float | None = None, *, q: float = 2.0):
        Count(1).check("eta", eta)
        ACTION_Q.check("q", q)
        if threshold is None:
            if p < 2.0:
                raise ValueError(
                    "unit threshold is certified only for p >= 2; "
                    "pass an explicit experimental threshold for smaller p"
                )
            threshold = 1.0
        self.eta = eta
        self.p = p
        self.threshold = threshold
        self.half_width = max(0.5, 0.25 ** (1.0 - 1.0 / q))
        self.initial_values: list[float] = []
        self.global_center: float | None = None
        self.first_values: list[list[float]] = [[], [], [], []]
        self.bands: list[tuple[float, float] | None] = [None, None, None, None]
        self.known = SampleSet()
        self.resets: list[tuple[int, str]] = []
        self.perceived_error_sum = 0.0
        self._fill = 2 * eta + 1
        self._trial = self._fill  # the index of the next staged trial
        # x, its interval, and for a mimicked round x's position and the raw prediction
        self._last: tuple[float, int, int | None, float] | None = None

    @property
    def stage_resets(self) -> int:
        return len(self.resets)

    def predict(self, x: float) -> float:
        center = self.global_center
        if center is None:
            return 0.0
        j = interval_of(x) - 1
        band = self.bands[j]
        if band is None:
            self._last = (x, j, None, 0.0)
            return center
        known = self.known
        i = bisect_left(known.us, x)
        raw = known.eval_at(i, x)
        self._last = (x, j, i, raw)
        lo, hi = band  # the band clamp; raw is kept for the events
        return lo if raw < lo else hi if raw > hi else raw

    def observe(self, x: float, y: float) -> None:
        if self.global_center is None:
            self.initial_values.append(y)
            if len(self.initial_values) == self._fill:
                self.global_center = median_center(self.initial_values, self.eta)
            return
        last = self._last
        if last is None or last[0] != x:
            raise ProtocolViolationError("observe does not match the last predict")
        self._last = None
        t = self._trial
        self._trial = t + 1
        _, j, i, raw = last
        band = self.bands[j]
        known = self.known
        us = known.us
        if band is None:
            values = self.first_values[j]
            values.append(y)
            if len(values) == self._fill:
                c = median_center(values, self.eta)
                self.bands[j] = (c - self.half_width, c + self.half_width)
            i = bisect_left(us, x)
        if i < len(us) and us[i] == x:
            _check_knot(x, y)  # a repeated x keeps its first value, but y must be a knot's
        else:
            known.add_at(i, x, y)
        if band is None:
            return
        lo, hi = band
        self.perceived_error_sum += error_power(raw - y, self.p)
        if not lo <= y <= hi:
            self._reset_stage(t, REVEALED_OUT)
        elif not lo <= raw <= hi:
            self._reset_stage(t, PREDICTION_OUT)
        elif self.perceived_error_sum > self.threshold:
            self._reset_stage(t, BUDGET_BLOWN)

    def _reset_stage(self, t: int, trigger: str) -> None:
        self.first_values = [[], [], [], []]
        self.bands = [None, None, None, None]
        self.known = SampleSet()
        self.perceived_error_sum = 0.0
        self.resets.append((t, trigger))
