"""An earlier form of the staged learner: the reference it is tested against.

``TwoLayerStagedLearner`` is ``smoothgame.learners.StagedLearner`` as it was
when it wrapped an inner ``LinintLearner``: ``predict`` and ``observe``
delegated to ``staged_predict`` and ``staged_observe``, which asked the
inner learner for its prediction (``eval_interpolant``) and fed it every
staged-phase pair (``SampleSet.add``, a repeat kept its first value), and
a stage reset replaced the inner learner with a fresh one.
"""

from smoothgame.interpolation import error_power
from smoothgame.learners import (
    LinintLearner,
    ProtocolViolationError,
    interval_of,
    median_center,
)
from smoothgame.schema import ACTION_Q, Count


class TwoLayerStagedLearner:
    """Lie-tolerant learner running in stages with three restart triggers.

    After the initial ``2*eta + 1`` uncounted rounds it fixes a global
    center ``v`` (median of the initial revealed values) and predicts ``v``
    whenever the queried quarter-interval holds fewer than ``2*eta + 1``
    revelations this stage. Once an interval is full, the median ``c`` of
    its first ``2*eta + 1`` values, the only ones ``first_values`` keeps,
    confines the function to the band ``[c - w, c + w]`` and trials there
    are *mimicked*: the inner learner predicts, clamped to that band. A stage
    ends (values and bands cleared, fresh inner learner) when a revealed value
    leaves the band, the inner learner's raw prediction leaves the band, or
    the perceived error of the stage's mimicked trials exceeds the
    threshold. Each event certifies at least one lie since the stage began,
    so a legal adversary can force at most ``eta`` restarts.

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
        if self.bands[j] is None:
            self._last = (x, j, False, 0.0)
            return self.global_center, False
        lo, hi = self.bands[j]
        raw = self.inner.predict(x)
        emitted = min(max(raw, lo), hi)  # band clamp; raw kept for events
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
        if self.bands[j] is None:
            values = self.first_values[j]
            values.append(y)
            if len(values) == self._fill:
                c = median_center(values, self.eta)
                self.bands[j] = (c - self.half_width, c + self.half_width)
        self.inner.observe(x, y)
        if not mimicked:
            return False
        lo, hi = self.bands[j]
        self.perceived_error_sum += error_power(raw - y, self.p)
        revealed_out = not (lo <= y <= hi)
        inner_out = not (lo <= raw <= hi)
        budget_blown = self.perceived_error_sum > self.threshold
        if revealed_out or inner_out or budget_blown:
            self._reset_stage()
            return True
        return False

    def _reset_stage(self) -> None:
        self.first_values = [[], [], [], []]
        self.bands = [None, None, None, None]
        self.inner = LinintLearner()
        self.perceived_error_sum = 0.0
        self.stage_resets += 1
