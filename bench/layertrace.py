"""Outside-in layer tracer for the smoothgame benchmark.

Every layer is measured by timing calls into its public functions from
outside the package. Functions are patched where their callers look them
up: module globals for free functions, class attributes for methods.
Players are never wrapped in proxy objects, so the engine's
``isinstance`` checks (and the stage-reset certification that depends on
them) see the real classes.

A span records busy time (inclusive), self time (minus child spans) and a
call count. A call made while a span of the same name is already open is
folded into the outer span, so ``StagedLearner.predict`` delegating to its
inner ``LinintLearner.predict`` counts as one learner call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from smoothgame import adversaries, bernstein, engine, inequalities, interpolation, learners, polyapprox

_clock = time.perf_counter

# (owner, attribute, span name, count name, count from the call's positional args)
_PATCHES = (
    (interpolation.SampleSet, "insert", "interpolation.insert",
     "interpolation.insert.elems_copied", lambda a: 2 * len(a[0])),
    (adversaries, "feasible_reply_interval", "interpolation.feasible_interval", None, None),
    (inequalities, "feasible_reply_interval", "interpolation.feasible_interval", None, None),
    # the bisection's nested evaluations look action_increment up in interpolation
    (interpolation, "action_increment", "interpolation.solver.eval", None, None),
    (adversaries, "action_increment", "interpolation.action_increment", None, None),
    (engine, "action_increment", "interpolation.action_increment", None, None),
    (inequalities, "action_increment", "interpolation.action_increment", None, None),
    (interpolation, "eval_interpolant", "interpolation.eval", None, None),
    (learners, "eval_interpolant", "interpolation.eval", None, None),
    (adversaries, "eval_interpolant", "interpolation.eval", None, None),
    (inequalities, "eval_interpolant", "interpolation.eval", None, None),
    (interpolation, "q_action", "interpolation.q_action", None, None),
    (adversaries, "q_action", "interpolation.q_action", None, None),
    (inequalities, "q_action", "interpolation.q_action", None, None),
    (polyapprox, "q_action", "interpolation.q_action", None, None),
    (learners.LinintLearner, "predict", "learners.predict", None, None),
    (learners.LinintLearner, "observe", "learners.observe", None, None),
    (learners.StagedLearner, "predict", "learners.predict", None, None),
    (learners.StagedLearner, "observe", "learners.observe", None, None),
    (adversaries.GreedyAdversary, "next_query", "adversaries.next_query", None, None),
    (adversaries.GreedyAdversary, "reveal", "adversaries.reveal", None, None),
    (adversaries.RandomLiarAdversary, "next_query", "adversaries.next_query", None, None),
    (adversaries.RandomLiarAdversary, "reveal", "adversaries.reveal", None, None),
    (engine, "verify_legality", "adversaries.verify_legality", None, None),
    # dense elevation operator and basis matrix sizes, computed from shapes
    (bernstein.BernsteinPolynomial, "elevated", "bernstein.elevated",
     "bernstein.elevated.entries", lambda a: (a[1] + 1) * (a[0].degree + 1)),
    (bernstein, "bernstein_basis_matrix", "bernstein.basis_matrix",
     "bernstein.basis_matrix.entries", lambda a: len(a[1]) * (a[0] + 1)),
    (polyapprox, "bernstein_basis_matrix", "bernstein.basis_matrix",
     "bernstein.basis_matrix.entries", lambda a: len(a[1]) * (a[0] + 1)),
    (bernstein, "q_action_poly", "bernstein.q_action_poly", None, None),
    (polyapprox, "q_action_poly", "bernstein.q_action_poly", None, None),
    (bernstein, "polynomial_roots", "bernstein.roots", None, None),
    (bernstein, "composite_rule_action", "bernstein.composite_fallback", None, None),
    (polyapprox, "approx_interpolant_poly", "polyapprox.approx", None, None),
    (polyapprox, "exact_interpolant_poly", "polyapprox.exact", None, None),
    (polyapprox, "weighted_combine", "polyapprox.weighted_combine", None, None),
)


class Tracer:
    """Accumulates spans and counts over every job run while installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.bisection_solves = 0
        self.quarter_s = [0.0] * 4
        self.quarter_rounds = [0] * 4
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self._round_marks: list[float] | None = None

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        name = frame[0]
        self._open[name] -= 1
        self.calls[name] += 1
        self.busy[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes into a layer."""
        frame = self._enter(name)
        t0 = _clock()
        try:
            yield
        finally:
            self._exit(frame, _clock() - t0)

    @contextlib.contextmanager
    def game(self):
        """Span around ``engine.run_game``; also bins round times by quarter.

        A round is timed from one ``next_query`` call to the next, so a game
        of n rounds gives n - 1 round times.
        """
        self._round_marks = []
        try:
            with self.span("engine.run_game"):
                yield
        finally:
            marks, self._round_marks = self._round_marks, None
            n = len(marks) - 1
            for i in range(n):
                quarter = 4 * i // n
                self.quarter_s[quarter] += marks[i + 1] - marks[i]
                self.quarter_rounds[quarter] += 1

    def _wrap(self, fn, name: str, count_name: str | None, count_fn):
        tracer = self
        marks_rounds = name == "adversaries.next_query"
        counts_solves = name == "interpolation.feasible_interval"

        def traced(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            if count_name is not None:
                tracer.counts[count_name] += count_fn(args)
            if marks_rounds and tracer._round_marks is not None:
                tracer._round_marks.append(_clock())
            if counts_solves:
                evals_before = tracer.calls["interpolation.solver.eval"]
            frame = tracer._enter(name)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, _clock() - t0)
                if counts_solves and tracer.calls["interpolation.solver.eval"] > evals_before:
                    tracer.bisection_solves += 1

        return traced

    def _wrap_search(self, fn):
        tracer = self

        def traced(gap_id, *args, **kwargs):
            with tracer.span(f"inequalities.search.{gap_id}"):
                return fn(gap_id, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of one job."""
        saved = []
        try:
            for owner, attr, name, count_name, count_fn in _PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count_name, count_fn))
            original = inequalities.search_near_violation
            saved.append((inequalities, "search_near_violation", original))
            inequalities.search_near_violation = self._wrap_search(original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
