"""Game loop: runs learner vs adversary, counts errors, certifies legality.

A game is a sequence of trials (query, prediction, revelation). In the
standard protocol every revelation is true and the opening trial is
uncounted. In the noisy protocol the adversary may lie a bounded number of
times, the first ``2*eta + 1`` trials are uncounted, and at the end the
adversary discloses its lies and a ground-truth witness against which the
counted errors are recomputed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Callable

from . import __version__
from .adversaries import (
    Adversary,
    Disclosure,
    GreedyAdversary,
    GreedyConfig,
    InsufficientInitAdversary,
    NoisyLowerBoundAdversary,
    verify_legality,
)
from .interpolation import ACTION_TOL, SampleSet, action_increment, eval_interpolant
from .learners import Learner, LinintLearner, ProtocolViolationError, StagedLearner

CSV_HEADER = ["t", "x", "prediction", "revealed", "true_value", "lie", "raw_error", "p_power", "counted"]


class IllegalAdversaryError(RuntimeError):
    """The adversary broke feasibility or the query protocol."""


class DuplicateQueryError(IllegalAdversaryError):
    """A repeated query arrived under the reject policy."""


@dataclass(frozen=True)
class GameConfig:
    """Full description of one game; equal configs give identical games."""

    p: float
    q: float
    rounds: int
    learner: str
    adversary: str
    eta: int = 0
    seed: int = 0
    duplicate_policy: str = "reject"
    uncounted_rounds: int | None = None
    learner_options: tuple = ()
    adversary_options: tuple = ()

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.duplicate_policy not in ("reject", "answer-known"):
            raise ValueError(f"unknown duplicate policy {self.duplicate_policy!r}")

    @classmethod
    def make(cls, learner_options: dict | None = None, adversary_options: dict | None = None, **kw):
        """Build a config from plain dicts (options stored as sorted items)."""
        return cls(
            learner_options=tuple(sorted((learner_options or {}).items())),
            adversary_options=tuple(sorted((adversary_options or {}).items())),
            **kw,
        )

    def learner_opts(self) -> dict:
        return dict(self.learner_options)

    def adversary_opts(self) -> dict:
        return dict(self.adversary_options)


@dataclass
class TrialRecord:
    t: int
    x: float
    prediction: float
    revealed: float
    lie: bool | None
    true_value: float | None
    raw_error: float
    p_power: float
    counted: bool


@dataclass
class Transcript:
    """Everything one game produced, plus the error totals and legality."""

    config: GameConfig
    trials: list[TrialRecord] = field(default_factory=list)
    counted_total: float = 0.0
    perceived_total: float = 0.0
    legality: bool | None = None
    stage_count: int | None = None
    lie_count: int | None = None
    finalized: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in self.trials:
            writer.writerow([
                r.t,
                repr(r.x),
                repr(r.prediction),
                repr(r.revealed),
                "" if r.true_value is None else repr(r.true_value),
                "" if r.lie is None else int(r.lie),
                repr(r.raw_error),
                repr(r.p_power),
                int(r.counted),
            ])
        return buf.getvalue()

    def summary(self) -> dict:
        cfg = asdict(self.config)
        cfg["learner_options"] = dict(self.config.learner_options)
        cfg["adversary_options"] = dict(self.config.adversary_options)
        return {
            "tool": "smoothgame",
            "version": __version__,
            "config": cfg,
            "rounds_played": len(self.trials),
            "counted_total": self.counted_total,
            "perceived_total": self.perceived_total,
            "legality": self.legality,
            "stage_count": self.stage_count,
            "lie_count": self.lie_count,
        }


LearnerFactory = Callable[[GameConfig], Learner]
AdversaryFactory = Callable[[GameConfig], Adversary]

LEARNERS: dict[str, LearnerFactory] = {}
ADVERSARIES: dict[str, AdversaryFactory] = {}


def register_learner(name: str, factory: LearnerFactory) -> None:
    LEARNERS[name] = factory


def register_adversary(name: str, factory: AdversaryFactory) -> None:
    ADVERSARIES[name] = factory


register_learner("linint", lambda cfg: LinintLearner())
register_learner(
    "staged",
    lambda cfg: StagedLearner(eta=cfg.eta, p=cfg.p, **cfg.learner_opts()),
)


def _greedy_factory(cfg: GameConfig) -> GreedyAdversary:
    opts = cfg.adversary_opts()
    gc = GreedyConfig(
        query_policy=opts.pop("query_policy", "widest-gap-midpoint"),
        budget=opts.pop("budget", 1.0),
        tie_break=opts.pop("tie_break", "lower"),
    )
    sequence = opts.pop("sequence", None)
    _reject_unknown("greedy adversary", opts)
    return GreedyAdversary(cfg.q, gc, seed=cfg.seed, sequence=sequence)


def _random_liar_factory(cfg: GameConfig) -> GreedyAdversary:
    opts = cfg.adversary_opts()
    gc = GreedyConfig(
        query_policy=opts.pop("query_policy", "uniform-random"),
        budget=opts.pop("budget", 1.0),
    )
    lie_magnitude = opts.pop("lie_magnitude", 0.75)
    _reject_unknown("random-liar adversary", opts)
    return GreedyAdversary(
        cfg.q, gc, seed=cfg.seed, eta=cfg.eta, rounds=cfg.rounds,
        lie_magnitude=lie_magnitude,
    )


def _noisy_lb_factory(cfg: GameConfig) -> NoisyLowerBoundAdversary:
    _reject_unknown("noisy-lb adversary", cfg.adversary_opts())
    return NoisyLowerBoundAdversary(cfg.eta, cfg.p)


def _insufficient_init_factory(cfg: GameConfig) -> InsufficientInitAdversary:
    opts = cfg.adversary_opts()
    swing = opts.pop("swing", 1e6)
    _reject_unknown("insufficient-init adversary", opts)
    return InsufficientInitAdversary(cfg.eta, swing)


def _reject_unknown(who: str, leftover: dict) -> None:
    if leftover:
        raise ValueError(f"unknown options for {who}: {sorted(leftover)}")


register_adversary("greedy", _greedy_factory)
register_adversary("random-liar", _random_liar_factory)
register_adversary("noisy-lb", _noisy_lb_factory)
register_adversary("insufficient-init", _insufficient_init_factory)


def build_players(config: GameConfig) -> tuple[Learner, Adversary]:
    try:
        learner = LEARNERS[config.learner](config)
    except KeyError:
        raise ValueError(f"unknown learner {config.learner!r}") from None
    try:
        adversary = ADVERSARIES[config.adversary](config)
    except KeyError:
        raise ValueError(f"unknown adversary {config.adversary!r}") from None
    return learner, adversary


def run_standard_game(config: GameConfig) -> Transcript:
    """Truthful protocol: revelations are actual values, trial 0 uncounted.

    Feasibility of the revealed set (q-action within the unit budget) is
    asserted after every revelation; a violation aborts with a diagnostic.
    """
    if config.eta != 0:
        raise ValueError("standard games require eta = 0")
    learner, adversary = build_players(config)
    uncounted = 1 if config.uncounted_rounds is None else config.uncounted_rounds
    tr = Transcript(config)
    revealed = SampleSet()
    running_action = 0.0
    for t in range(config.rounds):
        if adversary.done(t):
            break
        x = adversary.next_query(t)
        counted = t >= uncounted
        if revealed.contains_u(x):
            if config.duplicate_policy == "reject":
                raise DuplicateQueryError(f"trial {t}: repeated query x={x}")
            y = eval_interpolant(revealed, x)
            tr.trials.append(TrialRecord(t, x, y, y, None, y, 0.0, 0.0, counted))
            continue
        prediction = learner.predict(x)
        y = adversary.reveal(x, prediction)
        inc = action_increment(revealed, x, y, config.q)
        running_action += inc
        if running_action > 1.0 + ACTION_TOL:
            raise IllegalAdversaryError(
                f"trial {t}: revealed set action {running_action} exceeds the unit budget"
            )
        revealed = revealed.insert(x, y)
        learner.observe(x, y)
        raw = abs(prediction - y)
        tr.trials.append(
            TrialRecord(t, x, prediction, y, False, y, raw, raw ** config.p, counted)
        )
    tr.counted_total = math.fsum(r.p_power for r in tr.trials if r.counted)
    tr.perceived_total = tr.counted_total
    tr.legality = True
    tr.lie_count = 0
    tr.finalized = True
    return tr


def run_noisy_game(config: GameConfig) -> Transcript:
    """Lying protocol: first 2*eta + 1 trials uncounted, truth at the end.

    Repeated queries are allowed here; several scripted adversaries rely on
    them. After the last trial the adversary's disclosure fixes lie flags
    and true values, the counted total is recomputed against ground truth,
    and legality is certified.
    """
    if config.eta < 1:
        raise ValueError("noisy games require eta >= 1")
    learner, adversary = build_players(config)
    uncounted = 2 * config.eta + 1 if config.uncounted_rounds is None else config.uncounted_rounds
    tr = Transcript(config)
    for t in range(config.rounds):
        if adversary.done(t):
            break
        x = adversary.next_query(t)
        prediction = learner.predict(x)
        y = adversary.reveal(x, prediction)
        learner.observe(x, y)
        tr.trials.append(
            TrialRecord(t, x, prediction, y, None, None, 0.0, 0.0, t >= uncounted)
        )
    disclosure = adversary.finalize()
    if len(disclosure.lie_flags) != len(tr.trials):
        raise IllegalAdversaryError(
            f"disclosure carries {len(disclosure.lie_flags)} lie flags "
            f"for {len(tr.trials)} trials"
        )
    truth = disclosure.truth_function()
    for rec, lied in zip(tr.trials, disclosure.lie_flags):
        rec.lie = lied
        rec.true_value = truth(rec.x)
        rec.raw_error = abs(rec.prediction - rec.true_value)
        rec.p_power = rec.raw_error ** config.p
    tr.counted_total = math.fsum(r.p_power for r in tr.trials if r.counted)
    tr.perceived_total = math.fsum(
        abs(r.prediction - r.revealed) ** config.p for r in tr.trials if r.counted
    )
    tr.lie_count = disclosure.lie_count
    tr.legality = verify_legality(tr.trials, disclosure, config.eta, config.q)
    if isinstance(learner, StagedLearner):
        tr.stage_count = learner.stage_resets
        if tr.legality and learner.stage_resets > config.eta:
            raise ProtocolViolationError(
                f"{learner.stage_resets} stage resets against a certified-legal "
                f"adversary with eta={config.eta}"
            )
    tr.finalized = True
    return tr


def run_game(config: GameConfig) -> Transcript:
    return run_noisy_game(config) if config.eta >= 1 else run_standard_game(config)


def total_error(tr: Transcript, p: float) -> float:
    """Recompute the counted error total at exponent p from the records."""
    if not tr.finalized:
        raise ValueError("transcript not finalized")
    for r in tr.trials:
        if r.true_value is None:
            raise ValueError("transcript lacks ground truth; finalize the game first")
    return math.fsum(abs(r.prediction - r.true_value) ** p for r in tr.trials if r.counted)


def verify_transcript_legality(tr: Transcript, eta: int | None = None,
                               q: float | None = None) -> bool:
    """Re-certify a finalized transcript from its own records.

    Rebuilds the truth witness from the recorded true values and applies
    the lie-budget and feasibility checks; repeated queries must agree on
    their true value.
    """
    if not tr.finalized:
        raise ValueError("transcript not finalized")
    eta = tr.config.eta if eta is None else eta
    q = tr.config.q if q is None else q
    flags = []
    seen: dict[float, float] = {}
    for r in tr.trials:
        if r.lie is None or r.true_value is None:
            raise ValueError("transcript lacks lie flags or ground truth")
        flags.append(r.lie)
        if r.x in seen and abs(seen[r.x] - r.true_value) > 1e-12:
            return False
        seen[r.x] = r.true_value
    truth = SampleSet.from_pairs(seen.items())
    return verify_legality(tr.trials, Disclosure(flags, truth), eta, q)


def scale_transcript(tr: Transcript, c: float) -> Transcript:
    """Scale all values by c > 0; counted totals scale by c**p.

    This is the transcript-level form of the class-scaling identity: the
    interpolation-following learner's decisions are linear in the revealed
    values, so a scaled game replays to exactly this transcript.
    """
    if not c > 0.0:
        raise ValueError("scale factor must be positive")
    out = Transcript(tr.config)
    p = tr.config.p
    for r in tr.trials:
        raw = r.raw_error * c
        out.trials.append(
            TrialRecord(
                r.t,
                r.x,
                r.prediction * c,
                r.revealed * c,
                None if r.true_value is None else r.true_value * c,
                r.lie,
                raw,
                raw ** p,
                r.counted,
            )
        )
    out.counted_total = math.fsum(r.p_power for r in out.trials if r.counted)
    out.perceived_total = math.fsum(
        abs(r.prediction - r.revealed) ** p for r in out.trials if r.counted
    )
    out.legality = tr.legality
    out.stage_count = tr.stage_count
    out.lie_count = tr.lie_count
    out.finalized = tr.finalized
    return out


def write_outputs(tr: Transcript, out_dir, stem: str = "game") -> tuple[str, str]:
    """Write transcript CSV and summary JSON; returns the two paths."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}_transcript.csv"
    json_path = out / f"{stem}_summary.json"
    csv_path.write_text(tr.to_csv())
    json_path.write_text(json.dumps(tr.summary(), sort_keys=True, indent=2) + "\n")
    return str(csv_path), str(json_path)
