"""Game loop: runs learner vs adversary, counts errors, certifies legality.

A game is a sequence of trials (query, prediction, revelation). In the
standard protocol every revelation is true and the opening trial is
uncounted. In the noisy protocol the adversary may lie a bounded number of
times, the first ``2*eta + 1`` trials are uncounted, and at the end the
adversary discloses its lies and a ground-truth witness against which the
counted errors are recomputed. Players are checked against their protocols
when built, and both game loops bind their methods once, before round 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

from . import __version__
from .adversaries import (
    Adversary,
    GreedyAdversary,
    GreedyConfig,
    InsufficientInitAdversary,
    NoisyLowerBoundAdversary,
    verify_legality,
)
# bench/layertrace.py patches action_increment under this module's name;
# the round path calls SampleSet.increment_at
from .interpolation import (  # noqa: F401
    ACTION_TOL,
    DuplicateKnotError,
    SampleSet,
    action_increment,
    error_power,
    eval_interpolant,
    eval_interpolant_many,
)
from .learners import Learner, LinintLearner, ProtocolViolationError, StagedLearner
from .schema import ACTION_Q, Choice, Count, ListOf, Options, Real, check, key, table

CSV_HEADER = ["t", "x", "prediction", "revealed", "true_value", "lie", "raw_error", "p_power", "counted"]


class IllegalAdversaryError(RuntimeError):
    """The adversary broke feasibility or the query protocol."""


class DuplicateQueryError(IllegalAdversaryError):
    """A repeated query arrived under the reject policy."""


# name -> (factory, the table of the options it takes)
LEARNERS: dict[str, tuple] = {}
ADVERSARIES: dict[str, tuple] = {}


@dataclass(frozen=True)
class GameConfig:
    """Full description of one game; equal configs give identical games.

    Construction checks each field against its declared kind; the players'
    options are checked against their own tables when the players are built.
    """

    p: float = key(Real(1))
    q: float = key(ACTION_Q)
    rounds: int = key(Count(1))
    learner: str = key(Choice(LEARNERS))
    adversary: str = key(Choice(ADVERSARIES))
    eta: int = key(Count(0), 0)
    seed: int = key(Count(0), 0)
    duplicate_policy: str = key(Choice(("reject", "answer-known")), "reject")
    uncounted_rounds: int | None = key(Count(0), None)
    learner_options: tuple = key(Options(None), ())
    adversary_options: tuple = key(Options(None), ())

    def __post_init__(self):
        check(table(GameConfig), {**vars(self), "learner_options": dict(self.learner_options),
                                  "adversary_options": dict(self.adversary_options)})

    @classmethod
    def make(cls, learner_options: dict | None = None, adversary_options: dict | None = None, **kw):
        """Build a config from plain dicts (options stored as sorted items)."""
        return cls(
            learner_options=tuple(sorted((learner_options or {}).items())),
            adversary_options=tuple(sorted((adversary_options or {}).items())),
            **kw,
        )


@dataclass(slots=True)
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

    def to_csv(self) -> str:
        # csv.writer's output: no field (an int or a float's repr) needs quoting.
        # The prediction and the true value reuse the revealed value's repr
        # where they equal it, are nonzero and have its type: -0.0 == 0.0 and
        # 1 == 1.0, but each pair prints two ways, and NaN equals nothing.
        rows = [",".join(CSV_HEADER)]
        for r in self.trials:
            y = r.revealed
            revealed = repr(y)
            v = r.prediction
            prediction = revealed if v == y and v and type(v) is type(y) else repr(v)
            v = r.true_value
            true_value = ("" if v is None else revealed
                          if v is y or v == y and v and type(v) is type(y) else repr(v))
            lie = "" if r.lie is None else int(r.lie)
            rows.append(f"{r.t},{r.x!r},{prediction},{revealed},{true_value},{lie},"
                        f"{r.raw_error!r},{r.p_power!r},{int(r.counted)}")
        return "\n".join(rows) + "\n"

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


def register_learner(name: str, factory, options: dict | None = None) -> None:
    """Register ``factory(config, **options)``; ``options`` declares what it takes (none: nothing)."""
    LEARNERS[name] = (factory, options or {})


def register_adversary(name: str, factory, options: dict | None = None) -> None:
    """Register ``factory(config, **options)``, as ``register_learner`` does."""
    ADVERSARIES[name] = (factory, options or {})


register_learner("linint", lambda cfg: LinintLearner())
register_learner(
    "staged",
    lambda cfg, threshold: StagedLearner(cfg.eta, cfg.p, threshold, q=cfg.q),
    {"threshold": (Real(0, above=True), None)},
)


def _greedy_factory(cfg: GameConfig, sequence, **knobs) -> GreedyAdversary:
    # each round takes a query not asked before, so the run needs
    # `rounds` distinct entries
    if sequence is not None and len(set(sequence)) < cfg.rounds:
        raise ValueError(
            f"query sequence has {len(set(sequence))} distinct entries for {cfg.rounds} rounds"
        )
    return GreedyAdversary(cfg.q, GreedyConfig(**knobs), seed=cfg.seed, sequence=sequence)


_GREEDY = table(GreedyConfig)
register_adversary("greedy", _greedy_factory,
                   {**_GREEDY, "sequence": (ListOf(Real(0, 1)), None)})
register_adversary("random-liar", lambda cfg, lie_magnitude, **knobs: GreedyAdversary(
    cfg.q, GreedyConfig(**knobs), seed=cfg.seed, eta=cfg.eta, rounds=cfg.rounds,
    lie_magnitude=lie_magnitude), {
    "query_policy": (_GREEDY["query_policy"][0], "uniform-random"),
    "budget": _GREEDY["budget"],
    "lie_magnitude": (Real(0, 1), 0.75),
})


def _scripted(cfg: GameConfig, adversary, script_rounds: int):
    # a script discloses its lies only once it has run to the end
    Count(script_rounds).check("rounds", cfg.rounds)
    return adversary


register_adversary("noisy-lb", lambda cfg: _scripted(
    cfg, NoisyLowerBoundAdversary(cfg.eta, cfg.p), 4 * cfg.eta + 2))
register_adversary("insufficient-init", lambda cfg, swing: _scripted(
    cfg, InsufficientInitAdversary(cfg.eta, swing), 2 * cfg.eta + 1),
    {"swing": (Real(0, above=True), 1e6)})


def build_players(config: GameConfig) -> tuple[Learner, Adversary]:
    """The config's players, each built from its options checked and filled in;
    ``ProtocolViolationError`` names a player's class and the protocol methods it lacks."""
    factory, options = LEARNERS[config.learner]
    learner = factory(config, **check(options, dict(config.learner_options), "learner_options"))
    factory, options = ADVERSARIES[config.adversary]
    adversary = factory(config, **check(options, dict(config.adversary_options),
                                        "adversary_options"))
    for player, protocol in ((learner, Learner), (adversary, Adversary)):
        lacks = [m for m in vars(protocol)
                 if not m.startswith("_") and not callable(getattr(player, m, None))]
        if lacks:
            raise ProtocolViolationError(
                f"{type(player).__name__} lacks {', '.join(lacks)} of the {protocol.__name__} protocol")
    return learner, adversary


def run_standard_game(config: GameConfig) -> Transcript:
    """Truthful protocol: revelations are actual values, trial 0 uncounted.

    Feasibility of the revealed set (q-action within the unit budget) is
    asserted after every revelation; a violation aborts with a diagnostic.
    The referee finds each query in its revealed set once, and that
    position serves the duplicate test, the increment and the insert.
    """
    if config.eta != 0:
        raise ValueError("standard games require eta = 0")
    learner, adversary = build_players(config)
    uncounted = 1 if config.uncounted_rounds is None else config.uncounted_rounds
    tr = Transcript(config)
    revealed = SampleSet()
    running_action = 0.0
    p, q = config.p, config.q
    done, next_query, reveal = adversary.done, adversary.next_query, adversary.reveal
    predict, observe = learner.predict, learner.observe
    locate, increment_at, add_at = revealed.locate, revealed.increment_at, revealed.add_at
    record = tr.trials.append
    for t in range(config.rounds):
        if done(t):
            break
        x = next_query(t)
        counted = t >= uncounted
        try:
            i = locate(x)
        except DuplicateKnotError:
            if config.duplicate_policy == "reject":
                raise DuplicateQueryError(f"trial {t}: repeated query x={x}") from None
            y = eval_interpolant(revealed, x)
            record(TrialRecord(t, x, y, y, None, y, 0.0, 0.0, counted))
            continue
        prediction = predict(x)
        y = reveal(x, prediction)
        running_action += increment_at(i, x, y, q, running_action)
        if running_action > 1.0 + ACTION_TOL:
            raise IllegalAdversaryError(
                f"trial {t}: revealed set action {running_action} exceeds the unit budget"
            )
        add_at(i, x, y)
        observe(x, y)
        raw = abs(prediction - y)
        # 0.0 ** p is 0.0 for every p >= 1, and most rounds are pinned at 0
        record(TrialRecord(t, x, prediction, y, False, y, raw,
                           0.0 if raw == 0.0 else error_power(raw, p), counted))
    tr.counted_total = math.fsum(r.p_power for r in tr.trials if r.counted)
    tr.perceived_total = tr.counted_total
    tr.legality = True
    tr.lie_count = 0
    return tr


def run_noisy_game(config: GameConfig) -> Transcript:
    """Lying protocol: first 2*eta + 1 trials uncounted, truth at the end.

    Repeated queries are allowed here; several scripted adversaries rely on
    them. After the last trial the adversary's disclosure fixes lie flags
    and true values, the counted total is recomputed against ground truth,
    and legality is certified. The witness is evaluated at every trial's x
    once, and the records are built from those values.
    """
    if config.eta < 1:
        raise ValueError("noisy games require eta >= 1")
    learner, adversary = build_players(config)
    uncounted = 2 * config.eta + 1 if config.uncounted_rounds is None else config.uncounted_rounds
    xs, predictions, revealed = [], [], []
    done, next_query, reveal = adversary.done, adversary.next_query, adversary.reveal
    predict, observe = learner.predict, learner.observe
    for t in range(config.rounds):
        if done(t):
            break
        x = next_query(t)
        prediction = predict(x)
        y = reveal(x, prediction)
        observe(x, y)
        xs.append(x)
        predictions.append(prediction)
        revealed.append(y)
    n = len(xs)
    disclosure = adversary.finalize()
    flags = disclosure.lie_flags
    if len(flags) != n:
        raise IllegalAdversaryError(
            f"disclosure carries {len(flags)} lie flags for {n} trials"
        )
    true_values = eval_interpolant_many(disclosure.truth, xs)
    p = config.p
    raw = [abs(v - w) for v, w in zip(predictions, true_values)]
    powers = [error_power(e, p) for e in raw]
    counted = [t >= uncounted for t in range(n)]
    tr = Transcript(config, list(map(TrialRecord, range(n), xs, predictions, revealed, flags,
                                     true_values, raw, powers, counted)))
    tr.counted_total = math.fsum(powers[uncounted:])
    # where the revealed value is the true one, the perceived error is the actual one
    tr.perceived_total = math.fsum(
        e if y == w else error_power(v - y, p)
        for v, y, w, e in zip(predictions[uncounted:], revealed[uncounted:],
                              true_values[uncounted:], powers[uncounted:])
    )
    tr.lie_count = disclosure.lie_count
    tr.legality = verify_legality(tr.trials, disclosure, config.eta, config.q)
    if isinstance(learner, StagedLearner):
        tr.stage_count = learner.stage_resets
        if tr.legality and learner.stage_resets > config.eta:
            fired = ", ".join(f"trial {t} ({trigger})" for t, trigger in learner.resets)
            raise ProtocolViolationError(
                f"{learner.stage_resets} stage resets against a certified-legal "
                f"adversary with eta={config.eta}: {fired}"
            )
    return tr


def run_game(config: GameConfig) -> Transcript:
    return run_noisy_game(config) if config.eta >= 1 else run_standard_game(config)


def write_outputs(tr: Transcript, out_dir) -> tuple[str, str]:
    """Write ``game_transcript.csv`` and ``game_summary.json``; returns the two paths."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "game_transcript.csv"
    json_path = out / "game_summary.json"
    csv_path.write_text(tr.to_csv())
    json_path.write_text(json.dumps(tr.summary(), sort_keys=True, indent=2) + "\n")
    return str(csv_path), str(json_path)
