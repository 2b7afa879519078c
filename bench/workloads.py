"""The four benchmark workloads: inputs from a seed, jobs, and their checks.

Each workload is one fixed list of jobs made from the seed. A run repeats
the whole list (a pass) until its time is up, so every job is timed
several times and every run does the same mix of work. A job's
``execute`` is the timed call into smoothgame; its ``check`` runs
afterwards, untimed, and certifies the bound the job is about.

smoothgame receives only the generated configs and point sets. It is
always called through module attributes, so the tracer's patches see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from smoothgame import bernstein, engine, inequalities, polyapprox
from smoothgame.interpolation import SampleSet, q_action

POLICIES = ("widest-gap-midpoint", "uniform-random", "fixed-sequence")

# Bound slack as in the acceptance suite.
STANDARD_SLACK = {1.1: 1e-6, math.inf: 1e-9}
NOISY_SLACK = 1e-9
EXACT_RESIDUAL = 1e-8

# Criterion-7 point sets: at most 6 knots, gaps >= 0.12, slopes within
# +-0.7, action <= 0.65. The pool is the start of that stream at a fixed
# seed, so every workload seed runs the same heavy-tailed mix of builds.
POLY_STREAM_SEED = 2718
POLY_QS = (1.5, 2.0, 3.0)
POLY_EPSILONS = (0.1, 0.01)


@dataclass
class Outcome:
    """A checked job: pass/fail, the outputs that must not drift, layer facts."""

    ok: bool
    record: tuple
    facts: dict = field(default_factory=dict)


@dataclass
class Job:
    units: int  # work units the job completes
    execute: Callable[[Any], Any]  # (context) -> raw result, timed
    check: Callable[[Any], Outcome]  # (raw result) -> outcome, untimed


@dataclass
class Context:
    out_dir: pathlib.Path
    tracer: Any = None  # a layertrace.Tracer while the traced pass runs

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def game(self):
        return self.tracer.game() if self.tracer else contextlib.nullcontext()


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# games


def _game_job(config, bound: float, slack: float) -> Job:
    def execute(ctx: Context):
        with ctx.game():
            tr = engine.run_game(config)
        with ctx.span("engine.write_outputs"):
            paths = engine.write_outputs(tr, ctx.out_dir)
        return tr, paths

    def check(result) -> Outcome:
        tr, paths = result
        blobs = [pathlib.Path(p).read_bytes() for p in paths]
        ok = tr.legality is True and tr.counted_total <= bound + slack
        if config.eta:
            ok = ok and tr.stage_count is not None and tr.stage_count <= config.eta
        facts = {"write_bytes": sum(len(b) for b in blobs), "stage_resets": tr.stage_count or 0}
        record = (tr.counted_total, tr.stage_count, _digest(*blobs))
        return Outcome(ok, record, facts)

    return Job(config.rounds, execute, check)


def standard_jobs(seed: int, tiny: bool) -> list[Job]:
    """linint vs greedy: q = p = 1.1 (ceiling 6/eps) and q = inf, p = 2 (ceiling 1).

    Game lengths are spread evenly over a range so job times form a
    continuum, which keeps their percentiles steady. The seed sets each
    game's seed, which moves the uniform-random policy's queries.
    """
    rng = np.random.default_rng([seed, 1])
    n = 1 if tiny else 8
    settings = ((1.1, 1.1, (40, 80) if tiny else (400, 1200), 6.0 / 0.1),
                (2.0, math.inf, (20, 40) if tiny else (200, 500), 1.0))
    jobs = []
    for p, q, (lo, hi), bound in settings:
        for k in range(n):
            rounds = lo + (hi - lo) * (2 * k + 1) // (2 * n)
            for policy in POLICIES:
                config = engine.GameConfig.make(
                    p=p, q=q, rounds=rounds, eta=0, learner="linint", adversary="greedy",
                    seed=int(rng.integers(0, 2 ** 31)), adversary_options={"query_policy": policy},
                )
                jobs.append(_game_job(config, bound, STANDARD_SLACK[q]))
    return jobs


def noisy_jobs(seed: int, tiny: bool) -> list[Job]:
    """staged vs random-liar at p = q = 2, eta 1, 2, 3: ceiling 12*eta + 6."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for _ in range(1 if tiny else 16):
        for eta in (1, 2, 3):
            config = engine.GameConfig.make(
                p=2.0, q=2.0, rounds=100 if tiny else 2000, eta=eta, learner="staged",
                adversary="random-liar", seed=int(rng.integers(0, 2 ** 31)),
            )
            jobs.append(_game_job(config, 12.0 * eta + 6.0, NOISY_SLACK))
    return jobs


# ---------------------------------------------------------------------------
# polynomial builds


def criterion7_set(rng, q: float, m_max=6, slope_cap=0.7, min_gap=0.12, action_cap=0.65):
    """One draw of the acceptance suite's criterion-7 set generator."""
    while True:
        m = int(rng.integers(2, m_max + 1))
        us = np.sort(rng.uniform(0, 1, m))
        if np.min(np.diff(us)) <= min_gap:
            continue
        slopes = rng.uniform(-slope_cap, slope_cap, m - 1)
        v0 = float(rng.uniform(-0.3, 0.3))
        vs = np.concatenate([[v0], v0 + np.cumsum(slopes * np.diff(us))])
        s = SampleSet(us, vs)
        if q_action(s, q) <= action_cap:
            return s


def poly_pool(seed: int, tiny: bool) -> list[tuple[float, SampleSet]]:
    """Criterion-7 sets, each negated or not and shifted by the workload seed.

    Negation and a vertical shift leave the q-action and every degree the
    construction picks unchanged, so the seed changes the numbers the
    program sees but not the amount of work.
    """
    stream = np.random.default_rng(POLY_STREAM_SEED)
    rng = np.random.default_rng([seed, 3])
    pool = []
    for i in range(2 if tiny else 45):
        q = POLY_QS[i % 3]
        s = criterion7_set(stream, q)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        shift = float(rng.uniform(-0.3, 0.3))
        pool.append((q, SampleSet(s.us, [sign * v + shift for v in s.vs])))
    return pool


def _poly_job(q: float, s: SampleSet) -> Job:
    def execute(ctx: Context):
        built = []
        for eps in POLY_EPSILONS:
            poly, _plan = polyapprox.approx_interpolant_poly(s, q, eps)
            built.append((poly, bernstein.q_action_poly(poly, q)))
        poly = polyapprox.exact_interpolant_poly(s, q)
        built.append((poly, bernstein.q_action_poly(poly, q)))
        return built

    def check(built) -> Outcome:
        base = q_action(s, q)
        ok = True
        for (poly, action), eps in zip(built, POLY_EPSILONS):
            resid = max(abs(poly(u) - v) for u, v in s)
            ok = ok and resid < eps and action < base + eps
        exact, exact_action = built[-1]
        resid = max(abs(exact(u) - v) for u, v in s)
        ok = ok and resid <= EXACT_RESIDUAL and exact_action < 1.0
        record = tuple((p.degree, a) for p, a in built) + (
            _digest(*(p.coeffs.tobytes() for p, _ in built)),)
        return Outcome(ok, record, {"exact_degree": exact.degree})

    return Job(1, execute, check)


def poly_jobs(seed: int, tiny: bool) -> list[Job]:
    return [_poly_job(q, s) for q, s in poly_pool(seed, tiny)]


# ---------------------------------------------------------------------------
# inequality search


def lemma_jobs(seed: int, tiny: bool) -> list[Job]:
    """All six gaps per job, each job at its own seed; budgets as verify-lemmas sets them."""
    budget = 40 if tiny else 500
    budgets = {g: max(10, budget // 20) if g == "cumulative" else budget
               for g in inequalities.GAP_IDS}
    seeds = np.random.default_rng([seed, 4]).integers(0, 2 ** 31, size=2 if tiny else 45)
    return [_lemma_job(int(job_seed), budgets) for job_seed in seeds]


def _lemma_job(job_seed: int, budgets: dict) -> Job:
    def execute(ctx: Context):
        return [inequalities.search_near_violation(g, budget=b, seed=job_seed)
                for g, b in budgets.items()]

    def check(reports) -> Outcome:
        record = tuple((r.gap_id, r.samples, r.min_gap, r.violations) for r in reports)
        return Outcome(all(r.ok for r in reports), record)

    return Job(sum(budgets.values()), execute, check)


JOBS = {"game-standard": standard_jobs, "game-noisy": noisy_jobs,
        "poly-build": poly_jobs, "lemma-search": lemma_jobs}
