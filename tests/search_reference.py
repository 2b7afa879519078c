"""The scalar searches' refinement before block draws: the reference it is tested against.

``one_draw_search`` is ``inequalities._search_scalar`` as it was when each
trial drew its perturbations one ``rng.uniform(-1.0, 1.0)`` call per
parameter, trial by trial and key by key. The scan, the step sizes, the
shrinking scale and the violation count are those of
``smoothgame.inequalities``. It also counts the trials that lowered the
best gap and the trials whose gap raised ``ValueError``, so a test can show
that both paths were taken.
"""

from smoothgame import inequalities
from smoothgame.inequalities import DEFAULT_TOL, GapReport


def one_draw_search(gap_id: str, budget: int, rng) -> tuple[GapReport, dict]:
    scalar_gap, sampler = inequalities._SCALAR_SEARCHES[gap_id]
    refine_budget = budget // 4

    def draw(rng, n):
        params = sampler(rng, n)
        return scalar_gap(**params), lambda i: {k: float(v[i]) for k, v in params.items()}

    best, best_params, violations = inequalities._scan(budget - refine_budget, rng, draw)
    stats = {"improved": 0, "raised": 0}
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
                stats["raised"] += 1
                continue
            if g < best:
                stats["improved"] += 1
                best = g
                center = trial
                best_params = dict(trial)
            if g < -DEFAULT_TOL:
                violations += 1
        done_ref += step
        scale *= 0.7
    return GapReport(gap_id, budget, best, best_params, violations), stats
