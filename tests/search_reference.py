"""An earlier form of the cumulative search: the reference it is tested against.

``step_by_step_sequences`` is ``inequalities._lockstep_sequences`` as it
was when each step drew its own x, frac and pick, found each row's
neighbours by a masked max and min over the row's knots, and added the
step's slope-gap terms to the running totals. It reads
``inequalities.ACTION_TOL`` at call time, like the function it checks.
"""

import numpy as np

from smoothgame import inequalities
from smoothgame.inequalities import _SequenceBatch, _uniform_off_knots


def step_by_step_sequences(rng, n: int) -> _SequenceBatch:
    """n sequences drawn as ``random_feasible_sequence`` draws one, and scored.

    Each row draws p from {1.1, 1.5, 2, 1 + 10^U(-3, 0.5)} and a length from
    U{5..50}. The rows are ordered longest first, so the rows still growing
    at step t are the first ones. At each step every such row draws x off
    its knots, takes its nearest knots on either side (a missing one is a
    flat pad at the other's value, masked out of the action increment), and
    picks y in the closed-form q = 1 feasible interval, at an end of it in
    30% of rows. Each row carries its running 1-action; a row above
    1 + ``inequalities.ACTION_TOL`` raises ``ValueError``, as
    ``cumulative_slope_gap`` does.
    """
    pick = rng.integers(0, 4, size=n)
    p = np.choose(pick, [1.1, 1.5, 2.0, 1.0 + 10.0 ** rng.uniform(-3.0, 0.5, size=n)])
    length = np.sort(rng.integers(5, 51, size=n))[::-1]
    us = np.full((n, int(length[0])), np.nan)
    vs = np.full_like(us, np.nan)
    us[:, 0] = rng.uniform(size=n)
    vs[:, 0] = rng.uniform(-0.5, 0.5, size=n)
    action, total = np.zeros(n), np.zeros(n)
    for t in range(1, us.shape[1]):
        live = int(np.count_nonzero(length > t))
        knots_u, knots_v = us[:live, :t], vs[:live, :t]
        x = _uniform_off_knots(rng, knots_u)
        rows = np.arange(live)
        below = np.where(knots_u < x[:, None], knots_u, -np.inf)
        above = np.where(knots_u > x[:, None], knots_u, np.inf)
        j0, j1 = below.argmax(axis=1), above.argmin(axis=1)
        u0, u1 = below[rows, j0], above[rows, j1]
        has_left, has_right = u0 > -np.inf, u1 < np.inf
        v0 = np.where(has_left, knots_v[rows, j0], knots_v[rows, j1])
        v1 = np.where(has_right, knots_v[rows, j1], v0)
        # outside the span the pad makes v1 == v0 and u1 - u0 infinite: slope 0
        total[:live] += np.abs((v1 - v0) / (u1 - u0)) * np.minimum(x - u0, u1 - x) ** p[:live]
        slack = np.maximum(1.0 - action[:live], 0.0)
        half = np.where(has_left & has_right, 0.5 * slack, slack)
        lo, hi = np.minimum(v0, v1) - half, np.maximum(v0, v1) + half
        frac, pick = rng.uniform(size=(2, live))
        # 30% of rows hit an end of the interval, half of them each end
        y = lo + (hi - lo) * np.where(pick < 0.3, pick >= 0.15, frac)
        action[:live] += (np.where(has_left, np.abs(y - v0), 0.0)
                          + np.where(has_right, np.abs(v1 - y), 0.0) - np.abs(v1 - v0))
        if (action[:live] > 1.0 + inequalities.ACTION_TOL).any():
            raise ValueError(f"a prefix of length {t + 1} violates the unit 1-action budget")
        us[:live, t], vs[:live, t] = x, y
    return _SequenceBatch(us, vs, length, p, total)
