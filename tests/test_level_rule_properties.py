"""Property tests: the rule a doubling level lays over [0, 1] around the zeros of P'.

``bernstein._fresh_panels(levels, zeros)`` keeps each level's uniform panels
clear of every zero and replaces the others by panels that end at a zero.
The zero maps drawn here mix free zeros, zeros on or near a uniform edge
(at and around a third of a panel from it), clustered pairs and end zeros
of order k. Zeros inside [0, 1] keep ``polynomial_roots``'s 1e-12 from
either end. A certificate's opening pair of levels, laid in one pass, is
checked bit for bit against ``level_rule``, which lays each level over all
its edges.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from quadrature_reference import level_rule  # noqa: E402

from smoothgame import bernstein  # noqa: E402

QS = (1.01, 1.5, 2.5, 3.0)
INSIDE = 1e-12
# offsets from a uniform edge, in panels: on it, a rounding away, and at a third
THIRD = 1.0 / 3.0
EDGE_OFFSETS = [0.0, 1e-15, -1e-15, 1e-9, THIRD, -THIRD, THIRD - 1e-12, THIRD + 1e-12, -THIRD + 1e-12]


@st.composite
def levels(draw):
    panels = draw(st.integers(8, 1024))
    q = draw(st.sampled_from(QS))
    zeros = {}
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "edge", "pair"]))
        if kind == "edge":
            offset = draw(st.one_of(st.sampled_from(EDGE_OFFSETS), st.floats(-0.5, 0.5)))
            s = (draw(st.integers(0, panels)) + offset) / panels
        else:
            s = draw(st.floats(INSIDE, 1.0 - INSIDE))
        if kind == "pair":
            zeros[s + draw(st.floats(1e-15, 1e-2)) / panels] = q
        zeros[s] = q
    zeros = {s: alpha for s, alpha in zeros.items() if INSIDE < s < 1.0 - INSIDE}
    for end in (0.0, 1.0):
        order = draw(st.integers(0, 3))
        if order and q % 1:
            zeros[end] = order * q
    return panels, zeros


@settings(max_examples=300, deadline=None)
@given(levels())
def test_the_level_rule_keeps_clear_of_every_zero_and_tiles_the_rest(level):
    panels, zeros = level
    (fresh,), xs, ws, ends = bernstein._fresh_panels((panels,), zeros)
    assert ends == [xs.size]
    grid = np.linspace(0.0, 1.0, panels + 1)
    s = np.array(sorted(zeros))

    # the uniform panels kept stay a third of a panel from every zero
    kept = np.flatnonzero(~fresh)
    if s.size and kept.size:
        gap = np.maximum(grid[kept, None] - s, s - grid[kept + 1, None]) * panels
        assert gap.min() >= THIRD - 1e-9

    # each replacement panel is its 20 nodes, then its right end at weight 0
    # up to whole tiles, so no tile of 8 nodes spans two panels
    block = bernstein._PANEL_ORDER + (-bernstein._PANEL_ORDER % bernstein._TILE)
    assert block % bernstein._TILE == 0 and xs.size % block == 0 and xs.shape == ws.shape
    nodes, pads = np.split(xs.reshape(-1, block), [bernstein._PANEL_ORDER], axis=1)
    weights, pad_weights = np.split(ws.reshape(-1, block), [bernstein._PANEL_ORDER], axis=1)
    his = pads[:, 0]
    assert np.all(pads == his[:, None]) and np.all(pad_weights == 0.0) and np.all(weights > 0.0)
    assert np.all(np.diff(xs) >= 0.0)

    # the replacement panels tile the runs of masked panels in order: each
    # starts where the one before it ended, or at the start of the next run
    runs = np.flatnonzero(np.diff(np.concatenate(([0], fresh.view(np.int8), [0])))).reshape(-1, 2)
    los, run, left = [], 0, None
    for hi in his.tolist():
        if left is None:
            left = grid[runs[run, 0]]
        los.append(left)
        assert left < hi <= grid[runs[run, 1]]
        if hi == grid[runs[run, 1]]:
            run, left = run + 1, None
        else:
            left = hi
    assert run == len(runs) and left is None
    los = np.array(los)

    # every node lies in its panel, every panel ends at a zero, and every zero
    # is a panel edge
    assert np.all((nodes >= los[:, None]) & (nodes <= his[:, None]))
    assert all(lo in zeros or hi in zeros for lo, hi in zip(los.tolist(), his.tolist()))
    assert set(zeros) <= set(los.tolist()) | set(his.tolist())


@settings(max_examples=300, deadline=None)
@given(levels())
def test_the_opening_pair_is_each_level_laid_over_all_its_edges(level):
    panels, zeros = level
    masks, xs, ws, ends = bernstein._fresh_panels((panels, 2 * panels), zeros)
    assert ends[-1] == xs.size == ws.size
    for mask, nodes, weights, count in zip(masks, np.split(xs, ends[:1]), np.split(ws, ends[:1]),
                                           (panels, 2 * panels)):
        ref_mask, ref_nodes, ref_weights = level_rule(count, zeros)
        assert np.array_equal(mask, ref_mask)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
