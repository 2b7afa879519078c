"""The one-layer staged learner against its two-layer reference.

``StagedLearner`` keeps its stage's pairs in one ``SampleSet`` and runs the
staged rules itself; ``staged_reference.TwoLayerStagedLearner`` is the form
it replaced, which delegated to an inner ``LinintLearner``. Both are driven
with the same (x, y) streams, and every round must give the same
prediction bit for bit, the same mimicked flag, the same stage resets and
the same knot set, bands and perceived error.

A stream step is (kind, u, y): kind 0 queries u, kind 1 a quarter point
(0, 1/4, 1/2, 3/4 or 1), kind 2 repeats an earlier query. The values are
mostly near ones, within 0.45 of each other's median, and sometimes far
ones (the band's half-width is 1/2 at q >= 2), so streams hit every reset
trigger: a revealed value out of band, the interpolant out of band, and
the error budget.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from smoothgame.learners import (  # noqa: E402
    BUDGET_BLOWN,
    PREDICTION_OUT,
    REVEALED_OUT,
    StagedLearner,
    interval_of,
)
from staged_reference import TwoLayerStagedLearner  # noqa: E402

QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)
NEAR = (0.0, 0.2, -0.2, 0.3, -0.3, 0.45, -0.45)
FAR = (0.55, -0.55, 0.9, 2.0, -3.0)


def drive(eta: int, q: float, steps) -> list:
    """Run both learners on ``steps``, compare them each round; the new one's resets."""
    ref = TwoLayerStagedLearner(eta, 2.0, q=q)
    new = StagedLearner(eta, 2.0, q=q)
    asked = []
    for kind, u, y in steps:
        if kind == 2 and asked:
            x = asked[int(u * len(asked)) % len(asked)]
        elif kind == 1:
            x = QUARTERS[int(u * len(QUARTERS)) % len(QUARTERS)]
        else:
            x = u
        asked.append(x)
        if ref.global_center is None:
            expected, mimicked = ref.predict(x), False
        else:
            expected, mimicked = ref.staged_predict(x)
        band = new.bands[interval_of(x) - 1]
        assert (new.global_center is not None and band is not None) == mimicked
        assert repr(new.predict(x)) == repr(expected)
        ref.observe(x, y)
        new.observe(x, y)
        assert new.stage_resets == ref.stage_resets
        assert repr(new.known) == repr(ref.inner.known)
        assert new.bands == ref.bands and new.first_values == ref.first_values
        assert repr(new.perceived_error_sum) == repr(ref.perceived_error_sum)
        assert new.global_center == ref.global_center
    assert [t for t, _ in new.resets] == sorted(t for t, _ in new.resets)
    return new.resets


unit = st.floats(0.0, 1.0)
value = st.one_of(st.sampled_from(NEAR), st.sampled_from(FAR), st.floats(-3.0, 3.0))
step = st.tuples(st.integers(0, 2), unit, value)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.sampled_from([2.0, 3.0, 1.5]), st.lists(step, max_size=120))
def test_one_layer_matches_two_layers(eta, q, steps):
    drive(eta, q, steps)


def seeded_steps(rng, n: int) -> list:
    kinds = rng.choice(3, size=n, p=[0.7, 0.15, 0.15])
    far = rng.uniform(size=n) < 0.05
    values = np.where(far, rng.choice(FAR, size=n), rng.choice(NEAR, size=n))
    return [(int(k), float(u), float(y)) for k, u, y in zip(kinds, rng.uniform(size=n), values)]


@pytest.mark.parametrize("eta", [1, 2, 3])
def test_streams_hit_every_trigger(eta):
    # seeded streams of the property test's kind fire each trigger at each eta,
    # and the two learners agree on all of them
    rng = np.random.default_rng(eta)
    fired = set()
    for _ in range(20):
        fired.update(trigger for _, trigger in drive(eta, 2.0, seeded_steps(rng, 150)))
    assert fired == {REVEALED_OUT, PREDICTION_OUT, BUDGET_BLOWN}
