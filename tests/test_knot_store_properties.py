"""Property tests: the game's knot store and endpoint solver against references."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from smoothgame.interpolation import (  # noqa: E402
    KnotStore,
    SampleSet,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)

# Knot coordinates from a small grid repeat often (duplicate knots); the
# rest are arbitrary and may fall outside [0, 1]. Values may be non-finite.
coords = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-0.1, 1.1))
values = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.inf, -math.inf, math.nan]))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:  # DuplicateKnotError is a ValueError
        return None, type(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, values), max_size=30), st.lists(st.floats(0.0, 1.0), max_size=5))
def test_store_matches_sample_set_insert(pairs, xs):
    reference = SampleSet()
    store = KnotStore()
    for u, v in pairs:
        inserted, insert_error = _outcome(reference.insert, u, v)
        _, add_error = _outcome(store.add, u, v)
        assert add_error is insert_error
        if inserted is not None:
            reference = inserted
        assert tuple(store.us) == reference.us and tuple(store.vs) == reference.vs
        assert store.sup_slope == q_action(reference, math.inf)
    assert store.snapshot() == reference
    for x in xs:
        assert eval_interpolant(store, x) == eval_interpolant(reference, x)


@st.composite
def solve_inputs(draw):
    # knots on a 1/512 grid, the query halfway between grid points
    ks = sorted(draw(st.lists(st.integers(0, 512), min_size=1, max_size=8, unique=True)))
    vs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(ks), max_size=len(ks)))
    x = (draw(st.integers(0, 511)) + 0.5) / 512
    slack = draw(st.floats(1e-3, 1.0))
    return SampleSet([k / 512 for k in ks], vs), x, slack


@settings(max_examples=200, deadline=None)
@given(solve_inputs(), st.sampled_from([2.0 - 1e-12, 2.0 + 1e-12]))
def test_generic_solver_matches_q2_closed_form(inputs, q):
    s, x, slack = inputs
    exact = feasible_reply_interval(s, x, 2.0, q_action(s, 2.0) + slack)
    base = q_action(s, q)
    generic = feasible_reply_interval(s, x, q, base + slack, base_action=base)
    assert generic.lo == pytest.approx(exact.lo, abs=1e-10)
    assert generic.hi == pytest.approx(exact.hi, abs=1e-10)
