"""Property tests: growing a knot set, and the reply intervals, against references."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from smoothgame.interpolation import (  # noqa: E402
    DuplicateKnotError,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)

# Knot coordinates from a small grid repeat often (duplicate knots); the
# rest are arbitrary and may fall outside [0, 1] or be NaN. Values may be
# non-finite.
coords = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]), st.floats(-0.1, 1.1))
values = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.inf, -math.inf, math.nan]))


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:  # DuplicateKnotError is a ValueError
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, values), max_size=30), st.lists(st.floats(0.0, 1.0), max_size=5))
def test_add_matches_an_independent_reference(pairs, xs):
    accepted: dict[float, float] = {}
    s = SampleSet()
    for u, v in pairs:
        if not 0.0 <= u <= 1.0 or not math.isfinite(v):
            expected = ValueError
        elif u in accepted:
            expected = DuplicateKnotError
        else:
            expected = None
            accepted[u] = v
        assert _raised(s.add, u, v) is expected
        us = sorted(accepted)
        vs = [accepted[u] for u in us]
        assert (s.us, s.vs) == (us, vs)
    for x in xs:
        expected = float(np.interp(x, s.us, s.vs)) if len(s) else 0.0
        assert eval_interpolant(s, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


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


@st.composite
def interval_inputs(draw, interior: bool):
    # knots strictly inside a 1/512 grid, the query halfway between grid
    # points: between the extreme knots, or beyond one of them
    ks = sorted(draw(st.lists(st.integers(1, 511), min_size=2 if interior else 1,
                              max_size=8, unique=True)))
    vs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(ks), max_size=len(ks)))
    if interior:
        j = draw(st.integers(ks[0], ks[-1] - 1))
    else:
        j = draw(st.one_of(st.integers(0, ks[0] - 1), st.integers(ks[-1], 511)))
    slack = draw(st.floats(0.0, 1.0))
    return SampleSet([k / 512 for k in ks], vs), (j + 0.5) / 512, slack


# An endpoint may overspend the slack by ENDPOINT_TOL and a reply STEP
# beyond it must overspend it, both relative to max(1, budget). Rounding
# is ~1e-12 relative here, and one step raises the increment by >= STEP.
ENDPOINT_TOL = 1e-10
STEP = 1e-8


def _check_closed_form_endpoints(inputs, q):
    s, x, slack = inputs
    base = q_action(s, q)
    budget = base + slack
    scale = max(1.0, budget)
    spare = budget - base
    box = feasible_reply_interval(s, x, q, budget)
    assert box.lo <= box.hi
    for y, outward in ((box.lo, -1.0), (box.hi, +1.0)):
        assert action_increment(s, x, y, q) <= spare + ENDPOINT_TOL * scale
        assert action_increment(s, x, y + outward * STEP * scale, q) > spare


@settings(max_examples=200, deadline=None)
@given(interval_inputs(interior=True))
def test_q1_interior_endpoints_spend_the_slack(inputs):
    _check_closed_form_endpoints(inputs, 1.0)


@settings(max_examples=200, deadline=None)
@given(interval_inputs(interior=False))
def test_q1_exterior_endpoints_spend_the_slack(inputs):
    _check_closed_form_endpoints(inputs, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda interior: interval_inputs(interior=interior)))
def test_sup_norm_endpoints_spend_the_slack(inputs):
    _check_closed_form_endpoints(inputs, math.inf)


# action_increment sums the one or two segments the new knot touches; the
# difference of the two totals rounds each of up to nine terms, so the two
# agree to INCREMENT_TOL relative to max(1, action).
INCREMENT_TOL = 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 512), max_size=8, unique=True),
    st.data(),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
)
def test_action_increment_is_a_difference_of_actions(ks, data, q):
    ks = sorted(ks)
    vs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(ks), max_size=len(ks)))
    s = SampleSet([k / 512 for k in ks], vs)
    x = (data.draw(st.integers(0, 511)) + 0.5) / 512
    y = data.draw(st.floats(-2.0, 2.0))
    base = q_action(s, q)
    grown = q_action(s.insert(x, y), q)
    expected = grown - base
    inc = action_increment(s, x, y, q)
    assert abs(inc - expected) <= INCREMENT_TOL * max(1.0, grown)
    assert action_increment(s, x, y, q, base_action=base) == inc
