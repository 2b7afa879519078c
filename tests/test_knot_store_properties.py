"""Property tests: growing a knot set, and the reply intervals, against references."""

import math
from bisect import bisect_left

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from smoothgame.interpolation import (  # noqa: E402
    DuplicateKnotError,
    SampleSet,
    action_increment,
    eval_interpolant,
    eval_interpolant_many,
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
    assert generic == pytest.approx(exact, abs=1e-10)


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
    lo, hi = feasible_reply_interval(s, x, q, budget)
    assert lo <= hi
    for y, outward in ((lo, -1.0), (hi, +1.0)):
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


# The one-lookup paths against the multi-lookup code they replaced, kept
# here as references: equal results bit for bit, errors of the same type.


def _reference_eval(s, x):
    if not s.us:
        return 0.0
    if x <= s.us[0]:
        return s.vs[0]
    if x >= s.us[-1]:
        return s.vs[-1]
    i = bisect_left(s.us, x)
    if s.us[i] == x:
        return s.vs[i]
    u0, u1 = s.us[i - 1], s.us[i]
    v0, v1 = s.vs[i - 1], s.vs[i]
    return v0 + (x - u0) * (v1 - v0) / (u1 - u0)


def _reference_q2_interval(s, x, slack):
    center = _reference_eval(s, x)
    i = bisect_left(s.us, x)
    if i == 0:
        r = math.sqrt(slack * (s.us[0] - x))
    elif i == len(s.us):
        r = math.sqrt(slack * (x - s.us[-1]))
    else:
        a = x - s.us[i - 1]
        b = s.us[i] - x
        r = math.sqrt(slack * a * b / (a + b))
    return center - r, center + r


def _reference_increment(s, x, y, q, base_action=None):
    m = len(s.us)
    if m == 0:
        return 0.0
    i = bisect_left(s.us, x)
    if i < m and s.us[i] == x:
        raise DuplicateKnotError(x)
    if math.isinf(q):
        old = q_action(s, q) if base_action is None else base_action
        new = old
        if i > 0:
            new = max(new, abs(y - s.vs[i - 1]) / (x - s.us[i - 1]))
        if i < m:
            new = max(new, abs(s.vs[i] - y) / (s.us[i] - x))
        return new - old
    try:  # a q-th power that overflows makes the increment inf
        if i == 0:
            gap, dv = s.us[0] - x, s.vs[0] - y
            return 0.0 if dv == 0.0 else gap * abs(dv / gap) ** q
        if i == m:
            gap, dv = x - s.us[-1], y - s.vs[-1]
            return 0.0 if dv == 0.0 else gap * abs(dv / gap) ** q
        u0, u1 = s.us[i - 1], s.us[i]
        v0, v1 = s.vs[i - 1], s.vs[i]
        a, b = x - u0, u1 - x
        old = 0.0 if v1 == v0 else (a + b) * abs((v1 - v0) / (a + b)) ** q
        new = 0.0
        if y != v0:
            new += a * abs((y - v0) / a) ** q
        if v1 != y:
            new += b * abs((v1 - y) / b) ** q
    except OverflowError:
        return math.inf
    return new - old


def _reference_add(us, vs, u, v):
    if not 0.0 <= u <= 1.0 or not math.isfinite(v):
        raise ValueError(u)
    i = bisect_left(us, u)
    if i < len(us) and us[i] == u:
        raise DuplicateKnotError(u)
    us.insert(i, u)
    vs.insert(i, v)


@st.composite
def lookup_inputs(draw):
    # arbitrary knots in [0, 1] and a query on a knot, or left of, right of
    # or inside their span
    us = sorted(set(draw(st.lists(st.floats(0.0, 1.0), max_size=12))))
    vs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(us), max_size=len(us)))
    if us and draw(st.booleans()):
        return SampleSet(us, vs), draw(st.sampled_from(us))
    lo, hi = draw(st.sampled_from([(0.0, us[0]), (us[-1], 1.0), (us[0], us[-1])])) if us else (0.0, 1.0)
    return SampleSet(us, vs), draw(st.floats(lo, hi))


def _outcome(fn, *args):
    # the value's repr (bit-exact, NaN equal to NaN) or the error's type;
    # a slope across a gap near 1e-300 whose q-th power overflows gives inf
    try:
        return repr(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(lookup_inputs(), st.floats(-3.0, 3.0), st.floats(0.0, 2.0),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_one_lookup_paths_match_the_multi_lookup_reference(inputs, y, slack, q):
    s, x = inputs
    assert eval_interpolant(s, x) == _reference_eval(s, x)
    if s.us and x not in s.us:
        # at zero slack the q = 2 interval is its centre alone
        centre = feasible_reply_interval(s, x, 2.0, 0.0, base_action=0.0)
        assert centre == (eval_interpolant(s, x),) * 2
        lo, hi = feasible_reply_interval(s, x, 2.0, slack, base_action=0.0)
        assert (lo, hi) == _reference_q2_interval(s, x, slack)
    elif s.us:
        assert _outcome(feasible_reply_interval, s, x, 2.0, 1.0) is DuplicateKnotError
    assert _outcome(action_increment, s, x, y, q) == _outcome(_reference_increment, s, x, y, q)
    base = 1.0 if math.isinf(q) else None  # a running sup the set need not have
    assert (_outcome(action_increment, s, x, y, q, base)
            == _outcome(_reference_increment, s, x, y, q, base))
    us, vs = s.us[:], s.vs[:]
    assert _raised(s.add, x, y) is _raised(_reference_add, us, vs, x, y)
    assert (s.us, s.vs) == (us, vs)


def test_q2_centre_is_eval_interpolant_bit_for_bit():
    # a centre computed in another order differs in ~0.3% of interior cases,
    # too rarely for the property test above to see
    rng = np.random.default_rng(14)
    for _ in range(300):
        us = np.unique(rng.uniform(0.0, 1.0, int(rng.integers(1, 12))))
        s = SampleSet(us, rng.uniform(-1.0, 1.0, len(us)))
        xs = np.concatenate([rng.uniform(0.0, s.us[0], 5), rng.uniform(s.us[-1], 1.0, 5),
                             rng.uniform(s.us[0], s.us[-1], 40)])
        for x in map(float, xs):
            if x in s.us:
                continue
            lo, hi = feasible_reply_interval(s, x, 2.0, 0.0, base_action=0.0)
            assert lo == hi == eval_interpolant(s, x) == _reference_eval(s, x)
            y = float(rng.uniform(-2.0, 2.0))
            for q in (1.5, 2.0, math.inf):
                assert action_increment(s, x, y, q) == _reference_increment(s, x, y, q)


@st.composite
def many_eval_inputs(draw):
    # an empty, one-knot or 2-64-knot set and queries on its knots, left of,
    # right of and inside its span, at times one outside [0, 1] or NaN
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 64)))
    us = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))))
    vs = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(us), max_size=len(us)))
    where = [st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0])]
    if us:
        where += [st.sampled_from(us), st.floats(0.0, us[0]), st.floats(us[-1], 1.0)]
    xs = draw(st.lists(st.one_of(where), max_size=40))
    if draw(st.booleans()):
        bad = draw(st.sampled_from([math.nan, -1e-300, 1.0 + 2.0 ** -52, -2.0, 3.0, math.inf]))
        xs.insert(draw(st.integers(0, len(xs))), bad)
    return SampleSet(us, vs), xs


def _each(s, xs):
    # eval_interpolant one x at a time: the values' reprs (bit-exact, -0.0
    # apart from 0.0), or the first error's type and message
    try:
        return [repr(eval_interpolant(s, x)) for x in xs]
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(many_eval_inputs())
def test_eval_interpolant_many_is_eval_interpolant_bit_for_bit(inputs):
    s, xs = inputs
    try:
        got = eval_interpolant_many(s, xs)
    except ValueError as exc:
        assert _each(s, xs) == (type(exc), str(exc))
    else:
        assert all(type(v) is float for v in got)
        assert [repr(v) for v in got] == _each(s, xs)


def test_eval_interpolant_many_between_knots_bit_for_bit():
    # another operation order differs in a small share of cases between
    # knots, so many are checked
    rng = np.random.default_rng(15)
    for _ in range(200):
        us = np.unique(rng.uniform(0.0, 1.0, int(rng.integers(2, 65))))
        s = SampleSet(us, rng.uniform(-1.0, 1.0, len(us)))
        xs = rng.uniform(0.0, 1.0, 100).tolist()
        assert eval_interpolant_many(s, xs) == [eval_interpolant(s, x) for x in xs]
