"""Property test: the Jensen bound that every polynomial build rests on.

For G piecewise linear on knots in [0, 1] and constant outside them, the
degree-(n+1) Bernstein polynomial B_{n+1}[G] has coefficients G(k/(n+1)),
and its derivative is the Kantorovich polynomial of G'. Jensen's
inequality then bounds its q-action by G's, at any degree and any q >= 1.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from smoothgame.bernstein import QUADRATURE_TOL, BernsteinPolynomial, q_action_poly  # noqa: E402
from smoothgame.interpolation import SampleSet, q_action  # noqa: E402

# knots on a 1/64 grid (0 and 1 included), so slopes stay below 64, and
# values that are not all equal, so that G is not constant
knot_sets = st.lists(st.integers(0, 64), min_size=2, max_size=16, unique=True).flatmap(
    lambda ks: st.tuples(
        st.just(np.sort(ks) / 64.0),
        st.lists(st.floats(-0.5, 0.5), min_size=len(ks), max_size=len(ks)).filter(
            lambda vs: len(set(vs)) > 1),
    )
)


# degree 2 up, and P's coefficients (G at k / degree) not all equal, so that P'
# is not 0 and every example reaches a doubling level of the action quadrature
@settings(max_examples=200, deadline=None)
@given(knot_sets, st.integers(2, 520), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_bernstein_polynomial_of_g_has_at_most_its_action(knots, degree, q):
    us, g = knots
    poly = BernsteinPolynomial(np.interp(np.arange(degree + 1) / degree, us, g))
    assume(np.ptp(poly.coeffs) > 0.0)
    assert q_action_poly(poly, q) <= q_action(SampleSet(us, g), q) + QUADRATURE_TOL
