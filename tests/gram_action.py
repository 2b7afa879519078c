"""Exact q = 2 action of a Bernstein polynomial: the Gram-matrix oracle.

For P of degree n, P' has Bernstein coefficients a_0..a_m (m = n - 1), and

    integral of P'(x)^2 over [0, 1] = a^T G a,
    G_ij = C(m,i) C(m,j) / ((2m + 1) C(2m, i+j)),

the exact inner products of the degree-m basis. Every G_ij lies in [0, 1]
and is built in log space; no evaluator, root search or quadrature is
involved, so this oracle is independent of everything ``q_action_poly``
uses.
"""

import numpy as np
from scipy.special import gammaln

from smoothgame.bernstein import BernsteinPolynomial

_ROWS = 256  # rows of G formed at a time


def _log_binom(n: int) -> np.ndarray:
    k = np.arange(n + 1)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def gram_action(poly: BernsteinPolynomial) -> float:
    """The integral of (P')^2 over [0, 1], from the Bernstein Gram matrix."""
    a = poly.derivative().coeffs
    m = len(a) - 1
    j = np.arange(m + 1)
    log_row = _log_binom(m) - 0.5 * np.log(2 * m + 1)
    log_sum = _log_binom(2 * m)
    total = 0.0
    for lo in range(0, m + 1, _ROWS):
        i = j[lo : lo + _ROWS, None]
        log_g = log_row[i] + log_row[None, :] - log_sum[i + j]
        total += float(a[lo : lo + _ROWS] @ (np.exp(log_g) @ a))
    return total
