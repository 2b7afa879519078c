"""The Kantorovich long way: the reference the builds' coefficients are tested against.

The builds take the Bernstein coefficients of B_{n+1}[G], for G piecewise
linear on the knots and constant outside them, as G at the nodes k/(n+1)
(one ``np.interp``). Here the same coefficients are built the long way, as
the antiderivative of the Kantorovich polynomial of G': G(0) plus the
running sum of G' integrated over each node window. Each window integral
is summed segment by segment from the window's overlap with each knot
segment, so no value of G other than G(0) is read. The running sum is
compensated: a plain cumsum of 2049 terms drifts by up to ~6e-14 x max|g|,
far more than either way rounds each coefficient.
"""

import numpy as np


def window_averages(us, g, n: int) -> np.ndarray:
    """The degree-n Kantorovich coefficients of G': its average over each node window."""
    us = np.asarray(us, dtype=float)
    slopes = np.diff(np.asarray(g, dtype=float)) / np.diff(us)
    nodes = np.arange(n + 2) / (n + 1)
    lo = np.maximum(nodes[:-1, None], us[None, :-1])
    hi = np.minimum(nodes[1:, None], us[None, 1:])
    return (n + 1) * (np.clip(hi - lo, 0.0, None) @ slopes)


def bernstein_coeffs_long_way(us, g, n: int) -> np.ndarray:
    """Coefficients of B_{n+1}[G]: G(0) plus the running sum of G's window integrals."""
    out = np.empty(n + 2)
    total = carry = 0.0
    out[0] = g[0]
    for k, x in enumerate(window_averages(us, g, n) / (n + 1), start=1):
        # Neumaier's compensated sum: carry holds what total's rounding lost
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        out[k] = g[0] + (total + carry)
    return out
