"""Combinatorial helpers for the cost analysis.

The Theorem 4 probabilities are ratios of binomial coefficients whose
upper indices reach ``16**40 - 1``.  Computing ``lgamma`` differences
of such magnitudes loses all precision to cancellation, so the ratio
``C(a, k) / C(n, k)`` is evaluated as ``exp(sum_t log((a-t)/(n-t)))``:
term by term for short sums, and by the Euler-Maclaurin formula of
that same sum for long ones -- arranged so that no intermediate grows
with ``a`` or ``n``, only with ``k``, which keeps it accurate in
float64 for both the huge-``a`` and small-``a`` regimes without a
length-``k`` loop (or an array library to run one).
"""

from __future__ import annotations

import math
from math import comb as comb_exact  # re-export: exact integer binomial
from math import log, log1p

#: Sums shorter than this are added term by term.
_SERIES_MIN_TERMS = 64
#: The series is only applied where ``a - t`` stays at least this large
#: (its first omitted term is below ``1 / (1680 * margin**7)``); the
#: last few terms of a sum that runs closer to ``a`` are added singly.
_SERIES_MARGIN = 32


def log_comb(n: int, k: int) -> float:
    """``log C(n, k)`` via lgamma.

    Suitable when ``n`` is at most a few orders of magnitude above
    ``k``; do **not** difference two of these for astronomically large
    ``n`` (use :func:`log_comb_ratio` instead).
    """
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def log_comb_ratio(a: int, n: int, k: int) -> float:
    """``log( C(a, k) / C(n, k) )`` for ``a <= n``, stable at any scale.

    Equals ``sum_{t=0}^{k-1} log((a - t) / (n - t))``.  Returns ``-inf``
    when ``C(a, k)`` is zero (``k > a``).
    """
    if not 0 <= a <= n:
        raise ValueError("need 0 <= a <= n")
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if k > a:
        return float("-inf")
    if k == 0 or a == n:
        return 0.0
    head = min(k, a - _SERIES_MARGIN) if k >= _SERIES_MIN_TERMS else 0
    total = 0.0
    for t in range(head, k):
        total += log((a - t) / (n - t))
    if head > 0:
        total += _log_ratio_series(a, n, head)
    return total


def _log_ratio_series(a: int, n: int, k: int) -> float:
    """``sum_{t<k} g(t)`` for ``g(t) = log((a-t)/(n-t))`` by
    Euler-Maclaurin: ``integral_0^k g - (g(k)-g(0))/2 + sum_j
    B_2j/(2j)! (g^(2j-1)(k) - g^(2j-1)(0))`` through ``j = 3``.

    With ``delta = n-a``, ``ya = a-k``, ``yn = n-k`` and
    ``u = log((a*yn)/(n*ya)) = log1p(k*delta/(n*ya))`` the integral is
    ``delta*log1p(-k/n) + a*u + k*log1p(-delta/yn)`` -- every factor
    an exact integer quotient, every product of order ``k`` however
    large ``a`` and ``n`` are -- and ``-(g(k)-g(0))/2 = u/2``.
    """
    delta = n - a
    ya, yn = a - k, n - k
    u = log1p(k * delta / (n * ya))
    total = delta * log1p(-k / n) + (a + 0.5) * u + k * log1p(-delta / yn)
    total += (k / (n * yn) - k / (a * ya)) / 12.0
    ra, rya, rn, ryn = 1.0 / a, 1.0 / ya, 1.0 / n, 1.0 / yn
    total += ((rya**3 - ra**3) - (ryn**3 - rn**3)) / 360.0
    total -= ((rya**5 - ra**5) - (ryn**5 - rn**5)) / 1260.0
    return total


def comb_ratio(a: int, n: int, k: int) -> float:
    """``C(a, k) / C(n, k)`` as a float in [0, 1]."""
    log_ratio = log_comb_ratio(a, n, k)
    if log_ratio == float("-inf"):
        return 0.0
    return math.exp(log_ratio)
