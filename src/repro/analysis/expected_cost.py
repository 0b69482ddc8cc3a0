"""Theorems 3, 4 and 5: communication cost of a join.

``P_i(n)`` is the probability that a joining node's *notification
level* is ``i``: among ``n`` uniformly random distinct IDs (drawn from
the ``b**d - 1`` IDs other than the joiner's), some node shares the
rightmost ``i`` digits with the joiner but none shares ``i + 1``.

The paper states ``P_i(n)`` as a sum over the number ``k`` of nodes
matching exactly ``i`` digits (Theorem 4); by Vandermonde's identity
that sum telescopes to

    P_i(n) = [ C(b^d - b^{d-i-1}, n) - C(b^d - b^{d-i}, n) ] / C(b^d - 1, n)

i.e. ``Q(i+1) - Q(i)`` with ``Q(i) = P(no node shares >= i digits)``.
Both forms are implemented; tests verify they agree exactly on small
parameters and that the closed form reproduces the paper's printed
bounds (8.001 and 6.986) on the Figure 15(b) configurations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.analysis.combinatorics import comb_exact, comb_ratio


def theorem3_bound(num_digits: int) -> int:
    """Theorem 3: at most ``d + 1`` CpRstMsg + JoinWaitMsg per join."""
    return num_digits + 1


def _check_params(n: int, base: int, num_digits: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1 (V is non-empty)")
    if base < 2 or num_digits < 1:
        raise ValueError("need base >= 2 and num_digits >= 1")
    if n > base ** num_digits - 1:
        raise ValueError("n exceeds the number of available IDs")


def _no_match_probability(n: int, base: int, num_digits: int, i: int) -> float:
    """``Q(i)``: probability that none of ``n`` random distinct IDs
    shares the rightmost ``i`` digits with the joiner."""
    if i == 0:
        return 0.0  # every ID shares the empty suffix
    total = base ** num_digits - 1
    non_matching = base ** num_digits - base ** (num_digits - i)
    return comb_ratio(non_matching, total, n)


def level_distribution(n: int, base: int, num_digits: int) -> List[float]:
    """``[P_0(n), ..., P_{d-1}(n)]`` via the Vandermonde closed form."""
    return list(_level_distribution(n, base, num_digits))


@lru_cache(maxsize=64)
def _level_distribution(
    n: int, base: int, num_digits: int
) -> Tuple[float, ...]:
    # Memoised (as an immutable tuple): Theorems 4 and 5 are evaluated
    # back to back for the same (n, b, d) by the auditor and the sweeps.
    _check_params(n, base, num_digits)
    q = [
        _no_match_probability(n, base, num_digits, i)
        for i in range(num_digits + 1)
    ]
    # Q(d) involves all b^d - 1 foreign IDs, none of which shares all d
    # digits, so it is exactly 1.
    assert abs(q[num_digits] - 1.0) < 1e-12
    return tuple(q[i + 1] - q[i] for i in range(num_digits))


def level_distribution_naive(
    n: int, base: int, num_digits: int
) -> List[float]:
    """The paper's literal Theorem 4 formula, in exact integer
    arithmetic.  Only feasible for small ``base ** num_digits``."""
    _check_params(n, base, num_digits)
    total_ids = base ** num_digits - 1
    denominator = comb_exact(total_ids, n)
    out: List[float] = []
    for i in range(num_digits - 1):
        matching_exactly = (base - 1) * base ** (num_digits - 1 - i)
        fewer_matching = base ** num_digits - base ** (num_digits - i)
        numerator = 0
        for k in range(1, min(n, matching_exactly) + 1):
            numerator += comb_exact(matching_exactly, k) * comb_exact(
                fewer_matching, n - k
            )
        out.append(numerator / denominator)
    out.append(1.0 - sum(out))
    return out


def expected_join_noti(n: int, base: int, num_digits: int) -> float:
    """Theorem 4: ``E(J)`` for a single node joining ``|V| = n``.

    ``E(J) = sum_i (n / b^i) P_i(n) - 1``.
    """
    distribution = level_distribution(n, base, num_digits)
    return (
        sum(
            (n / base ** i) * p_i
            for i, p_i in enumerate(distribution)
        )
        - 1.0
    )


def expected_join_noti_upper_bound(
    n: int, m: int, base: int, num_digits: int
) -> float:
    """Theorem 5: upper bound of ``E(J)`` when ``m`` nodes join
    ``|V| = n`` concurrently.

    ``sum_i ((n + m) / b^i) P_i(n)``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    distribution = level_distribution(n, base, num_digits)
    return sum(
        ((n + m) / base ** i) * p_i
        for i, p_i in enumerate(distribution)
    )
