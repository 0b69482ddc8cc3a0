"""Unit tests for combinatorial helpers."""

import math

import pytest

from repro.analysis.combinatorics import (
    comb_exact,
    comb_ratio,
    log_comb,
    log_comb_ratio,
)


class TestLogComb:
    def test_matches_exact_small(self):
        for n in range(1, 20):
            for k in range(n + 1):
                assert log_comb(n, k) == pytest.approx(
                    math.log(comb_exact(n, k)), abs=1e-9
                )

    def test_out_of_range_is_neg_inf(self):
        assert log_comb(5, 6) == float("-inf")
        assert log_comb(5, -1) == float("-inf")


class TestLogCombRatio:
    def test_matches_exact_small(self):
        for a in range(1, 15):
            for n in range(a, 18):
                for k in range(0, a + 1):
                    expected = math.log(comb_exact(a, k) / comb_exact(n, k))
                    assert log_comb_ratio(a, n, k) == pytest.approx(
                        expected, abs=1e-9
                    )

    def test_zero_when_a_equals_n(self):
        assert log_comb_ratio(100, 100, 7) == 0.0

    def test_neg_inf_when_k_exceeds_a(self):
        assert log_comb_ratio(3, 10, 5) == float("-inf")

    def test_large_k_numpy_path_matches_python_path(self):
        # k >= 64 goes through numpy; compare against exact integers.
        a, n, k = 500, 900, 100
        expected = math.log(comb_exact(a, k)) - math.log(comb_exact(n, k))
        assert log_comb_ratio(a, n, k) == pytest.approx(expected, rel=1e-10)

    def test_astronomical_upper_indices(self):
        """The b=16, d=40 regime: upper indices near 16**40."""
        n_total = 16**40 - 1
        a = 16**40 - 16**39
        value = log_comb_ratio(a, n_total, 100_000)
        # P(no node shares >= 1 digit) = (15/16)^100000 approximately.
        assert value == pytest.approx(100_000 * math.log(15 / 16), rel=1e-9)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            log_comb_ratio(10, 5, 2)  # a > n
        with pytest.raises(ValueError):
            log_comb_ratio(5, 10, 11)  # k > n
        with pytest.raises(ValueError):
            log_comb_ratio(-1, 10, 2)


class TestCombRatio:
    def test_in_unit_interval(self):
        assert 0.0 <= comb_ratio(50, 100, 10) <= 1.0

    def test_zero_when_impossible(self):
        assert comb_ratio(3, 10, 5) == 0.0

    def test_one_when_equal(self):
        assert comb_ratio(10, 10, 5) == 1.0


def _exact_loop(a, n, k):
    """The definition, term by term: every quotient an exactly rounded
    integer division, the terms summed without accumulated error."""
    return math.fsum(math.log((a - t) / (n - t)) for t in range(k))


class TestLogCombRatioSeries:
    """Sums of 64 terms and more are evaluated in closed form (no
    array library, no length-``k`` loop); it must agree with the loop
    over every range Theorems 4 and 5 are evaluated on -- to within
    the loop's own rounding: each of its ``k`` quotients is a double
    near 1, good to ``2**-53``."""

    @pytest.mark.parametrize(
        "base, digits",
        [(2, 10), (4, 4), (4, 9), (16, 8), (16, 40), (36, 12)],
    )
    def test_theorem4_arguments(self, base, digits):
        total = base**digits - 1
        for nodes in (64, 65, 200, 999, 4096, 9900, 20_000):
            if nodes > total:
                continue
            for shared in range(1, digits + 1):
                a = base**digits - base ** (digits - shared)
                if nodes > a:
                    assert log_comb_ratio(a, total, nodes) == float("-inf")
                    continue
                expected = _exact_loop(a, total, nodes)
                assert log_comb_ratio(a, total, nodes) == pytest.approx(
                    expected, rel=1e-13, abs=1e-15 * nodes
                )

    def test_sums_that_run_down_to_the_last_terms(self):
        # k close to a: the closed form hands the tail back to the loop.
        import random

        rng = random.Random(0)
        for _ in range(300):
            n = rng.randrange(64, 6000)
            a = rng.randrange(64, n + 1)
            k = rng.randrange(max(64, a - 40), a + 1)
            assert log_comb_ratio(a, n, k) == pytest.approx(
                _exact_loop(a, n, k), rel=1e-13, abs=1e-15 * k
            )

    def test_against_exact_binomials(self):
        import random

        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(64, 3000)
            a = rng.randrange(64, n + 1)
            k = rng.randrange(1, a + 1)
            expected = math.log(comb_exact(a, k)) - math.log(comb_exact(n, k))
            assert log_comb_ratio(a, n, k) == pytest.approx(
                expected, rel=1e-11, abs=1e-11
            )

    def test_astronomical_indices_keep_the_small_terms(self):
        """``a/n = 1 - 255/16**40``: every quotient of the loop rounds
        to 1.0 and its sum to 0; the closed form keeps the value, which
        is ``-k * (n - a) / n`` to first order."""
        total = 16**40 - 1
        a = 16**40 - 16**2
        assert _exact_loop(a, total, 50_000) == 0.0
        assert log_comb_ratio(a, total, 50_000) == pytest.approx(
            -50_000 * 255 / total, rel=1e-9, abs=0.0
        )
