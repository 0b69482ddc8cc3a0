"""Fast-path vs specification equivalence for NodeId.

The optimized ``csuf_len`` / cached ``__str__`` / cached ``to_int`` /
ordering operators must agree with the plain digit loops below on
every input -- the fast paths are pure speedups, never behaviour
changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.idspace import IdSpace

DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def naive_csuf_len(a, b):
    """``|csuf(a, b)|``: count equal digits from the rightmost one."""
    n = 0
    for x, y in zip(a.digits, b.digits):
        if x != y:
            break
        n += 1
    return n


def naive_str(a):
    """Printable form, most significant digit first."""
    return "".join(DIGIT_CHARS[dg] for dg in reversed(a.digits))


def naive_to_int(a):
    """Numeric value of the digit vector in base ``a.base``."""
    value = 0
    for dg in reversed(a.digits):
        value = value * a.base + dg
    return value


BASES = st.sampled_from([2, 3, 4, 8, 16])


@st.composite
def id_pairs(draw):
    base = draw(BASES)
    num_digits = draw(st.integers(2, 8))
    space = IdSpace(base, num_digits)
    x = space.from_int(draw(st.integers(0, space.size - 1)))
    y = space.from_int(draw(st.integers(0, space.size - 1)))
    # Bias toward long shared suffixes, where the fast path's loop
    # actually runs (random pairs usually differ at digit 0).
    if draw(st.booleans()):
        k = draw(st.integers(0, num_digits))
        y = space.from_digits(x.digits[:k] + y.digits[k:])
    return space, x, y


class TestCsufFastPath:
    def test_naive_csuf_len_reference(self):
        space = IdSpace(4, 5)
        x = space.from_string("21233")
        y = space.from_string("10233")
        assert naive_csuf_len(x, y) == 3
        assert x.csuf_len(y) == 3

    @given(id_pairs())
    @settings(max_examples=200)
    def test_matches_naive(self, data):
        _, x, y = data
        assert x.csuf_len(y) == naive_csuf_len(x, y)

    @given(id_pairs())
    @settings(max_examples=50)
    def test_self_and_equal_ids(self, data):
        space, x, _ = data
        assert x.csuf_len(x) == x.num_digits
        clone = space.from_digits(x.digits)  # equal but not identical
        assert clone is not x
        assert x.csuf_len(clone) == naive_csuf_len(x, clone)
        assert x.csuf_len(clone) == x.num_digits


class TestCachedForms:
    @given(id_pairs())
    @settings(max_examples=100)
    def test_str_cache_matches_naive(self, data):
        _, x, _ = data
        first = str(x)
        assert first == naive_str(x)
        assert str(x) == first  # cached second call

    @given(id_pairs())
    @settings(max_examples=100)
    def test_int_cache_matches_naive(self, data):
        _, x, _ = data
        assert x.to_int() == naive_to_int(x)
        assert x.to_int() == naive_to_int(x)


class TestComparisonFastPaths:
    @given(id_pairs())
    @settings(max_examples=150)
    def test_eq_ne_consistent(self, data):
        space, x, y = data
        naive_equal = x.digits == y.digits and x.base == y.base
        assert (x == y) == naive_equal
        assert (x != y) == (not naive_equal)
        clone = space.from_digits(x.digits)
        assert x == clone and not (x != clone)

    @given(id_pairs())
    @settings(max_examples=150)
    def test_ordering_matches_numeric_value(self, data):
        _, x, y = data
        assert (x < y) == (naive_to_int(x) < naive_to_int(y))
        assert (x <= y) == (naive_to_int(x) <= naive_to_int(y))
        assert (x > y) == (naive_to_int(x) > naive_to_int(y))
        assert (x >= y) == (naive_to_int(x) >= naive_to_int(y))
