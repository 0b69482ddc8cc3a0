"""The packed ``(key, mask)`` suffix predicate against the tuple algebra.

``suffix_pattern``/``entry_pattern`` replace ``NodeId.has_suffix`` in
repair, optimization and backup qualification, so they must answer
exactly what the digit-tuple test answers -- including "no" for a
suffix that names no ID (too long, or a digit outside ``[0, base)``),
which a plain shift-and-or key would get wrong.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.digits import PACKED_DIGIT_BITS as W
from repro.ids.idspace import IdSpace
from repro.ids.packed import NO_MATCH, entry_pattern, suffix_pattern


def naive_pattern(suffix):
    """Shift-and-or with no range checks: the aliasing bug."""
    key = 0
    for i, dg in enumerate(suffix):
        key |= dg << (i * W)
    return key, (1 << (len(suffix) * W)) - 1


def matches(node, pattern):
    key, mask = pattern
    return node._packed & mask == key


@st.composite
def spaces(draw):
    base = draw(st.sampled_from([2, 4, 16]))
    return IdSpace(base, draw(st.integers(1, 6)))


@st.composite
def id_and_suffix(draw):
    space = draw(spaces())
    node = space.from_int(draw(st.integers(0, space.size - 1)))
    length = draw(st.integers(0, space.num_digits + 1))
    # Mostly a real suffix of ``node`` (so matches occur), with
    # arbitrary and out-of-range digits mixed in.
    digit = st.one_of(
        st.integers(0, space.base - 1),
        st.sampled_from([-1, space.base, 63, 64, 65, 1 << 12]),
    )
    suffix = tuple(
        node.digits[i]
        if i < space.num_digits and draw(st.integers(0, 3))
        else draw(digit)
        for i in range(length)
    )
    return space, node, suffix


class TestSuffixPattern:
    @given(id_and_suffix())
    @settings(max_examples=400)
    def test_agrees_with_has_suffix(self, drawn):
        space, node, suffix = drawn
        pattern = suffix_pattern(suffix, space.base, space.num_digits)
        assert matches(node, pattern) == node.has_suffix(suffix)

    @given(spaces(), st.data())
    @settings(max_examples=200)
    def test_entry_pattern_is_the_required_suffix(self, space, data):
        owner = space.from_int(data.draw(st.integers(0, space.size - 1)))
        node = space.from_int(data.draw(st.integers(0, space.size - 1)))
        level = data.draw(st.integers(-1, space.num_digits))
        digit = data.draw(st.integers(-1, space.base))
        pattern = entry_pattern(owner, level, digit)
        if 0 <= level < space.num_digits and 0 <= digit < space.base:
            required = owner.suffix(level) + (digit,)
            assert pattern == suffix_pattern(
                required, space.base, space.num_digits
            )
            assert matches(node, pattern) == node.has_suffix(required)
        else:
            assert pattern == NO_MATCH

    def test_empty_suffix_matches_everything(self):
        space = IdSpace(4, 3)
        pattern = suffix_pattern((), 4, 3)
        assert all(matches(space.from_int(v), pattern) for v in range(64))

    def test_out_of_range_digit_does_not_alias(self):
        # 64 carries into the next 6-bit slot: naively (64, 0) packs
        # like (0, 1) and "matches" IDs ending in ...10.
        space = IdSpace(16, 4)
        node = space.from_digits((0, 1, 0, 0))
        assert matches(node, naive_pattern((64, 0)))
        assert not node.has_suffix((64, 0))
        assert suffix_pattern((64, 0), 16, 4) == NO_MATCH
        assert not matches(node, suffix_pattern((64, 0), 16, 4))

    def test_suffix_longer_than_the_id_matches_nothing(self):
        space = IdSpace(4, 3)
        node = space.from_digits((0, 0, 0))
        assert matches(node, naive_pattern((0, 0, 0, 0)))
        assert not node.has_suffix((0, 0, 0, 0))
        assert suffix_pattern((0, 0, 0, 0), 4, 3) == NO_MATCH

    def test_no_match_matches_nothing(self):
        space = IdSpace(2, 4)
        assert not any(
            matches(space.from_int(v), NO_MATCH) for v in range(space.size)
        )
