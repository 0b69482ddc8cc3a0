"""Fixed-width integer encoding of node IDs, and its suffix algebra.

A packed ID stores digit ``i`` (the paper's ``x[i]``, rightmost-first)
in bits ``[i*w, (i+1)*w)`` of a plain Python int, with
``w == PACKED_DIGIT_BITS == 6`` — wide enough for any supported base
(``MAX_BASE == 36``).  Every :class:`~repro.ids.digits.NodeId` carries
its packed form in ``NodeId._packed`` (computed during construction),
and the suffix algebra of :mod:`repro.ids.suffix` collapses into
shift/mask arithmetic on it:

* ``digit(p, i)``       → ``(p >> (i*w)) & mask``
* ``suffix(p, k)``      → ``p & ((1 << k*w) - 1)``
* ``csuf_len(p, q)``    → position of the lowest set bit of ``p ^ q``
  divided by ``w`` (the XOR trick: the first differing digit owns the
  lowest differing bit; identical IDs XOR to zero).
* ``has_suffix(p, s)``  → ``p & mask == key`` for the ``(key, mask)``
  pair :func:`suffix_pattern` (a digit tuple) or :func:`entry_pattern`
  (a table position) derives once per suffix class.

The hot paths -- the protocol's ``Check_Ngh_Table``, routing, repair
and optimization, the oracle and the consistency checkers -- run on
these ints while the public API keeps trafficking in :class:`NodeId`
values.  :class:`SuffixClassIndex` is the packed index of suffix
classes behind the oracle and both checkers.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.ids.digits import PACKED_DIGIT_BITS, PACKED_DIGIT_MASK, NodeId

__all__ = [
    "NO_MATCH",
    "PACKED_DIGIT_BITS",
    "PACKED_DIGIT_MASK",
    "SuffixClassIndex",
    "entry_pattern",
    "suffix_pattern",
]

#: The ``(key, mask)`` pair no packed ID matches (``p & 0`` is never -1).
NO_MATCH = (-1, 0)


def suffix_pattern(
    suffix: Sequence[int], base: int, num_digits: int
) -> Tuple[int, int]:
    """``(key, mask)`` such that a packed ID ``p`` of the ``(base,
    num_digits)`` space ends with ``suffix`` (rightmost-first) iff
    ``p & mask == key``.

    A suffix longer than ``num_digits`` or holding a digit outside
    ``[0, base)`` names no ID and yields :data:`NO_MATCH`; shifting
    such a digit in would carry into its neighbour's bits instead
    (``(64, 0)`` would pack like ``(0, 1)``).
    """
    if len(suffix) > num_digits:
        return NO_MATCH
    key = shift = 0
    for dg in suffix:
        if not 0 <= dg < base:
            return NO_MATCH
        key |= dg << shift
        shift += PACKED_DIGIT_BITS
    return key, (1 << shift) - 1


def entry_pattern(owner: NodeId, level: int, digit: int) -> Tuple[int, int]:
    """The :func:`suffix_pattern` of ``owner.suffix(level) + (digit,)``
    -- the class ``owner``'s ``(level, digit)``-entry points into --
    without building the tuple; :data:`NO_MATCH` off the table."""
    if not (0 <= level < len(owner._digits) and 0 <= digit < owner._base):
        return NO_MATCH
    shift = level * PACKED_DIGIT_BITS
    return (
        (owner._packed & ((1 << shift) - 1)) | (digit << shift),
        (1 << (shift + PACKED_DIGIT_BITS)) - 1,
    )


class SuffixClassIndex:
    """The suffix classes ``V_omega`` of a membership, by packed key.

    The one index behind the oracle constructor and both consistency
    checkers.  :attr:`classes` maps the length-tagged key of every
    non-empty class (``(k << tag_shift) | suffix bits``: the length
    tag keeps ``"00"`` and ``"0"`` apart) to its members in arrival
    order -- the bare :class:`NodeId` while the class has a single
    member, a list from the second on: at ``n`` nodes roughly
    ``n * (d - log_b n)`` classes are singletons, and a container
    apiece was most of what the indexes this replaces weighed.
    :attr:`filled` maps every *multi-member* class shorter than ``d``
    digits to the flat table positions ``level * base + digit`` of its
    non-empty one-digit extensions, ascending -- the entries
    Definition 3.8 wants filled at that level in each member's table.
    A singleton class carries no such record: its only extension runs
    along its member's own next digit.

    Nodes are only ever added; a shrinking membership is indexed anew.
    """

    __slots__ = (
        "base", "num_digits", "classes", "filled", "tag_shift", "_masks",
    )

    def __init__(self, base: int, num_digits: int):
        self.base = base
        self.num_digits = num_digits
        self.classes: Dict[int, Union[NodeId, List[NodeId]]] = {}
        self.filled: Dict[int, List[int]] = {}
        self.tag_shift = num_digits * PACKED_DIGIT_BITS
        self._masks = tuple(
            (1 << (k * PACKED_DIGIT_BITS)) - 1 for k in range(num_digits + 1)
        )

    @classmethod
    def of(cls, members: Iterable[NodeId]) -> "SuffixClassIndex":
        """Index ``members`` (non-empty, one ID space, no repeats)."""
        members = iter(members)
        first = next(members)
        index = cls(first.base, first.num_digits)
        index.add(first)
        for member in members:
            index.add(member)
        return index

    def key(self, packed: int, k: int) -> int:
        """Key of the class of IDs sharing ``packed``'s last ``k`` digits."""
        return (k << self.tag_shift) | (packed & self._masks[k])

    def add(self, node: NodeId) -> Sequence[NodeId]:
        """Index ``node`` under every suffix it carries.

        Returns the members (``node`` included) of the longest-suffix
        class that existed before the call, ``()`` for the first node.
        Those are exactly the nodes of which Definition 3.8 now asks
        one more entry -- the one aimed at the class ``node`` founded
        right below theirs.
        """
        if node.base != self.base or node.num_digits != self.num_digits:
            raise ValueError("all nodes must share one ID space")
        packed = node._packed
        classes = self.classes
        base = self.base
        tag_shift = self.tag_shift
        masks = self._masks
        w = PACKED_DIGIT_BITS
        joined: Sequence[NodeId] = ()
        parent = None
        depth = 0  # how many digits of ``node`` some earlier member shares
        while True:
            key = (depth << tag_shift) | (packed & masks[depth])
            held = classes.get(key)
            if held is None:
                break
            if depth == self.num_digits:
                raise ValueError("node IDs must be unique")
            if held.__class__ is list:
                held.append(node)
            else:
                # Second member: the class starts recording its
                # extensions, beginning with the first member's.
                shift = depth * w
                self.filled[key] = [
                    depth * base
                    + ((held._packed >> shift) & PACKED_DIGIT_MASK)
                ]
                held = classes[key] = [held, node]
            joined = held
            parent = key
            depth += 1
        # ``node`` founds every longer class, alone; the class it last
        # joined gains the extension along ``node``'s next digit.
        if parent is not None:
            shift = (depth - 1) * w
            insort(
                self.filled[parent],
                (depth - 1) * base + ((packed >> shift) & PACKED_DIGIT_MASK),
            )
        for k in range(depth, self.num_digits + 1):
            classes[(k << tag_shift) | (packed & masks[k])] = node
        return joined

    def members(self, key: int) -> Sequence[NodeId]:
        """The class ``key`` names, in arrival order (``()`` if empty)."""
        held = self.classes.get(key)
        if held is None:
            return ()
        return held if held.__class__ is list else (held,)

    def required_positions(self, packed: int) -> List[int]:
        """Flat positions Definition 3.8 wants filled in the table of
        the indexed member ``packed``, ascending."""
        out: List[int] = []
        probe = self.filled.get
        tag_shift = self.tag_shift
        masks = self._masks
        for level in range(self.num_digits):
            positions = probe((level << tag_shift) | (packed & masks[level]))
            if positions is None:
                # Alone in its class from here up: self-pointers only.
                for above in range(level, self.num_digits):
                    shift = above * PACKED_DIGIT_BITS
                    out.append(
                        above * self.base
                        + ((packed >> shift) & PACKED_DIGIT_MASK)
                    )
                break
            out += positions
        return out
