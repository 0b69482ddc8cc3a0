"""Fixed-width integer encoding of a ``(base, num_digits)`` ID space.

A packed ID stores digit ``i`` (the paper's ``x[i]``, rightmost-first)
in bits ``[i*w, (i+1)*w)`` of a plain Python int, with
``w == PACKED_DIGIT_BITS == 6`` — wide enough for any supported base
(``MAX_BASE == 36``).  The whole suffix algebra of
:mod:`repro.ids.suffix` then collapses into shift/mask arithmetic:

* ``digit(p, i)``       → ``(p >> (i*w)) & mask``
* ``suffix(p, k)``      → ``p & ((1 << k*w) - 1)``
* ``csuf_len(p, q)``    → position of the lowest set bit of ``p ^ q``
  divided by ``w`` (the XOR trick: the first differing digit owns the
  lowest differing bit; identical IDs XOR to zero).

Every :class:`~repro.ids.digits.NodeId` carries its packed form in
``NodeId.packed`` (computed during construction), so the two
representations are interchangeable: the protocol hot paths run on the
ints while the public API keeps trafficking in :class:`NodeId` values.
:class:`PackedIdSpace` is the codec between them, plus the packed-side
algebra — and :meth:`PackedIdSpace.unpack` interns, so round-tripping a
hot ID repeatedly costs one dict hit, not an object construction.

Memory: a packed ID for ``d <= 10`` digits fits a small int (28 bytes)
versus ~200+ bytes for a ``NodeId`` with its digit tuple; flat
containers of packed ints (see the array-backed
:class:`~repro.routing.table.NeighborTable` and the incremental
consistency index) are what make the 100k-node ``bench_scale`` runs
fit in memory.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.ids.digits import (
    MAX_BASE,
    PACKED_DIGIT_BITS,
    PACKED_DIGIT_MASK,
    NodeId,
)

__all__ = [
    "PACKED_DIGIT_BITS",
    "PACKED_DIGIT_MASK",
    "PackedIdSpace",
    "SuffixClassIndex",
    "packed_csuf_len",
    "packed_digit",
    "packed_suffix",
]


def packed_digit(packed: int, i: int) -> int:
    """Digit ``i`` (rightmost-first) of a packed ID."""
    return (packed >> (i * PACKED_DIGIT_BITS)) & PACKED_DIGIT_MASK


def packed_suffix(packed: int, k: int) -> int:
    """The packed form of the rightmost ``k`` digits."""
    return packed & ((1 << (k * PACKED_DIGIT_BITS)) - 1)


def packed_csuf_len(a: int, b: int, num_digits: int) -> int:
    """``|csuf|`` of two packed IDs of the same ``num_digits`` width.

    XOR trick: equal IDs XOR to 0 (full-length common suffix);
    otherwise the lowest set bit of the XOR lies inside the first
    differing digit.
    """
    z = a ^ b
    if z == 0:
        return num_digits
    n = ((z & -z).bit_length() - 1) // PACKED_DIGIT_BITS
    return n if n < num_digits else num_digits


class PackedIdSpace:
    """Codec and shift/mask algebra for one ``(base, num_digits)`` space.

    Mirrors the :class:`~repro.ids.idspace.IdSpace` factory surface on
    the packed-int side; ``pack``/``unpack`` convert, everything else
    stays in int land.  Instances intern unpacked :class:`NodeId`
    values so packed hot paths can rejoin the object world for free.
    """

    __slots__ = (
        "base",
        "num_digits",
        "digit_bits",
        "digit_mask",
        "id_mask",
        "_suffix_masks",
        "_intern",
    )

    def __init__(self, base: int, num_digits: int):
        if not 2 <= base <= MAX_BASE:
            raise ValueError(f"base must be in [2, {MAX_BASE}], got {base}")
        if num_digits < 1:
            raise ValueError("num_digits must be >= 1")
        self.base = base
        self.num_digits = num_digits
        self.digit_bits = PACKED_DIGIT_BITS
        self.digit_mask = PACKED_DIGIT_MASK
        #: Mask covering all ``num_digits`` packed digits.
        self.id_mask = (1 << (PACKED_DIGIT_BITS * num_digits)) - 1
        #: ``_suffix_masks[k]`` selects the rightmost ``k`` digits.
        self._suffix_masks: Tuple[int, ...] = tuple(
            (1 << (PACKED_DIGIT_BITS * k)) - 1 for k in range(num_digits + 1)
        )
        self._intern: Dict[int, NodeId] = {}

    # -- codec ---------------------------------------------------------

    def pack(self, node: NodeId) -> int:
        """The packed form of ``node`` (validated against this space)."""
        if node.base != self.base or node.num_digits != self.num_digits:
            raise ValueError(
                f"{node!r} does not belong to a "
                f"({self.base}, {self.num_digits}) space"
            )
        return node.packed

    def pack_digits(self, digits: Iterable[int]) -> int:
        """Pack a rightmost-first digit sequence."""
        packed = 0
        shift = 0
        count = 0
        for dg in digits:
            if not 0 <= dg < self.base:
                raise ValueError(
                    f"digit {dg} out of range for base {self.base}"
                )
            packed |= dg << shift
            shift += PACKED_DIGIT_BITS
            count += 1
        if count != self.num_digits:
            raise ValueError(
                f"expected {self.num_digits} digits, got {count}"
            )
        return packed

    def unpack(self, packed: int) -> NodeId:
        """The :class:`NodeId` for ``packed`` (interned per space)."""
        node = self._intern.get(packed)
        if node is None:
            if not 0 <= packed <= self.id_mask:
                raise ValueError(f"packed value {packed} out of range")
            node = NodeId(self.digits_of(packed), self.base)
            self._intern[packed] = node
        return node

    def intern(self, node: NodeId) -> NodeId:
        """Register ``node`` as the canonical unpack of its packed form."""
        packed = self.pack(node)
        return self._intern.setdefault(packed, node)

    def digits_of(self, packed: int) -> Tuple[int, ...]:
        """Rightmost-first digit tuple of a packed ID."""
        w = PACKED_DIGIT_BITS
        mask = PACKED_DIGIT_MASK
        digits = tuple(
            (packed >> (i * w)) & mask for i in range(self.num_digits)
        )
        for dg in digits:
            if dg >= self.base:
                raise ValueError(
                    f"digit {dg} out of range for base {self.base}"
                )
        return digits

    # -- shift/mask algebra --------------------------------------------

    def digit(self, packed: int, i: int) -> int:
        """The paper's ``x[i]`` of a packed ID."""
        if not 0 <= i < self.num_digits:
            raise ValueError(f"digit index {i} out of range")
        return (packed >> (i * PACKED_DIGIT_BITS)) & PACKED_DIGIT_MASK

    def suffix(self, packed: int, k: int) -> int:
        """Packed form of the rightmost ``k`` digits (``suffix(p, 0) == 0``)."""
        if not 0 <= k <= self.num_digits:
            raise ValueError(f"suffix length {k} out of range")
        return packed & self._suffix_masks[k]

    def suffix_key(self, packed: int, k: int) -> int:
        """A single int identifying the *length-tagged* suffix.

        Packed suffixes of different lengths can collide as plain ints
        (``suffix("00", 2) == suffix("0", 1) == 0``), so indexes keyed
        by suffix fold the length into bits above the widest ID:
        ``key = (k << d*w) | suffix``.  Used by the oracle constructor
        and the incremental consistency index.
        """
        return (k << (self.num_digits * PACKED_DIGIT_BITS)) | (
            packed & self._suffix_masks[k]
        )

    def has_suffix(self, packed: int, suffix: int, k: int) -> bool:
        """True iff the packed ID ends with the packed ``k``-digit suffix."""
        return (packed & self._suffix_masks[k]) == suffix

    def with_digit(self, packed: int, i: int, digit: int) -> int:
        """Copy of ``packed`` with digit ``i`` replaced by ``digit``."""
        if not 0 <= i < self.num_digits:
            raise ValueError(f"digit index {i} out of range")
        if not 0 <= digit < self.base:
            raise ValueError(f"digit {digit} out of range for base {self.base}")
        shift = i * PACKED_DIGIT_BITS
        return (packed & ~(PACKED_DIGIT_MASK << shift)) | (digit << shift)

    def csuf_len(self, a: int, b: int) -> int:
        """``|csuf|`` of two packed IDs of this space (XOR fast path)."""
        z = a ^ b
        if z == 0:
            return self.num_digits
        n = ((z & -z).bit_length() - 1) // PACKED_DIGIT_BITS
        return n if n < self.num_digits else self.num_digits

    # -- numeric value -------------------------------------------------

    def to_value(self, packed: int) -> int:
        """Numeric (base-``b``) value of a packed ID."""
        value = 0
        w = PACKED_DIGIT_BITS
        mask = PACKED_DIGIT_MASK
        for i in range(self.num_digits - 1, -1, -1):
            value = value * self.base + ((packed >> (i * w)) & mask)
        return value

    def from_value(self, value: int) -> int:
        """Packed ID whose numeric value is ``value``."""
        if value < 0:
            raise ValueError("ID value must be non-negative")
        if value >= self.base ** self.num_digits:
            raise ValueError(
                f"value {value} does not fit in "
                f"{self.num_digits} base-{self.base} digits"
            )
        packed = 0
        shift = 0
        for _ in range(self.num_digits):
            packed |= (value % self.base) << shift
            value //= self.base
            shift += PACKED_DIGIT_BITS
        return packed

    def random_packed(self, rng: random.Random) -> int:
        """A uniformly random packed ID."""
        return self.from_value(rng.randrange(self.base ** self.num_digits))

    def pack_all(self, nodes: Iterable[NodeId]) -> List[int]:
        """Pack a batch (interning each node along the way)."""
        out = []
        for node in nodes:
            packed = self.pack(node)
            self._intern.setdefault(packed, node)
            out.append(packed)
        return out

    def __repr__(self) -> str:
        return (
            f"PackedIdSpace(base={self.base}, num_digits={self.num_digits})"
        )


class SuffixClassIndex:
    """The suffix classes ``V_omega`` of a membership, by packed key.

    The one index behind the oracle constructor and both consistency
    checkers.  :attr:`classes` maps the length-tagged key of every
    non-empty class (``(k << tag_shift) | suffix bits``, the
    :meth:`PackedIdSpace.suffix_key` layout) to its members in arrival
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
