"""ID space for hypercube routing.

Node and object identifiers are fixed-length strings of ``d`` digits of
base ``b`` (Section 2 of the paper).  Digits are counted from the
*right*: ``x[0]`` is the rightmost digit, following PRR's suffix-matching
convention.

The package provides:

* :class:`~repro.ids.digits.NodeId` -- an immutable ID value.
* :class:`~repro.ids.idspace.IdSpace` -- a ``(b, d)`` parameterization
  that creates, parses, hashes and samples IDs.
* :mod:`~repro.ids.suffix` -- suffix algebra (``csuf``, suffix sets,
  suffix indexes) used throughout the protocol and its analysis.
* :mod:`~repro.ids.packed` -- fixed-width integer encoding of the same
  algebra (shift/mask arithmetic, XOR ``csuf`` fast path) backing the
  simulator hot paths.
"""

from repro.ids.digits import PACKED_DIGIT_BITS, NodeId
from repro.ids.idspace import IdSpace
from repro.ids.suffix import (
    SuffixIndex,
    csuf,
    csuf_len,
    extend_suffix,
    has_suffix,
    suffix_of,
    suffix_str,
)

__all__ = [
    "NodeId",
    "IdSpace",
    "PACKED_DIGIT_BITS",
    "SuffixIndex",
    "csuf",
    "csuf_len",
    "extend_suffix",
    "has_suffix",
    "suffix_of",
    "suffix_str",
]
