"""Hypercube (suffix-matching) routing substrate.

Implements Section 2 of the paper: neighbor tables with ``d`` levels of
``b`` entries (:mod:`~repro.routing.table`), the suffix-matching
routing scheme (:mod:`~repro.routing.router`, whose ``route`` also
decides reachability in the sense of Definition 3.7), and an *oracle*
constructor that builds consistent tables directly from global
knowledge (:mod:`~repro.routing.oracle`) -- used to set up the initial
consistent network ``<V, N(V)>`` for experiments without paying for a
full protocol bootstrap.
"""

from repro.routing.entry import NeighborState, TableEntry
from repro.routing.oracle import build_consistent_tables
from repro.routing.router import (
    RouteResult,
    next_hop,
    route,
    surrogate_route,
)
from repro.routing.table import NeighborTable, TableSnapshot, format_table

__all__ = [
    "NeighborState",
    "NeighborTable",
    "RouteResult",
    "TableEntry",
    "TableSnapshot",
    "build_consistent_tables",
    "format_table",
    "next_hop",
    "route",
    "surrogate_route",
]
