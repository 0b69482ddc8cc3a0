"""Incremental Definition 3.8 checking (dirty-set re-verification).

The full :func:`~repro.consistency.checker.check_consistency` scan is
O(n * d * b) per call: every entry of every audited table is probed
against a freshly built suffix index.  A :class:`LiveAuditor` sampling
a 100k-node join run pays that cost *per sample*, which turns the
audit from an observer into the dominant cost of the run.

:class:`IncrementalChecker` keeps the suffix index and the last known
verdict per node across calls and re-verifies only nodes whose answer
could have changed since the previous call:

* nodes whose table **version** advanced (any mutation bumps
  :class:`~repro.routing.table.NeighborTable`'s version counter);
* nodes **newly added** to the audited membership;
* nodes with a **cached violation** (a violation can resolve without
  the violating node's own table changing only through membership
  churn, but re-checking them every call also keeps the auditor's
  persistence streaks exact);
* members of any suffix class whose class just went **empty ->
  non-empty**: a new member with suffix ``j . s`` turns the null
  ``(len(s), j)`` entries of every node with suffix ``s`` into
  false negatives, without touching those nodes' tables.  The affected
  nodes are exactly the members of class ``s``, which the index
  already holds.

Membership **removal** (audited set or occupant set shrinking) cannot
be localized this way -- a departed node may justify entries anywhere
-- so the checker detects it and falls back to a full rescan,
rebuilding its state from scratch.  That keeps the incremental path
exact: for join-only workloads it never triggers; with leaves/failures
the cost degrades gracefully to the full checker's.

Finding the dirty nodes costs no per-node Python work.  The checker
keeps its members, their tables and each table's version at its last
verification in parallel lists that only grow; a call compares the
caller's member and occupant lists with the previous call's, and the
tables' versions with the verified ones, in C-level passes, so what
remains in Python is the dirty nodes themselves.  A fresh or rebuilt
checker indexes all members in one
:meth:`~repro.ids.packed.SuffixClassIndex.of` pass and verifies each
once.

Calls run the auditor's mid-run *relaxed occupant* mode
(``require_s_states=False`` with an explicit occupant set -- see
:func:`check_consistency`).  Each scan also tells whether the table is
clean under the *strict* rules, and the checker keeps the version at
which it was; the strict quiescence check then re-scans only the
tables that changed since, on the same index.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import attrgetter, ne, not_
from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.ids.digits import NodeId
from repro.ids.packed import SuffixClassIndex
from repro.consistency.checker import (
    ConsistencyReport,
    Violation,
    table_violations,
)
from repro.routing.table import NeighborTable

_PACKED = attrgetter("_packed")
_VERSION = attrgetter("_version")


class IncrementalChecker:
    """Stateful Definition 3.8 checker for a growing network.

    Call :meth:`check` with the audited ``{node_id: table}`` mapping
    and the acceptable occupant set, exactly like the relaxed-mode
    :func:`~repro.consistency.checker.check_consistency`; results agree
    with the full checker on every call (same violation positions and
    kinds), while touching only dirty nodes.  At quiescence,
    :meth:`check_final` stands in for the strict full check.

    A member's table is the object the mapping held when the member
    was first seen: tables change in place, and their version counter
    is how the checker sees it.
    """

    def __init__(self) -> None:
        #: Suffix classes of the audited members (None until the
        #: first one shows up, and again after a shrink).
        self._index: Optional[SuffixClassIndex] = None
        #: The audited members in the order they were indexed, their
        #: tables, and each table's version at its last verification
        #: (None before the first): parallel lists that only grow, so
        #: a call finds what moved with C-level passes instead of
        #: hashing every NodeId.
        self._members: List[NodeId] = []
        self._tables: List[NeighborTable] = []
        self._verified: List[Optional[int]] = []
        #: Packed member -> its slot in the lists above.
        self._slots: Dict[int, int] = {}
        #: The members and the occupants as the last call listed them
        #: (private copies: change detection must not alias what the
        #: caller mutates between calls), and the occupants' packed
        #: IDs, as the scan wants them.
        self._listed_members: List[NodeId] = []
        self._listed_occupants: List[NodeId] = []
        self._occupants: Set[int] = set()
        #: Packed member -> its cached violations (absent if clean).
        self._violations: Dict[int, List[Violation]] = {}
        #: Packed member -> the table version at which its last scan
        #: found it clean under the strict rules (absent otherwise).
        self._strict_clean: Dict[int, int] = {}
        #: Cumulative count of per-node verifications (observability;
        #: compare against calls * len(tables) for the saving).
        self.nodes_reverified = 0
        #: Number of full rescans triggered by membership shrink.
        self.full_rescans = 0

    def check(
        self,
        tables: Mapping[NodeId, NeighborTable],
        occupant_set: Iterable[NodeId],
        max_violations: Optional[int] = None,
    ) -> ConsistencyReport:
        """Relaxed-mode Definition 3.8 over ``tables``.

        Equivalent to ``check_consistency(tables,
        require_s_states=False, occupant_set=occupant_set,
        max_violations=max_violations)`` (violation positions/kinds and
        the verdict; ``nodes_checked``/``entries_checked`` count only
        the nodes actually re-verified this call).
        """
        shrunk = False
        listed = list(occupant_set)
        if listed != self._listed_occupants:
            occupants = set(map(_PACKED, listed))
            shrunk = not self._occupants <= occupants
            self._listed_occupants = listed
            self._occupants = occupants
        occupants = self._occupants
        members = list(tables)
        cached = self._violations
        newcomers: List[NodeId] = []
        if shrunk or members != self._listed_members:
            self._listed_members = members
            slots = self._slots
            known = list(map(slots.__contains__, map(_PACKED, members)))
            if shrunk or known.count(True) < len(slots):
                # Membership shrank: removals cannot be localized,
                # start over (the rebuilt state then serves later
                # calls again).
                self._index = None
                self._members, self._tables, self._verified = [], [], []
                self._slots = {}
                cached.clear()
                self._strict_clean.clear()
                self.full_rescans += 1
                known = [False] * len(members)
            fresh = list(map(not_, known))
            newcomers = list(compress(members, fresh))
            self._slots.update(
                zip(map(_PACKED, newcomers), count(len(self._members)))
            )
            self._members += newcomers
            self._tables += compress(tables.values(), fresh)
            self._verified += repeat(None, len(newcomers))
        own = self._members
        views = self._tables
        verified = self._verified

        index = self._index
        if index is None:
            # A fresh or rebuilt checker: one indexing pass, and every
            # member is dirty.
            if own:
                index = self._index = SuffixClassIndex.of(own)
            dirty: Iterable[int] = range(len(own))
        else:
            # A newcomer (never verified) or a table whose version
            # moved on since its last verification ...
            dirty = set(compress(
                count(), map(ne, map(_VERSION, views), verified)
            ))
            # ... plus every member of the class a newcomer joined: it
            # founded a class right below theirs, which turns one of
            # their null entries into a false negative without
            # touching their tables ...
            touched: Set[int] = set()
            for member in newcomers:
                touched.update(map(_PACKED, index.add(member)))
            # ... plus every cached violation, which membership growth
            # alone can resolve; re-verifying keeps verdicts and the
            # auditor's persistence streaks identical to the full
            # checker's.
            touched.update(cached)
            dirty.update(map(self._slots.__getitem__, touched))

        strict_clean = self._strict_clean
        for slot in dirty:
            member = own[slot]
            table = views[slot]
            key = member._packed
            version = verified[slot] = table._version
            violations: List[Violation] = []
            if table_violations(
                member, table, index, occupants, violations,
                require_s_states=False, relaxed_occupants=True,
            ):
                strict_clean[key] = version
            else:
                strict_clean.pop(key, None)
            if violations:
                cached[key] = violations
            elif cached:
                cached.pop(key, None)
        checked = len(dirty)
        self.nodes_reverified += checked

        report = ConsistencyReport(
            consistent=True,
            nodes_checked=checked,
            entries_checked=(
                checked * index.num_digits * index.base if checked else 0
            ),
        )
        if cached:
            out = report.violations
            # Assemble in the full checker's scan order (tables
            # iteration order, then level/digit within a node).
            for key in compress(
                map(_PACKED, members),
                map(cached.__contains__, map(_PACKED, members)),
            ):
                out.extend(cached[key])
                if max_violations is not None and len(out) >= max_violations:
                    del out[max_violations:]
                    break
            if out:
                report.consistent = False
        return report

    def check_final(
        self,
        tables: Mapping[NodeId, NeighborTable],
        require_s_states: bool = True,
    ) -> ConsistencyReport:
        """Strict Definition 3.8 over ``tables`` at quiescence.

        Equivalent to ``check_consistency(tables,
        require_s_states=require_s_states)`` (violation positions/kinds
        in the same order, and the verdict).  A :meth:`check` pass
        brings every verdict up to date -- indexing late members and
        dirtying the classes they found -- then only tables not
        strict-clean at their current version are scanned strictly.
        """
        before = self.nodes_reverified
        self.check(tables, occupant_set=tables)
        index = self._index
        occupants = self._occupants
        report = ConsistencyReport(consistent=True)
        found = report.violations
        clean = map(self._strict_clean.get, map(_PACKED, tables))
        for member, table in compress(
            tables.items(), map(ne, clean, map(_VERSION, tables.values()))
        ):
            self.nodes_reverified += 1
            table_violations(
                member, table, index, occupants, found,
                require_s_states=require_s_states,
                relaxed_occupants=False,
            )
        report.consistent = not found
        report.nodes_checked = self.nodes_reverified - before
        return report
