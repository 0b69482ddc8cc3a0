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

Calls run the auditor's mid-run *relaxed occupant* mode
(``require_s_states=False`` with an explicit occupant set -- see
:func:`check_consistency`).  Each scan also tells whether the table is
clean under the *strict* rules, and the checker keeps the version at
which it was; the strict quiescence check then re-scans only the
tables that changed since, on the same index.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.ids.digits import NodeId
from repro.ids.packed import SuffixClassIndex
from repro.consistency.checker import (
    ConsistencyReport,
    Violation,
    table_violations,
)
from repro.routing.table import NeighborTable


class IncrementalChecker:
    """Stateful Definition 3.8 checker for a growing network.

    Call :meth:`check` with the audited ``{node_id: table}`` mapping
    and the acceptable occupant set, exactly like the relaxed-mode
    :func:`~repro.consistency.checker.check_consistency`; results agree
    with the full checker on every call (same violation positions and
    kinds), while touching only dirty nodes.  At quiescence,
    :meth:`check_final` stands in for the strict full check.
    """

    def __init__(self) -> None:
        #: Suffix classes of the audited members (None until the
        #: first one shows up, and again after a shrink).
        self._index: Optional[SuffixClassIndex] = None
        #: Audited node -> table version at its last verification.
        self._versions: Dict[NodeId, int] = {}
        #: node -> its currently cached violations (absent if clean).
        self._violations: Dict[NodeId, List[Violation]] = {}
        #: node -> the table version at which its last scan found it
        #: clean under the strict rules (absent otherwise).
        self._strict_clean: Dict[NodeId, int] = {}
        self._occupants: Set[int] = set()
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
        # Always a private set (of packed IDs, as the scan wants them):
        # shrink detection compares against the *previous* call's,
        # which must not alias a set the caller mutates between calls.
        occupants = {node._packed for node in occupant_set}
        versions = self._versions
        if not (
            versions.keys() <= tables.keys()
            and self._occupants <= occupants
        ):
            # Membership shrank: removals cannot be localized, start
            # over (the rebuilt state then serves later calls again).
            self._index = None
            versions.clear()
            self._violations.clear()
            self._strict_clean.clear()
            self.full_rescans += 1
        self._occupants = occupants

        dirty: Set[NodeId] = set()
        index = self._index
        for member, table in tables.items():
            known = versions.get(member)
            if known is None:
                if index is None:
                    index = self._index = SuffixClassIndex(
                        member.base, member.num_digits
                    )
                # A member founding a suffix class turns a null entry
                # of every node one class up into a false negative,
                # without touching those nodes' tables.
                dirty.update(index.add(member))
            elif known == table._version:
                continue
            dirty.add(member)
        # A cached violation can be resolved by membership growth
        # alone; re-verifying keeps verdicts and the auditor's
        # persistence streaks identical to the full checker's.
        dirty.update(self._violations.keys() & tables.keys())

        cached = self._violations
        strict_clean = self._strict_clean
        for member in dirty:
            table = tables[member]
            version = versions[member] = table._version
            violations: List[Violation] = []
            if table_violations(
                member, table, index, occupants, violations,
                require_s_states=False, relaxed_occupants=True,
            ):
                strict_clean[member] = version
            else:
                strict_clean.pop(member, None)
            if violations:
                cached[member] = violations
            elif cached:
                cached.pop(member, None)
        self.nodes_reverified += len(dirty)

        report = ConsistencyReport(
            consistent=True,
            nodes_checked=len(dirty),
            entries_checked=(
                len(dirty) * index.num_digits * index.base if dirty else 0
            ),
        )
        if cached:
            out = report.violations
            # Assemble in the full checker's scan order (tables
            # iteration order, then level/digit within a node).
            for member in tables:
                violations = cached.get(member)
                if violations:
                    out.extend(violations)
                    if (
                        max_violations is not None
                        and len(out) >= max_violations
                    ):
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
        strict_clean = self._strict_clean
        report = ConsistencyReport(consistent=True)
        found = report.violations
        for member, table in tables.items():
            if strict_clean.get(member) != table._version:
                self.nodes_reverified += 1
                table_violations(
                    member, table, index, occupants, found,
                    require_s_states=require_s_states,
                    relaxed_occupants=False,
                )
        report.consistent = not found
        report.nodes_checked = self.nodes_reverified - before
        return report
