"""Consistency checking (Definition 3.8 and Lemma 3.1).

* :mod:`~repro.consistency.checker` -- structural check: every table
  entry is non-null iff a node with the entry's required suffix exists
  (condition (a): false-negative free; condition (b): false-positive
  free), and every filled entry's occupant actually has the suffix.
* :mod:`~repro.consistency.verifier` -- behavioural check: all-pairs
  (or sampled) reachability by actually routing, which by Lemma 3.1 is
  equivalent to condition (a).
* :mod:`~repro.consistency.incremental` -- stateful dirty-set variant
  of the structural check for repeated mid-run audits: only nodes
  whose verdict could have changed since the last call are
  re-verified; :class:`~repro.obs.audit.LiveAuditor` drives it
  during a run.
"""

from repro.consistency.checker import (
    ConsistencyReport,
    Violation,
    check_consistency,
)
from repro.consistency.incremental import IncrementalChecker
from repro.consistency.verifier import (
    ReachabilityReport,
    verify_reachability,
)

__all__ = [
    "ConsistencyReport",
    "IncrementalChecker",
    "ReachabilityReport",
    "Violation",
    "check_consistency",
    "verify_reachability",
]
