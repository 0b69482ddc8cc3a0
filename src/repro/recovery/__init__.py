"""Failure recovery (the paper's stated future work, Section 7).

When nodes crash (fail-stop, no farewell messages), surviving neighbor
tables contain dangling pointers -- condition (a) violations waiting
to happen, and false positives by Definition 3.8.  This package
restores consistency:

1. **Detection** -- each node pings the distinct occupants of its
   table; a missing pong by the timeout marks every entry holding that
   node as *suspected* (:mod:`~repro.recovery.mixin`).
2. **Repair** -- for each suspected entry, the node asks its live
   neighbors for substitute candidates with the entry's required
   suffix, verifies candidates by pinging them, and installs the first
   live one (same class, so condition (a) is restored exactly).
3. **Iteration** -- repaired tables expose more candidates, so the
   driver (:mod:`~repro.recovery.driver`) sweeps in rounds until a
   fixpoint; entries whose class genuinely died out are cleared at the
   end (restoring condition (b)).

The sweep is a best-effort epidemic: with moderate failure fractions
the surviving pointer graph stays rich enough that a few rounds reach
full Definition 3.8 consistency (the ``recovery_*`` rows of
:mod:`repro.experiments.claims`), and the report says exactly what
it repaired, cleared, and could not prove either way.

Fundamental limit: if the failures *partition* the undirected survivor
pointer graph, no distributed protocol can reconnect the components
(no message from one side can ever name the other).  The sweep then
still guarantees no dangling pointers -- survivors may be missing
entries (false negatives) but never point at the dead or at phantom
classes.
"""

from repro.recovery.driver import (
    RecoveryReport,
    fail_nodes,
    recover_from_failures,
)
from repro.recovery.messages import (
    PingMsg,
    PongMsg,
    RepairFindMsg,
    RepairFindRlyMsg,
)

__all__ = [
    "PingMsg",
    "PongMsg",
    "RecoveryReport",
    "RepairFindMsg",
    "RepairFindRlyMsg",
    "fail_nodes",
    "recover_from_failures",
]
