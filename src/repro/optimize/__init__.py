"""Neighbor-table optimization (the paper's problem 3).

The join protocol deliberately relaxes the *optimal* (nearest-
neighbor) table assumption of PRR and guarantees only consistency;
the paper points to [2, 5] for "methods of exploiting node proximity
and optimizing neighbor tables" and lists table optimization as future
work.  This package supplies that protocol:

* each node asks the occupant of every entry for the other members of
  that entry's suffix class (the occupant knows them: they sit at the
  higher levels of its own table);
* candidates are RTT-measured with timestamped pings;
* the entry's primary switches to the nearest measured member --
  staying inside the class, so Definition 3.8 consistency is untouched
  (tests assert it); reverse-neighbor records follow via
  RvNghNotiMsg / RvNghDropMsg;
* rounds repeat until no entry switches (a local optimum of the
  nearest-neighbor objective).

The payoff is property P2 (routing locality): measured route *stretch*
on the transit-stub topology drops markedly (the ``optimization``
rows of :mod:`repro.experiments.claims`).
"""

from repro.optimize.driver import (
    OptimizationReport,
    optimize_tables,
)
from repro.optimize.messages import OptFindMsg, OptFindRlyMsg
from repro.optimize.metrics import measure_stretch

__all__ = [
    "OptFindMsg",
    "OptFindRlyMsg",
    "OptimizationReport",
    "measure_stretch",
    "optimize_tables",
]
