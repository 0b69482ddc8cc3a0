"""Discrete event simulation engine.

The paper evaluates the join protocol "in detail in an event-driven
simulator" (Section 5.2).  This package provides that substrate:

* :class:`~repro.sim.events.EventQueue` -- a stable priority queue of
  timestamped events.
* :class:`~repro.sim.scheduler.Simulator` -- the virtual clock and run
  loop.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.scheduler import Simulator

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
]
