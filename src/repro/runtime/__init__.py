"""Pluggable execution runtimes for the sans-io protocol core.

The protocol stack (:mod:`repro.protocol`, :mod:`repro.network`)
never touches an event loop, a socket, or a clock directly; everything
it needs from its execution environment is the small contract defined
in :mod:`repro.runtime.interface` (a Clock and Timers).  Two runtimes
implement that contract, over one kind of event queue
(:class:`~repro.sim.events.EventQueue`, ``(time, seq)`` order):

* :class:`~repro.sim.scheduler.Simulator` -- the discrete-event
  simulator itself, which satisfies the runtime interface as it
  stands (``name = "sim"``).  Deterministic, virtual-time, the
  substrate of every experiment and golden trace.
* :class:`~repro.runtime.realtime.AsyncioRuntime` -- wall-clock
  execution on an asyncio event loop: one dispatcher task fires the
  queue's due entries an action at a time, sleeping until the next
  deadline, and ``run()`` blocks until the network quiesces (or a
  wall-clock budget expires).

The adapters are imported lazily by :func:`create_runtime` so that
importing :mod:`repro.runtime` (as the protocol layer does for type
contracts) never pulls in :mod:`repro.sim` or :mod:`asyncio`.
"""

from repro.runtime.interface import (
    Clock,
    Runtime,
    SchedulingError,
    TimerHandle,
    Timers,
    WallClockBudgetExceeded,
)

#: Runtime kinds accepted by :func:`create_runtime` (and the CLI's
#: ``--runtime`` flag).
RUNTIME_KINDS = ("sim", "asyncio")


def create_runtime(kind: str = "sim", **options) -> Runtime:
    """Build a runtime adapter by name.

    ``"sim"`` returns a fresh
    :class:`~repro.sim.scheduler.Simulator`; ``"asyncio"``
    returns an :class:`~repro.runtime.realtime.AsyncioRuntime` (keyword
    ``options`` such as ``time_scale`` are forwarded to the adapter).
    The adapter modules are imported on first use, keeping this package
    free of static :mod:`repro.sim` / :mod:`asyncio` dependencies.
    """
    if kind == "sim":
        from repro.sim.scheduler import Simulator

        return Simulator(**options)
    if kind == "asyncio":
        from repro.runtime.realtime import AsyncioRuntime

        return AsyncioRuntime(**options)
    raise ValueError(
        f"unknown runtime kind {kind!r}; expected one of {RUNTIME_KINDS}"
    )


__all__ = [
    "Clock",
    "RUNTIME_KINDS",
    "Runtime",
    "SchedulingError",
    "TimerHandle",
    "Timers",
    "WallClockBudgetExceeded",
    "create_runtime",
]
