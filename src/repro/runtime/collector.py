"""Pausing Python's cyclic garbage collector around simulation work.

A simulation builds no reference cycles (``tests/perf/test_cycles.py``),
so the collector's automatic passes, which allocation counts alone
trigger, find nothing in it while traversing every live table entry.
The run loop and the oracle bulk build turn them off.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block.

    Restores the caller's state on exit, exceptions included: an
    enabled collector is re-enabled, a disabled one stays disabled.
    Cyclic garbage made inside the block is reclaimed by the first
    collection after it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
