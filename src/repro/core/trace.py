"""Lightweight protocol tracing.

A :class:`TraceLog` collects timestamped records (message sends, status
transitions, table writes).  Tracing is opt-in per category so that the
large Figure-15 runs pay nothing for categories they do not record.

This lives in :mod:`repro.core` because the records are *protocol*
facts -- a status change at protocol time ``t`` -- independent of which
runtime produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: when, what kind, and free-form details."""

    time: float
    category: str
    details: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        """Look up one detail field, with a default."""
        for k, v in self.details:
            if k == key:
                return v
        return default


class TraceLog:
    """Collects :class:`TraceRecord` entries for enabled categories."""

    def __init__(self, categories: Optional[Iterable[str]] = None):
        self._enabled: Optional[Set[str]] = (
            set(categories) if categories is not None else None
        )
        self._records: List[TraceRecord] = []

    def enabled(self, category: str) -> bool:
        """Whether records of ``category`` are being kept."""
        return self._enabled is None or category in self._enabled

    def record(self, time: float, category: str, **details: Any) -> None:
        """Append a record (dropped if the category is disabled)."""
        if not self.enabled(category):
            return
        self._records.append(
            TraceRecord(time, category, tuple(sorted(details.items())))
        )

    def records(self, category: Optional[str] = None) -> List[TraceRecord]:
        """All records, optionally filtered by category."""
        if category is None:
            return list(self._records)
        return [r for r in self._records if r.category == category]

    def count(self, category: str) -> int:
        """Number of records in ``category``."""
        return sum(1 for r in self._records if r.category == category)

    def clear(self) -> None:
        """Drop all collected records."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


class NullTraceLog(TraceLog):
    """A trace log that drops everything (default for big runs)."""

    def __init__(self) -> None:
        super().__init__(categories=())

    def enabled(self, category: str) -> bool:
        """Always False: nothing is recorded."""
        return False

    def record(self, time: float, category: str, **details: Any) -> None:
        """Drop the record."""
        return None
