"""Metrics: counters, gauges and histograms in a registry.

The registry is label-aware in the Prometheus style: an instrument is
identified by a name plus a sorted set of ``key=value`` labels, so the
per-message-type accounting of the paper's evaluation (Figure 15(b),
Theorems 3-5) falls out of plain counters::

    registry.counter("messages_sent", type="JoinNotiMsg").inc()
    registry.value("messages_sent", type="JoinNotiMsg")     # -> 1

Instruments are cheap mutable objects; hot paths (the transport's
per-send accounting) cache them once and call ``inc`` directly, so
steady-state cost is one attribute increment -- no registry lookups.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(name: str, labels: Dict[str, Any]) -> LabelKey:
    """Canonical hashable identity of an instrument."""
    if not labels:
        return (name, ())
    items = [(k, str(v)) for k, v in labels.items()]
    if len(items) > 1:
        items.sort()
    return (name, tuple(items))


def format_label_key(key: LabelKey) -> str:
    """Render ``(name, labels)`` as ``name{k=v,...}`` (flat-dict key)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("key", "value")

    kind = "counter"

    def __init__(self, key: LabelKey):
        self.key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter cannot decrease (amount={amount})")
        self.value += amount

    def snapshot_items(self) -> List[Tuple[str, float]]:
        """Flat-dict items contributed by this instrument."""
        return [(format_label_key(self.key), self.value)]


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("key", "value")

    kind = "gauge"

    def __init__(self, key: LabelKey):
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (may be negative)."""
        self.value += delta

    def snapshot_items(self) -> List[Tuple[str, float]]:
        """Flat-dict items contributed by this instrument."""
        return [(format_label_key(self.key), self.value)]


class Histogram:
    """A distribution of observed values.

    Keeps every sample (simulation scale makes this affordable) so
    exact quantiles are available; the flat snapshot exposes
    ``_count``, ``_sum``, ``_min``, ``_max`` and ``_mean`` suffixes.
    """

    __slots__ = ("key", "samples")

    kind = "histogram"

    def __init__(self, key: LabelKey):
        self.key = key
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(value)

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return len(self.samples)

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Mean sample (0.0 when empty)."""
        return self.sum / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Smallest sample with cumulative fraction >= ``q``."""
        if not self.samples:
            raise ValueError("empty histogram has no quantiles")
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]

    def snapshot_items(self) -> List[Tuple[str, float]]:
        """Flat-dict items contributed by this instrument."""
        base = format_label_key(self.key)
        items: List[Tuple[str, float]] = [
            (f"{base}_count", float(len(self.samples))),
            (f"{base}_sum", self.sum),
        ]
        if self.samples:
            items.extend(
                [
                    (f"{base}_min", min(self.samples)),
                    (f"{base}_max", max(self.samples)),
                    (f"{base}_mean", self.mean),
                ]
            )
        return items


class MetricsError(RuntimeError):
    """Instrument name reused with a different kind or misuse."""


class MetricsRegistry:
    """Owns every instrument of one run; get-or-create by name+labels."""

    def __init__(self) -> None:
        self._instruments: Dict[LabelKey, Any] = {}
        # Deferred-accounting hooks, run before every read so writers
        # may batch hot-path increments (MessageStats' per-sender
        # counts) and materialize instruments lazily.
        self._collectors: List[Any] = []

    def add_collector(self, collector) -> None:
        """Register ``collector(registry)``, invoked before reads
        (``value``, ``snapshot``, ``instruments``, ``values_by_label``)
        so deferred accounting can be flushed into instruments just in
        time.  The registry is passed in, so a collector need not
        refer back to it."""
        self._collectors.append(collector)

    def _collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    def _get_or_create(self, cls, name: str, labels: Dict[str, Any]):
        key = _label_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(key)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise MetricsError(
                f"{format_label_key(key)} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``name`` + ``labels`` (created on demand)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on demand)."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for ``name`` + ``labels`` (created on demand)."""
        return self._get_or_create(Histogram, name, labels)

    # -- read side -----------------------------------------------------

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Current value of a counter/gauge, or ``None`` if absent.

        (Histograms have no single value; read them via
        :meth:`histogram` or the flat :meth:`snapshot`.)
        """
        self._collect()
        instrument = self._instruments.get(_label_key(name, labels))
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            raise MetricsError(f"{name} is a histogram; use histogram()")
        return instrument.value

    def instruments(self) -> List[Any]:
        """Every registered instrument, in registration order."""
        self._collect()
        return list(self._instruments.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` dict over all instruments."""
        self._collect()
        out: Dict[str, float] = {}
        for instrument in self._instruments.values():
            for key, value in instrument.snapshot_items():
                out[key] = value
        return out

    def values_by_label(
        self, name: str, label: str
    ) -> Dict[str, float]:
        """Map one label's values to counter/gauge readings, summed
        over the metric's other labels.

        ``values_by_label("messages_sent", "type")`` returns the
        per-message-type counts, i.e. :meth:`MessageStats.snapshot`
        rebuilt from the registry; ``values_by_label("messages_sent_by",
        "type")`` adds up every sender's count of each type.
        """
        self._collect()
        out: Dict[str, float] = {}
        for (iname, labels), instrument in self._instruments.items():
            if iname != name or isinstance(instrument, Histogram):
                continue
            label_dict = dict(labels)
            if label in label_dict:
                value = label_dict[label]
                out[value] = out.get(value, 0) + instrument.value
        return out

    def __len__(self) -> int:
        self._collect()
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        self._collect()
        return any(iname == name for iname, _ in self._instruments)
