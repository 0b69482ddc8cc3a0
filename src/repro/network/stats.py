"""Message statistics.

Tracks, per message type: global counts, per-sender counts, and bytes.
These back the paper's measurements:

* Figure 15(b): number of ``JoinNotiMsg`` sent by each joining node.
* Theorem 3: ``CpRstMsg + JoinWaitMsg`` per joining node is <= d+1.
* Footnote 8: ``SpeNotiMsg`` is rarely sent.
* Section 6.2: bytes saved by the message-size reductions.

The storage behind these counters is a
:class:`~repro.obs.metrics.MetricsRegistry`: every counter is a
labelled metric (``messages_sent{type=...}``,
``messages_sent_by{sender=...,type=...}``, ``message_bytes{type=...}``,
``messages_dropped{type=...}``, ``messages_retransmitted{type=...}``),
so a registry snapshot reproduces the paper's accounting without
bespoke counters, and a per-type tally is a registry query such as
``stats.registry.values_by_label("message_bytes", "type")``.
:class:`MessageStats` owns that label layout and the hot-path cost: it
caches the counter objects per type and per (sender, type), and
answers the per-sender reads (:meth:`~MessageStats.sent_by`,
:meth:`~MessageStats.theorem3_count`) without flushing them.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.obs.metrics import Counter, MetricsRegistry


def _flush_by_sender(
    pending: Dict[Tuple[NodeId, str], int],
    by_sender: Dict[Tuple[NodeId, str], Counter],
    registry: MetricsRegistry,
) -> None:
    """Materialize pending per-sender counts into labelled counters
    (a :class:`MessageStats`' registry collector)."""
    if not pending:
        return
    counter = registry.counter
    for key, amount in pending.items():
        instrument = by_sender.get(key)
        if instrument is None:
            sender, name = key
            instrument = counter(
                "messages_sent_by", sender=str(sender), type=name
            )
            by_sender[key] = instrument
        instrument.value += amount
    pending.clear()


class MessageStats:
    """Counters updated by the transport on every send.

    ``registry`` is the backing metrics store; pass a shared
    :class:`~repro.obs.metrics.MetricsRegistry` to co-locate message
    accounting with the rest of a run's metrics, or omit it to get a
    private one.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # Hot-path caches: one dict lookup per send instead of a
        # registry get-or-create with label canonicalization.
        self._sent: Dict[str, Counter] = {}
        # (sent, bytes) counter pairs per type: on_send resolves both
        # of its per-type counters with a single dict probe.
        self._send_pair: Dict[str, Tuple[Counter, Counter]] = {}
        self._dropped: Dict[str, Counter] = {}
        self._retransmitted: Dict[str, Counter] = {}
        self._by_sender: Dict[Tuple[NodeId, str], Counter] = {}
        # Per-sender counts accumulate as plain ints and flush into
        # labelled counters lazily (registry collector): creating a
        # ``messages_sent_by{sender=...,type=...}`` counter costs a
        # ``str(sender)`` plus label canonicalization, which is pure
        # overhead for the thousands of (sender, type) pairs a large
        # run touches exactly while it runs.  Reads add pending to
        # flushed counts; only the collector materializes.  It holds
        # the two dicts, not this object, so nothing the registry
        # holds refers back to it.
        self._by_sender_pending: Dict[Tuple[NodeId, str], int] = {}
        self.registry.add_collector(
            partial(_flush_by_sender, self._by_sender_pending, self._by_sender)
        )
        self._total_messages = self.registry.counter("messages_total")
        self._total_bytes = self.registry.counter("message_bytes_total")
        self._total_dropped = self.registry.counter("messages_dropped_total")
        self._total_retransmitted = self.registry.counter(
            "messages_retransmitted_total"
        )

    # -- write side (transport hot path) --------------------------------

    def on_send(self, message: Message) -> None:
        """Account one sent message (called by the transport)."""
        name = message.type_name
        size = message.size_bytes()
        pair = self._send_pair.get(name)
        if pair is None:
            sent = self.registry.counter("messages_sent", type=name)
            byts = self.registry.counter("message_bytes", type=name)
            self._sent[name] = sent
            pair = (sent, byts)
            self._send_pair[name] = pair
        # Direct .value bumps: Counter.inc's non-negativity check is
        # vacuous for these literal amounts, and this method runs once
        # per message sent anywhere in a simulation.
        pair[0].value += 1
        pair[1].value += size
        key = (message.sender, name)
        pending = self._by_sender_pending
        pending[key] = pending.get(key, 0) + 1
        self._total_messages.value += 1
        self._total_bytes.value += size

    def on_drop(self, message: Message) -> None:
        """A message addressed to a crashed node was dropped."""
        name = message.type_name
        dropped = self._dropped.get(name)
        if dropped is None:
            dropped = self.registry.counter("messages_dropped", type=name)
            self._dropped[name] = dropped
        dropped.inc()
        self._total_dropped.inc()

    def on_retransmit(self, message: Message) -> None:
        """A real-wire transport re-sent an already-accounted message.

        Retransmissions are a *wire* phenomenon (ARQ recovering from
        datagram loss), not a protocol send: they must never touch
        ``messages_sent``, or the paper's per-type counts (Figure
        15(b), Theorem 3) would diverge between the in-memory and the
        datagram transport for the same workload.  They get their own
        ``messages_retransmitted{type=...}`` counter instead.
        """
        name = message.type_name
        retransmitted = self._retransmitted.get(name)
        if retransmitted is None:
            retransmitted = self.registry.counter(
                "messages_retransmitted", type=name
            )
            self._retransmitted[name] = retransmitted
        retransmitted.inc()
        self._total_retransmitted.inc()

    # -- read side -------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """All messages sent so far."""
        return self._total_messages.value

    @property
    def total_bytes(self) -> int:
        """Sum of ``size_bytes()`` over all sent messages."""
        return self._total_bytes.value

    @property
    def total_dropped(self) -> int:
        """All messages dropped (dead destinations) so far."""
        return self._total_dropped.value

    @property
    def total_retransmitted(self) -> int:
        """All wire-level retransmissions so far (0 in simulation)."""
        return self._total_retransmitted.value

    def count(self, type_name: str) -> int:
        """Total messages of ``type_name`` sent so far."""
        counter = self._sent.get(type_name)
        return counter.value if counter is not None else 0

    def _sent_by(self, key: Tuple[NodeId, str]) -> int:
        counter = self._by_sender.get(key)
        flushed = counter.value if counter is not None else 0
        return flushed + self._by_sender_pending.get(key, 0)

    def sent_by(self, sender: NodeId, type_name: str) -> int:
        """Messages of ``type_name`` sent by ``sender``."""
        return self._sent_by((sender, type_name))

    def sent_by_each(
        self, senders: Iterable[NodeId], type_name: str
    ) -> List[int]:
        """Per-sender counts of one type, in the given sender order."""
        return [self.sent_by(sender, type_name) for sender in senders]

    def theorem3_count(self, sender: NodeId) -> int:
        """``CpRstMsg + JoinWaitMsg`` sent by ``sender``: the count
        Theorem 3 bounds by ``d + 1`` per joiner."""
        return self._sent_by((sender, "CpRstMsg")) + self._sent_by(
            (sender, "JoinWaitMsg")
        )

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the per-type counters."""
        return {name: counter.value for name, counter in self._sent.items()}
