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

:class:`MessageStats` owns that label layout and the hot-path cost.
A send bumps two plain ints: its ``(sender, type)`` count and its
type's byte count.  Everything else is derived from those when read:
the per-type and total counters are brought up to date by every read
of them (:attr:`~MessageStats.total_messages`,
:meth:`~MessageStats.count`, any registry read through its collector),
and the labelled per-sender counters are made only by the registry's
collector.  Per-sender reads (:meth:`~MessageStats.sent_by`,
:meth:`~MessageStats.theorem3_count`) add the pending ints to the
labelled counters and change nothing.  Senders are keyed by packed
ID, so one instance accounts one ID space.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.obs.metrics import Counter, MetricsRegistry


class _Tally:
    """The send-side ints of one :class:`MessageStats`, and the code
    that folds them into the registry's counters.

    The registry's collector is :meth:`label`: it holds this object and
    never the :class:`MessageStats`, so nothing the registry holds
    refers back to the stats (the registry may also outlive them).
    """

    __slots__ = (
        "pending", "pending_bytes", "folded", "senders", "sent", "byts",
        "by_sender", "total_messages", "total_bytes",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        #: Sends per ``(sender._packed, type)`` not yet in a labelled
        #: counter (a key hashes in C; a NodeId in it would pay a
        #: Python ``__hash__`` per send).  Labelling waits for the
        #: collector: a ``messages_sent_by{sender=...,type=...}``
        #: counter costs a ``str(sender)`` plus label canonicalization,
        #: pure overhead for the thousands of pairs a run touches.
        self.pending: Dict[Tuple[int, str], int] = {}
        #: Bytes per type since the last fold.
        self.pending_bytes: Dict[str, int] = {}
        #: Per type, how many of the pending sends the per-type and
        #: total counters already hold.
        self.folded: Dict[str, int] = {}
        #: packed -> NodeId for every sender with a pending count.
        self.senders: Dict[int, NodeId] = {}
        self.sent: Dict[str, Counter] = {}
        self.byts: Dict[str, Counter] = {}
        self.by_sender: Dict[Tuple[int, str], Counter] = {}
        self.total_messages = registry.counter("messages_total")
        self.total_bytes = registry.counter("message_bytes_total")

    def fold(self) -> None:
        """Bring the per-type and total counters up to date."""
        pending_by_type: Dict[str, int] = {}
        for (_sender, name), amount in self.pending.items():
            pending_by_type[name] = pending_by_type.get(name, 0) + amount
        folded = self.folded
        sent = self.sent
        total = 0
        for name, amount in pending_by_type.items():
            new = amount - folded.get(name, 0)
            if new:
                sent[name].value += new
                total += new
        self.folded = pending_by_type
        self.total_messages.value += total
        pending_bytes = self.pending_bytes
        if pending_bytes:
            byts = self.byts
            for name, amount in pending_bytes.items():
                byts[name].value += amount
            self.total_bytes.value += sum(pending_bytes.values())
            pending_bytes.clear()

    def label(self, registry: MetricsRegistry) -> None:
        """Fold, then move the pending per-sender counts into labelled
        counters (the registry collector)."""
        self.fold()
        pending = self.pending
        if not pending:
            return
        counter = registry.counter
        by_sender = self.by_sender
        senders = self.senders
        for key, amount in pending.items():
            instrument = by_sender.get(key)
            if instrument is None:
                packed, name = key
                instrument = counter(
                    "messages_sent_by", sender=str(senders[packed]), type=name
                )
                by_sender[key] = instrument
            instrument.value += amount
        pending.clear()
        self.folded = {}
        senders.clear()

    def sent_by(self, key: Tuple[int, str]) -> int:
        counter = self.by_sender.get(key)
        labelled = counter.value if counter is not None else 0
        return labelled + self.pending.get(key, 0)


class MessageStats:
    """Counters updated by the transport on every send.

    ``registry`` is the backing metrics store; pass a shared
    :class:`~repro.obs.metrics.MetricsRegistry` to co-locate message
    accounting with the rest of a run's metrics, or omit it to get a
    private one.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        tally = self._tally = _Tally(self.registry)
        self.registry.add_collector(tally.label)
        # Bound once: on_send runs once per message sent anywhere in a
        # simulation.
        self._pending = tally.pending
        self._pending_bytes = tally.pending_bytes
        self._dropped: Dict[str, Counter] = {}
        self._retransmitted: Dict[str, Counter] = {}
        self._total_dropped = self.registry.counter("messages_dropped_total")
        self._total_retransmitted = self.registry.counter(
            "messages_retransmitted_total"
        )

    # -- write side (transport hot path) --------------------------------

    def on_send(self, message: Message) -> None:
        """Account one sent message (called by the transport)."""
        name = message.type_name
        sender = message.sender
        key = (sender._packed, name)
        pending = self._pending
        count = pending.get(key)
        if count is None:
            self._first_pending(sender, name)
            count = 0
        pending[key] = count + 1
        sizes = self._pending_bytes
        sizes[name] = sizes.get(name, 0) + message.size_bytes()

    def _first_pending(self, sender: NodeId, name: str) -> None:
        """A ``(sender, type)`` key with no pending count: remember the
        sender's name for the label, and create the type's counters on
        its first send (so the registry lists them in first-send
        order)."""
        tally = self._tally
        tally.senders[sender._packed] = sender
        if name not in tally.sent:
            tally.sent[name] = self.registry.counter("messages_sent", type=name)
            tally.byts[name] = self.registry.counter("message_bytes", type=name)

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
        self._tally.fold()
        return self._tally.total_messages.value

    @property
    def total_bytes(self) -> int:
        """Sum of ``size_bytes()`` over all sent messages."""
        self._tally.fold()
        return self._tally.total_bytes.value

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
        self._tally.fold()
        counter = self._tally.sent.get(type_name)
        return counter.value if counter is not None else 0

    def sent_by(self, sender: NodeId, type_name: str) -> int:
        """Messages of ``type_name`` sent by ``sender``."""
        return self._tally.sent_by((sender._packed, type_name))

    def sent_by_each(
        self, senders: Iterable[NodeId], type_name: str
    ) -> List[int]:
        """Per-sender counts of one type, in the given sender order."""
        return [self.sent_by(sender, type_name) for sender in senders]

    def theorem3_count(self, sender: NodeId) -> int:
        """``CpRstMsg + JoinWaitMsg`` sent by ``sender``: the count
        Theorem 3 bounds by ``d + 1`` per joiner."""
        packed = sender._packed
        sent_by = self._tally.sent_by
        return sent_by((packed, "CpRstMsg")) + sent_by((packed, "JoinWaitMsg"))

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the per-type counters."""
        self._tally.fold()
        return {
            name: counter.value for name, counter in self._tally.sent.items()
        }
