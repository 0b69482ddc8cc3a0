"""Causal flight recorder: message causality trees from a trace.

When tracing is on, the transport stamps every message with a
``(msg_id, parent_id, trace_id)`` triple at send time
(:meth:`repro.network.transport.TransportBase._stamp`): ``parent_id`` is
the message whose handler performed the send, so the messages of a run
form a forest.  For the join protocol each joiner's spontaneous
``CpRstMsg`` roots exactly one tree -- the *join tree* -- whose shape
is the paper's Figures 5-14 made concrete::

    CpRstMsg(x -> g0)
      `- CpRlyMsg(g0 -> x)
           `- CpRstMsg(x -> g1)
                `- ...
                     `- JoinWaitMsg(x -> y)
                          `- JoinWaitRlyMsg(y -> x)
                               `- JoinNotiMsg(x -> u) ...

This module rebuilds that forest from the ``message.send`` /
``message.deliver`` / ``message.drop`` events of a
:class:`~repro.obs.tracer.Tracer` or of a trace JSONL file, and
extracts per-tree analytics: size, depth, message-type census, and the
virtual-time *critical path* -- the causal chain ending at the tree's
latest delivery, i.e. the dependency chain that bounds how fast the
join could possibly have finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.tracer import Tracer

#: Message identity in a trace: ints from the in-memory transport,
#: ``"<node>#<counter>"`` strings from the datagram transport (see
#: :data:`repro.network.message.CausalId`).  One trace never mixes the
#: two (a run uses one transport kind), so ids stay sortable.
CausalId = Union[int, str]


@dataclass
class MessageRecord:
    """One stamped message reconstructed from trace events."""

    msg_id: CausalId
    parent_id: Optional[CausalId]
    trace_id: CausalId
    type: str
    src: str
    dst: str
    send_time: float
    deliver_time: Optional[float] = None
    bytes: int = 0
    latency: float = 0.0
    dropped: bool = False

    @property
    def completion_time(self) -> float:
        """When the message stopped mattering: its delivery time, or
        its send time if it was dropped / still in flight."""
        return self.deliver_time if self.deliver_time is not None else (
            self.send_time
        )


class CausalityError(ValueError):
    """A trace's causal records are malformed (dangling parent, child
    sent before its parent was delivered, ...)."""


class CausalForest:
    """The causal forest of one traced run."""

    def __init__(self, records: Iterable[MessageRecord]):
        self.records: Dict[CausalId, MessageRecord] = {}
        self._children: Dict[CausalId, List[CausalId]] = {}
        for record in records:
            if record.msg_id in self.records:
                raise CausalityError(f"duplicate msg_id {record.msg_id}")
            self.records[record.msg_id] = record
        for record in self.records.values():
            if record.parent_id is not None:
                self._children.setdefault(record.parent_id, []).append(
                    record.msg_id
                )
        for children in self._children.values():
            children.sort()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_event_records(
        cls, events: Iterable[Mapping[str, Any]]
    ) -> "CausalForest":
        """Build from exported event dicts (``read_trace_jsonl`` shape:
        ``{"name": ..., "time": ..., "attrs": {...}}``).

        Events without a ``msg`` attribute (traces from before causal
        stamping, or non-message events) are ignored.

        Two passes: sends/drops first, then deliveries.  A
        single-tracer stream always records the send before the
        delivery, but a *merged* multi-daemon stream (each end of a
        datagram recorded by a different process) carries no such
        ordering guarantee -- the receiver's ``message.deliver`` may
        sort ahead of the sender's ``message.send``.
        """
        materialized = list(events)
        records: Dict[CausalId, MessageRecord] = {}
        for event in materialized:
            name = event.get("name")
            if name not in ("message.send", "message.drop"):
                continue
            attrs = event.get("attrs", {})
            msg_id = attrs.get("msg")
            if msg_id is None:
                continue
            records[msg_id] = MessageRecord(
                msg_id=msg_id,
                parent_id=attrs.get("parent"),
                trace_id=attrs.get("trace", msg_id),
                type=attrs.get("type", "?"),
                src=attrs.get("src", "?"),
                dst=attrs.get("dst", "?"),
                send_time=event.get("time", 0.0),
                bytes=attrs.get("bytes", 0),
                latency=attrs.get("latency", 0.0),
                dropped=(name == "message.drop"),
            )
        for event in materialized:
            if event.get("name") != "message.deliver":
                continue
            attrs = event.get("attrs", {})
            record = records.get(attrs.get("msg"))
            if record is not None:
                record.deliver_time = event.get("time", 0.0)
        return cls(records.values())

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "CausalForest":
        """Build from a live :class:`~repro.obs.tracer.Tracer`."""
        return cls.from_event_records(
            event.to_record() for event in tracer.events()
        )

    # -- structure ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def roots(self) -> List[MessageRecord]:
        """Tree roots (spontaneous sends), in msg_id order."""
        return sorted(
            (r for r in self.records.values() if r.parent_id is None),
            key=lambda r: r.msg_id,
        )

    def children(self, msg_id: CausalId) -> List[MessageRecord]:
        """Messages sent by ``msg_id``'s handler, in msg_id order."""
        return [self.records[c] for c in self._children.get(msg_id, ())]

    def tree(self, root_id: CausalId) -> List[MessageRecord]:
        """Every record in ``root_id``'s tree, preorder."""
        if root_id not in self.records:
            raise CausalityError(f"unknown msg_id {root_id}")
        out: List[MessageRecord] = []
        stack = [root_id]
        while stack:
            msg_id = stack.pop()
            record = self.records[msg_id]
            out.append(record)
            stack.extend(reversed(self._children.get(msg_id, ())))
        return out

    def depth(self, root_id: CausalId) -> int:
        """Longest causal chain length in the tree (root counts as 1)."""
        best = 0
        stack = [(root_id, 1)]
        while stack:
            msg_id, level = stack.pop()
            if level > best:
                best = level
            for child in self._children.get(msg_id, ()):
                stack.append((child, level + 1))
        return best

    def type_census(self, root_id: CausalId) -> Dict[str, int]:
        """Message counts per type within one tree, sorted by type."""
        counts: Dict[str, int] = {}
        for record in self.tree(root_id):
            counts[record.type] = counts.get(record.type, 0) + 1
        return dict(sorted(counts.items()))

    def critical_path(self, root_id: CausalId) -> List[MessageRecord]:
        """The causal chain from the root to the tree's latest
        completion -- the virtual-time critical path of that join.

        Ties break toward the smallest msg_id, keeping the extraction
        deterministic for a given trace.
        """
        best: Optional[MessageRecord] = None
        for record in self.tree(root_id):
            if (
                best is None
                or record.completion_time > best.completion_time
                or (
                    record.completion_time == best.completion_time
                    and record.msg_id < best.msg_id
                )
            ):
                best = record
        assert best is not None
        path: List[MessageRecord] = []
        current: Optional[MessageRecord] = best
        while current is not None:
            path.append(current)
            current = (
                self.records.get(current.parent_id)
                if current.parent_id is not None
                else None
            )
        path.reverse()
        return path

    def join_trees(self) -> Dict[str, List[MessageRecord]]:
        """Per-joiner join trees: roots of type ``CpRstMsg`` grouped by
        the joining node (root sender), each mapped to its full tree.

        A joiner restarts its copy walk only by way of replies, so it
        roots exactly one tree per join attempt; the mapping keeps the
        first (and normally only) tree per sender.
        """
        out: Dict[str, List[MessageRecord]] = {}
        for root in self.roots():
            if root.type == "CpRstMsg" and root.src not in out:
                out[root.src] = self.tree(root.msg_id)
        return out

    # -- validation -----------------------------------------------------

    def validate(self) -> List[str]:
        """Causal sanity check; returns human-readable problems.

        * every ``parent_id`` resolves to a recorded message;
        * a child is sent no earlier than its parent's delivery (the
          handler runs at delivery time);
        * dropped messages have no children (nothing handled them).
        """
        problems: List[str] = []
        for record in sorted(self.records.values(), key=lambda r: r.msg_id):
            if record.parent_id is None:
                continue
            parent = self.records.get(record.parent_id)
            if parent is None:
                problems.append(
                    f"msg {record.msg_id} has unknown parent "
                    f"{record.parent_id}"
                )
                continue
            if parent.dropped:
                problems.append(
                    f"msg {record.msg_id} is a child of dropped "
                    f"msg {parent.msg_id}"
                )
            elif parent.deliver_time is None:
                problems.append(
                    f"msg {record.msg_id} sent by handler of msg "
                    f"{parent.msg_id}, which was never delivered"
                )
            elif record.send_time < parent.deliver_time:
                problems.append(
                    f"msg {record.msg_id} sent at {record.send_time} "
                    f"before parent {parent.msg_id} delivered at "
                    f"{parent.deliver_time}"
                )
            if record.trace_id != parent.trace_id:
                problems.append(
                    f"msg {record.msg_id} trace {record.trace_id} != "
                    f"parent trace {parent.trace_id}"
                )
        return problems
