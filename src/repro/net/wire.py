"""Datagram frame format for the real-wire tier.

One UDP datagram carries exactly one *frame*: a compact JSON object
whose ``k`` key names the frame kind.  Four kinds cover the whole
deployment tier:

``m``  a protocol message (the :mod:`repro.runtime.codec` envelope,
       embedded verbatim under ``m``) with a per-sender sequence
       number ``s`` -- the unit of the transport's ack/retransmit
       reliability.  With telemetry on the envelope carries the causal
       ids the sending transport stamped, so cross-process causal
       trees reconstruct; with it off they are simply absent;
``a``  an acknowledgment of sequence number ``s``;
``c``  a control request (``op`` + body ``b``, request id ``r``) --
       the small out-of-band protocol the node daemon, the rendezvous
       service and the cluster harness speak on the *same* socket as
       the protocol traffic;
``r``  a control response (echoing request id ``r``).

A frame embeds the codec's envelope *object* and both go through the
codec's :func:`~repro.runtime.codec.dump_wire`, so a message is
JSON-encoded exactly once and the datagram ceiling applies to the
*frame* -- the thing that actually hits the wire.

Control bodies may carry protocol values in the codec's tagged forms
(a whole neighbor table travels as the same flat ``$ts`` snapshot a
``CpRlyMsg`` carries), so a harness can rebuild real
:class:`~repro.routing.table.NeighborTable` objects from remote
snapshots and run the Definition 3.8 checker on them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.routing.table import NeighborTable
from repro.runtime.codec import (
    MalformedWireError,
    decode_value,
    dump_wire,
    encode_value,
    load_wire,
    message_from_obj,
    message_to_obj,
)

#: Frame kinds.
MSG, ACK, CTL, RSP = "m", "a", "c", "r"

_KINDS = (MSG, ACK, CTL, RSP)  # a tuple: ``in`` must not hash a bad ``k``


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialize a frame dict to its UTF-8 datagram, enforcing the
    UDP payload ceiling."""
    return dump_wire(frame, f"frame kind {frame.get('k')!r}")


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Parse one datagram into its frame dict (kind-checked)."""
    frame = load_wire(data, "frame")
    if not isinstance(frame, dict) or frame.get("k") not in _KINDS:
        raise MalformedWireError(f"not a frame: {data[:80]!r}")
    return frame


# -- frame constructors -----------------------------------------------------


def msg_frame(seq: int, message: Message) -> Dict[str, Any]:
    """A protocol-message frame awaiting acknowledgment of ``seq``."""
    return {"k": MSG, "s": seq, "m": message_to_obj(message)}


def ack_frame(seq: int) -> Dict[str, Any]:
    """An acknowledgment of message sequence number ``seq``."""
    return {"k": ACK, "s": seq}


def ctl_frame(rid: int, op: str, body: Optional[Dict[str, Any]] = None
              ) -> Dict[str, Any]:
    """A control request ``op`` with request id ``rid``."""
    return {
        "k": CTL, "r": rid, "op": op,
        "b": body if body is not None else {},
    }


def rsp_frame(rid: int, body: Dict[str, Any]) -> Dict[str, Any]:
    """The response to the control request with id ``rid``."""
    return {"k": RSP, "r": rid, "b": body}


def frame_message(frame: Dict[str, Any]) -> Message:
    """The protocol message embedded in an ``m`` frame."""
    return message_from_obj(frame.get("m"))


# -- addresses --------------------------------------------------------------

#: A UDP endpoint as ``(host, port)``.
Address = Tuple[str, int]


def parse_hostport(text: str) -> Address:
    """``"host:port"`` -> ``(host, port)`` (host may be empty for
    "all interfaces"; defaults to 127.0.0.1)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"invalid port in {text!r}") from None
    return (host or "127.0.0.1", port_num)


def format_hostport(addr: Address) -> str:
    """``(host, port)`` -> ``"host:port"`` (inverse of
    :func:`parse_hostport`)."""
    return f"{addr[0]}:{addr[1]}"


# -- protocol values in control bodies --------------------------------------


def node_id_to_wire(node_id: NodeId) -> Any:
    """A node ID as a JSON-ready tagged value."""
    return encode_value(node_id)


def node_id_from_wire(obj: Any) -> NodeId:
    """Decode a tagged value, requiring it to be a node ID."""
    value = decode_value(obj)
    if not isinstance(value, NodeId):
        raise MalformedWireError(f"expected a node id, got {value!r}")
    return value


def table_to_wire(table: NeighborTable) -> Dict[str, Any]:
    """A neighbor table's filled entries as a JSON-ready object (the
    payload of the control protocol's ``table`` response)."""
    return {
        "owner": encode_value(table.owner),
        "entries": encode_value(table.snapshot()),
    }


def table_from_wire(obj: Dict[str, Any]) -> NeighborTable:
    """Rebuild a :class:`NeighborTable` from its wire form.  The
    result carries forward entries only (reverse-neighbor records stay
    node-local), which is everything the Definition 3.8 checker reads."""
    try:
        table = NeighborTable(node_id_from_wire(obj["owner"]))
        for entry in decode_value(obj["entries"]):
            table.set_entry(*entry)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedWireError(f"bad table snapshot: {exc}") from exc
    return table


__all__ = [
    "ACK",
    "Address",
    "CTL",
    "MSG",
    "RSP",
    "ack_frame",
    "ctl_frame",
    "decode_frame",
    "encode_frame",
    "format_hostport",
    "frame_message",
    "msg_frame",
    "node_id_from_wire",
    "node_id_to_wire",
    "parse_hostport",
    "rsp_frame",
    "table_from_wire",
    "table_to_wire",
]
