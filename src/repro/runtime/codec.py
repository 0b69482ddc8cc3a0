"""The one tagged-JSON value codec, and the protocol-message envelope.

A message crosses the wire as ``{"t": <type_name>, "f": {<slot>:
<value>, ...}}`` in compact sorted-key UTF-8 JSON.  Scalars are plain
JSON; every other value is a one-key object whose key tags its form:

``{"$id": [text, base]}``  a :class:`~repro.ids.digits.NodeId` as its
    printable string.  Decoding goes through a bounded intern table
    (:data:`ID_INTERN_BOUND`): a cluster builds each ID once, and
    every miss runs the full digit/base validation.
``{"$ts": [base, [level, digit, text, state, ...]]}``  a table
    snapshot -- a non-empty tuple of :class:`TableEntry` whose nodes
    share one base -- as one flat list of four-item records, which
    ``json`` handles in C and the decoder rebuilds in strided passes.
``{"$en": [name, value]}``  a member of an allow-listed enum.
``{"$nt": [name, items]}``  any other allow-listed named tuple.
``{"$tu": [...]}`` / ``{"$fs": [...]}``  other tuples; frozensets.

Each value type has exactly one form and the wire carries no version
field: all daemons of a cluster run the same tree.  Whatever else
arrives -- another tree's forms included -- raises a
:class:`CodecError` subclass, never anything else.

Message encoding is generic over ``__slots__`` (each class's slot plan
is worked out once), so a new :class:`~repro.network.message.Message`
subclass built from supported value types needs nothing beyond
:data:`MESSAGE_MODULES`; decoding skips ``__init__`` and restores each
slot.  The causal-stamping ids alone are optional on the wire.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.ids.digits import NodeId, digits_from_string
from repro.network.message import Message
from repro.routing.entry import NeighborState, TableEntry

#: Modules whose Message subclasses belong to the wire protocol.
MESSAGE_MODULES = (
    "repro.protocol.messages",
    "repro.protocol.leave",
    "repro.recovery.messages",
    "repro.optimize.messages",
)

#: Practical datagram ceiling (bytes); see :func:`dump_wire`.
MAX_DATAGRAM_BYTES = 65507

#: Slots carrying causal-stamping identity rather than protocol
#: payload: omitted when ``None``, defaulted to ``None`` when absent.
CAUSAL_SLOTS = frozenset(("msg_id", "parent_id", "trace_id"))

#: Distinct node IDs the decoder keeps interned (least recently used
#: evicted); a cluster of fewer daemons never validates an ID twice.
ID_INTERN_BOUND = 4096

_SCALARS = frozenset((type(None), bool, int, float, str))
_STATES = {state.value: state for state in NeighborState}
_ABSENT = object()
_ILL_TYPED = (ValueError, TypeError, KeyError, AttributeError)


class CodecError(ValueError):
    """A value or message the codec cannot (de)serialize."""


class OversizedMessageError(CodecError):
    """An encoded message exceeds the UDP datagram ceiling."""


class MalformedWireError(CodecError):
    """Bytes that do not parse as a wire envelope (invalid UTF-8 or
    JSON, a missing key or slot), or an ill-typed tagged value."""


class UnknownMessageTypeError(CodecError):
    """A well-formed envelope names a message type the registry does
    not know: the peer speaks a newer (or foreign) protocol."""

    def __init__(self, type_name: str):
        super().__init__(f"unknown message type on the wire: {type_name}")
        self.type_name = type_name


class UnknownWireTagError(CodecError):
    """A tagged value the decoder does not recognize: an unknown tag,
    or an enum / named-tuple name this build does not allow."""

    def __init__(self, tag: str, detail: str):
        super().__init__(f"unknown wire tag {tag!r}: {detail}")
        self.tag = tag


_registry: Optional[Dict[str, Type[Message]]] = None


def message_registry(refresh: bool = False) -> Dict[str, Type[Message]]:
    """All concrete wire message types, keyed by ``type_name``:
    the :class:`~repro.network.message.Message` subclasses that
    declare their own ``type_name`` inside :data:`MESSAGE_MODULES`
    (imported here).  Abstract bases are skipped, and ad-hoc subclasses
    (test fakes, experiment probes) cannot shadow the wire's types."""
    global _registry
    if _registry is not None and not refresh:
        return _registry
    for module in MESSAGE_MODULES:
        importlib.import_module(module)
    classes = [Message]
    for cls in classes:  # grows as it goes: the whole subclass tree
        classes.extend(cls.__subclasses__())
    _registry = {
        cls.type_name: cls for cls in classes
        if "type_name" in cls.__dict__ and cls.__module__ in MESSAGE_MODULES
    }
    return _registry


@functools.lru_cache(maxsize=None)
def _all_slots(cls: type) -> Tuple[str, ...]:
    """Instance slots across the MRO, base-class first: the per-class
    slot plan, walked once."""
    return tuple(
        slot
        for klass in reversed(cls.__mro__)
        for slot in klass.__dict__.get("__slots__", ())
    )


# -- value forms ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def resolve_type(module: str, name: str) -> type:
    """Class ``name`` of ``module`` -- an allow-list's key and value."""
    return getattr(importlib.import_module(module), name)


@functools.lru_cache(maxsize=ID_INTERN_BOUND, typed=True)
def _intern_id(text: str, base: int) -> NodeId:
    """The node ID ``text`` prints; this body is the intern miss, and
    what it raises :meth:`ValueCodec.decode` reports as malformed."""
    if base.__class__ is not int:
        raise TypeError(f"base must be an int, got {base!r}")
    node_id = NodeId(digits_from_string(text, base), base)
    if str(node_id) != text:
        raise ValueError(f"{text!r} is not the canonical lower-case form")
    return node_id


def _flat_snapshot(entries: tuple) -> Optional[list]:
    """``[base, [level, digit, text, state, ...]]`` when ``entries``
    is a table snapshot, else ``None``."""
    flat: list = []
    base = None
    for entry in entries:
        if entry.__class__ is not TableEntry:
            return None
        level, digit, node, state = entry
        if node.__class__ is not NodeId or state.__class__ is not NeighborState:
            return None
        if node.base != base:
            if base is not None:
                return None
            base = node.base
        flat += (level, digit, str(node), state._value_)
    return [base, flat] if flat else None


def _snapshot(body: Any) -> Tuple[TableEntry, ...]:
    base, flat = body
    if flat.__class__ is not list or not flat or len(flat) % 4:
        raise ValueError("not a list of four-item records")
    nodes = [_intern_id(text, base) for text in flat[2::4]]
    states = [_STATES[value] for value in flat[3::4]]
    make = tuple.__new__  # what TableEntry._make does, minus two calls
    return tuple([
        make(TableEntry, record)
        for record in zip(flat[0::4], flat[1::4], nodes, states)
    ])


def _items(body: Any) -> list:
    if body.__class__ is not list:
        raise TypeError(f"expected a list, got {type(body).__name__}")
    return body


class ValueCodec:
    """The tagged value forms, both directions: the protocol dialect.
    A subclass is a wider one: it extends the allow-list :attr:`enums`
    and :attr:`tags` (tag -> ``decoder(codec, body)``), overrides
    :meth:`encode_other`, and names the :attr:`error` that raises."""

    enums: Dict[str, str] = {
        "NeighborState": "repro.routing.entry",
        "NodeStatus": "repro.protocol.status",
    }
    named_tuples: Dict[str, type] = {"TableEntry": TableEntry}
    error: Type[CodecError] = CodecError

    def encode(self, value: Any) -> Any:
        """``value`` in its JSON-ready tagged form."""
        if value.__class__ in _SCALARS:
            return value
        if value.__class__ is NodeId:
            return {"$id": [str(value), value.base]}
        if isinstance(value, enum.Enum):
            return {"$en": [type(value).__name__, value.value]}
        if isinstance(value, tuple):
            name = type(value).__name__
            if name in self.named_tuples:  # others travel as plain tuples
                return {"$nt": [name, [self.encode(v) for v in value]]}
            flat = _flat_snapshot(value)
            if flat is not None:
                return {"$ts": flat}
            return {"$tu": [self.encode(v) for v in value]}
        if isinstance(value, frozenset):
            encoded = [self.encode(v) for v in value]
            encoded.sort(key=repr)  # deterministic wire form
            return {"$fs": encoded}
        if isinstance(value, (int, float, str)):
            return value  # scalar subclasses: json writes the base value
        return self.encode_other(value)

    def encode_other(self, value: Any) -> Any:
        """Hook for the types a dialect adds; this one adds none."""
        raise self.error(
            f"cannot encode value of type {type(value).__name__}: {value!r}"
        )

    def decode(self, value: Any) -> Any:
        """Expand tags back into objects: :class:`UnknownWireTagError`
        for an unknown tag or name, else :class:`MalformedWireError`."""
        if value.__class__ is not dict:
            return value
        if len(value) == 1:
            (tag, body), = value.items()
            decoder = self.tags.get(tag)
            if decoder is not None:
                try:
                    return decoder(self, body)
                except CodecError:
                    raise
                except _ILL_TYPED as exc:
                    raise MalformedWireError(
                        f"ill-typed {tag} value: {exc!r}"
                    ) from None
        tags = ", ".join(sorted(k for k in map(str, value) if k[:1] == "$"))
        raise UnknownWireTagError(tags or "<none>", f"in value {value!r}")

    def _enum(self, body: Any) -> enum.Enum:
        name, value = body
        if name not in self.enums:
            raise UnknownWireTagError("$en", f"no such enum type: {name}")
        return resolve_type(self.enums[name], name)(value)

    def _named_tuple(self, body: Any) -> tuple:
        name, items = body
        if name not in self.named_tuples:
            raise UnknownWireTagError("$nt", f"no such named tuple: {name}")
        return self.named_tuples[name](*map(self.decode, _items(items)))

    tags: Dict[str, Callable[["ValueCodec", Any], Any]] = {
        "$id": lambda self, body: _intern_id(*body),
        "$ts": lambda self, body: _snapshot(body),
        "$en": _enum,
        "$nt": _named_tuple,
        "$tu": lambda self, body: tuple(map(self.decode, _items(body))),
        "$fs": lambda self, body: frozenset(map(self.decode, _items(body))),
    }


#: The protocol dialect, for layers (the control protocol) that carry
#: NodeIds and table snapshots outside a Message envelope.
encode_value = ValueCodec().encode
decode_value = ValueCodec().decode


# -- bytes and envelopes ----------------------------------------------------

_to_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def dump_wire(obj: Any, what: str, enforce_limit: bool = True) -> bytes:
    """``obj`` as compact sorted-key UTF-8 JSON; past the datagram
    ceiling raises :class:`OversizedMessageError` naming ``what``."""
    data = _to_json(obj).encode("utf-8")
    if enforce_limit and len(data) > MAX_DATAGRAM_BYTES:
        raise OversizedMessageError(
            f"{what} encodes to {len(data)} bytes (> {MAX_DATAGRAM_BYTES})"
        )
    return data


def load_wire(data: bytes, what: str) -> Any:
    """The JSON value in ``data``; :class:`MalformedWireError` naming
    ``what`` for bytes that do not parse (truncation included)."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedWireError(
            f"undecodable {what} ({len(data)} bytes): {exc}"
        ) from exc


def message_to_obj(message: Message) -> Dict[str, Any]:
    """The JSON-ready envelope ``{"t": ..., "f": {...}}`` for
    ``message``; :mod:`repro.net.wire` frames embed it as an object,
    so a message is JSON-encoded exactly once."""
    fields = {}
    for slot in _all_slots(type(message)):
        value = getattr(message, slot)
        if value is None and slot in CAUSAL_SLOTS:
            continue  # tracing off: keep the frame minimal
        fields[slot] = (
            value if value.__class__ in _SCALARS else encode_value(value)
        )
    return {"t": message.type_name, "f": fields}


def message_from_obj(envelope: Any) -> Message:
    """Rebuild a message from its envelope object (the inverse of
    :func:`message_to_obj`)."""
    if not isinstance(envelope, dict):
        raise MalformedWireError(
            f"message envelope must be an object, got {envelope!r}"
        )
    try:
        type_name, fields = envelope["t"], envelope["f"]
    except KeyError as exc:
        raise MalformedWireError(
            f"message envelope missing key {exc.args[0]!r}"
        ) from exc
    if type_name.__class__ is not str or fields.__class__ is not dict:
        raise MalformedWireError(f"ill-typed message envelope: {envelope!r}")
    try:
        cls = message_registry()[type_name]
    except KeyError:
        raise UnknownMessageTypeError(type_name) from None
    message = cls.__new__(cls)
    for slot in _all_slots(cls):
        value = fields.get(slot, _ABSENT)
        if value is _ABSENT:
            if slot not in CAUSAL_SLOTS:
                raise MalformedWireError(
                    f"{type_name} wire form missing field {slot!r}"
                )
            value = None
        setattr(message, slot, (
            decode_value(value) if value.__class__ is dict else value
        ))
    return message


def encode_message(
    message: Message, enforce_datagram_limit: bool = False
) -> bytes:
    """Serialize ``message`` to its UTF-8 wire form."""
    obj = message_to_obj(message)
    return dump_wire(obj, message.type_name, enforce_datagram_limit)


def decode_message(wire: bytes) -> Message:
    """The inverse of :func:`encode_message`.  Raises
    :class:`MalformedWireError` for bytes that do not parse (truncated
    datagrams included) or an ill-typed value,
    :class:`UnknownMessageTypeError` for an unregistered type and
    :class:`UnknownWireTagError` for an unrecognized tagged value."""
    return message_from_obj(load_wire(wire, "wire message"))


__all__ = [
    "CAUSAL_SLOTS",
    "CodecError",
    "ID_INTERN_BOUND",
    "MAX_DATAGRAM_BYTES",
    "MESSAGE_MODULES",
    "MalformedWireError",
    "OversizedMessageError",
    "UnknownMessageTypeError",
    "UnknownWireTagError",
    "ValueCodec",
    "decode_message",
    "decode_value",
    "dump_wire",
    "encode_message",
    "encode_value",
    "load_wire",
    "message_from_obj",
    "message_to_obj",
    "resolve_type",
]
