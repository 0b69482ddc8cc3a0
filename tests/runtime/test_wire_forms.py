"""The wire forms themselves: round trips over every message type with
real table snapshots, golden bytes, mutation fuzzing, the bounded ID
intern table, and the ill-typed values a live transport must count as
``malformed``.

``tests/runtime/test_codec.py`` pins the codec's contract (and runs a
network over decoded clones); this file pins the *forms* -- the flat
``$ts`` snapshot, the string ``$id`` -- so neither can drift silently.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.idspace import IdSpace
from repro.net.datagram import DatagramTransport
from repro.net.wire import decode_frame, encode_frame, frame_message, msg_frame
from repro.network.message import Message
from repro.protocol.messages import (
    CpRlyMsg,
    JoinNotiMsg,
    JoinNotiRlyMsg,
    JoinWaitMsg,
    JoinWaitRlyMsg,
    snapshot_entry,
    snapshot_view,
)
from repro.routing.entry import NeighborState, TableEntry
from repro.runtime import codec
from repro.runtime.codec import (
    CAUSAL_SLOTS,
    ID_INTERN_BOUND,
    CodecError,
    MalformedWireError,
    _all_slots,
    _intern_id,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
    message_registry,
)
from repro.runtime.realtime import AsyncioRuntime
from tests.conftest import build_network, make_ids, run_joins
from tests.net.conftest import LoopbackNet

SPACE = IdSpace(4, 4)
S, T = NeighborState.S, NeighborState.T


@functools.lru_cache(maxsize=None)
def joined_network(base, digits):
    """IDs and table snapshots of a network after 10 concurrent joins."""
    space, ids = make_ids(base, digits, 34, seed=base + digits)
    network = run_joins(build_network(space, ids[:24], seed=digits), ids[24:])
    snapshots = [network.nodes[i].table.snapshot() for i in ids]
    assert all(snapshots)
    return ids, snapshots


def slot_strategy(slot, ids, snapshots):
    """What a real sender puts in ``slot``, by the slot's name; a new
    slot name fails here until it is given a strategy."""
    node = st.sampled_from(ids)
    small = st.integers(0, 40)
    position = st.tuples(small, small)
    if slot in ("sender", "origin", "subject", "referral"):
        return node
    if slot == "table":
        return st.builds(
            lambda snap, lo, flip: tuple(
                e._replace(state=T) if (e.level + e.digit) % 3 == flip else e
                for e in snap if e.level >= lo
            ),
            st.sampled_from(snapshots), st.integers(0, 3), st.integers(0, 3),
        )
    if slot in ("positive", "conflict"):
        return st.booleans()
    if slot in ("noti_level", "level", "digit", "ttl", "token",
                "bit_vector_bytes"):
        return small
    if slot == "sent_at":
        return st.floats(0, 1e6, allow_nan=False)
    if slot == "state":
        return st.sampled_from(NeighborState)
    if slot == "suffix":
        return st.lists(small, max_size=9).map(tuple)
    if slot == "candidates":
        return st.lists(node, max_size=6).map(tuple)
    if slot == "bitmap":
        return st.none() | st.frozensets(position, max_size=12)
    if slot in CAUSAL_SLOTS:
        return st.none() | st.integers(1, 10**9) | st.builds(
            "{}#{:08d}".format, node.map(str), st.integers(1, 10**7)
        )
    raise AssertionError(f"no strategy for slot {slot!r}")


@st.composite
def messages(draw):
    """An instance of any registered message class, filled per slot."""
    base, digits = draw(st.sampled_from([(4, 9), (16, 8)]))
    ids, snapshots = joined_network(base, digits)
    cls = draw(st.sampled_from(sorted(
        message_registry().values(), key=lambda c: c.type_name
    )))
    traced = draw(st.booleans())
    message = cls.__new__(cls)
    for slot in _all_slots(cls):
        if slot in CAUSAL_SLOTS and not traced:
            value = None
        else:
            value = draw(slot_strategy(slot, ids, snapshots))
        setattr(message, slot, value)
    return message


class TestEveryMessageRoundTrips:
    @given(messages(), st.integers(1, 2**31))
    @settings(max_examples=300, deadline=None)
    def test_frame_round_trip(self, message, seq):
        frame = decode_frame(encode_frame(msg_frame(seq, message)))
        clone = frame_message(frame)
        assert frame["s"] == seq and type(clone) is type(message)
        for slot in _all_slots(type(message)):
            original, decoded = getattr(message, slot), getattr(clone, slot)
            assert decoded == original and type(decoded) is type(original)
        table = getattr(message, "table", None)
        if table is not None:
            assert all(type(entry) is TableEntry for entry in clone.table)
            assert snapshot_view(clone.table) == snapshot_view(table)
            for level, digit in snapshot_view(table):
                assert snapshot_entry(clone.table, level, digit) == (
                    snapshot_entry(table, level, digit)
                )

    def test_every_registered_class_is_drawn_with_a_strategy(self):
        ids, snapshots = joined_network(4, 9)
        for cls in message_registry().values():
            for slot in _all_slots(cls):
                slot_strategy(slot, ids, snapshots)

    def test_new_message_class_needs_only_its_module_listed(self, monkeypatch):
        monkeypatch.setattr(
            codec, "MESSAGE_MODULES", codec.MESSAGE_MODULES + (__name__,)
        )
        try:
            message_registry(refresh=True)
            ids, snapshots = joined_network(16, 8)
            message = _ProbeMsg(ids[0], snapshots[0], (ids[1], 3, None, T))
            clone = decode_message(encode_message(message))
            assert type(clone) is _ProbeMsg
            assert (clone.table, clone.extra) == (message.table, message.extra)
        finally:
            monkeypatch.undo()
            message_registry(refresh=True)

    def test_tuples_that_are_not_snapshots_stay_generic(self):
        ids4, snaps4 = joined_network(4, 9)
        ids16, snaps16 = joined_network(16, 8)
        mixed_base = (snaps4[0][0], snaps16[0][0])
        mixed_type = (snaps4[0][0], 7)
        for value in (mixed_base, mixed_type, (), (ids4[0], ids16[0])):
            wire = json.loads(json.dumps(encode_value(value)))
            assert "$tu" in wire
            clone = decode_value(wire)
            assert clone == value
            assert [type(v) for v in clone] == [type(v) for v in value]
        assert "$ts" in encode_value(snaps4[0])


class _ProbeMsg(Message):
    """A message type the codec has never heard of."""

    __slots__ = ("table", "extra")
    type_name = "_ProbeMsg"

    def __init__(self, sender, table, extra):
        super().__init__(sender)
        self.table = table
        self.extra = extra


def golden_messages():
    """One message of each table-carrying type over fixed b4 d4 IDs."""
    a, b, c = (SPACE.from_string(s) for s in ("0123", "3210", "2031"))
    table = (
        TableEntry(0, 3, a, S), TableEntry(1, 1, b, T), TableEntry(3, 0, c, S),
    )
    noti = JoinNotiMsg(a, table, 2, 4, frozenset([(0, 3), (1, 1)]))
    noti.msg_id = noti.trace_id = "0123#00000001"
    return [
        CpRlyMsg(a, table),
        JoinWaitRlyMsg(b, False, c, table[:1]),
        noti,
        JoinNotiRlyMsg(c, True, table[1:], False),
    ]


GOLDEN_FRAMES = [
    b'{"k":"m","m":{"f":{"sender":{"$id":["0123",4]},"table":{"$ts":[4,'
    b'[0,3,"0123","S",1,1,"3210","T",3,0,"2031","S"]]}},"t":"CpRlyMsg"},'
    b'"s":7}',
    b'{"k":"m","m":{"f":{"positive":false,"referral":{"$id":["2031",4]},'
    b'"sender":{"$id":["3210",4]},"table":{"$ts":[4,[0,3,"0123","S"]]}},'
    b'"t":"JoinWaitRlyMsg"},"s":7}',
    b'{"k":"m","m":{"f":{"bit_vector_bytes":4,"bitmap":{"$fs":[{"$tu":[0,3]},'
    b'{"$tu":[1,1]}]},"msg_id":"0123#00000001","noti_level":2,'
    b'"sender":{"$id":["0123",4]},"table":{"$ts":[4,[0,3,"0123","S",1,1,'
    b'"3210","T",3,0,"2031","S"]]},"trace_id":"0123#00000001"},'
    b'"t":"JoinNotiMsg"},"s":7}',
    b'{"k":"m","m":{"f":{"conflict":false,"positive":true,'
    b'"sender":{"$id":["2031",4]},"table":{"$ts":[4,[1,1,"3210","T",3,0,'
    b'"2031","S"]]}},"t":"JoinNotiRlyMsg"},"s":7}',
]


class TestGoldenBytes:
    def test_table_carrying_frames_are_byte_stable(self):
        frames = [encode_frame(msg_frame(7, m)) for m in golden_messages()]
        assert frames == GOLDEN_FRAMES

    def test_golden_bytes_decode_to_the_messages(self):
        for data, message in zip(GOLDEN_FRAMES, golden_messages()):
            clone = frame_message(decode_frame(data))
            for slot in _all_slots(type(message)):
                assert getattr(clone, slot) == getattr(message, slot)


#: Well-formed JSON, ill-typed values: what ``sender`` must never be.
#: The first four escaped the transport's filter as plain ValueErrors
#: (digit out of range, bad base, arity, no such member); the rest are
#: the previous tree's ``$id`` / ``$nt`` forms and new-form abuse.
ILL_TYPED_VALUES = [
    {"$id": [[99], 16]},
    {"$id": [[1, 2], 1]},
    {"$id": [[1, 2], 16, 3]},
    {"$en": ["NeighborState", "X"]},
    {"$id": [[0, 1, 2, 3], 4]},
    {"$nt": ["TableEntry", [0, 1, {"$id": [[1, 2], 4]},
                            {"$en": ["NeighborState", "S"]}]]},
    {"$id": ["0129", 4]},
    {"$id": ["0123", 1]},
    {"$id": ["0123", 4.0]},
    {"$id": ["ABCD", 16]},
    {"$id": "0123"},
    {"$ts": [4, [0, 3, "0123"]]},
    {"$ts": [4, [0, 3, "0123", "X"]]},
    {"$ts": [4, [0, 3, "0193", "S"]]},
    {"$ts": [4, []]},
    {"$ts": [4, "0123"]},
    {"$tu": "abc"},
    {"$fs": [[1]]},
    {"$nt": ["TableEntry", [0, 1]]},
    {"$en": [["NeighborState"], "S"]},
]


def frame_with_sender(value):
    return json.dumps({
        "k": "m", "s": 1, "m": {"t": "JoinWaitMsg", "f": {"sender": value}},
    }).encode()


class TestIllTypedValues:
    @pytest.mark.parametrize("value", ILL_TYPED_VALUES, ids=json.dumps)
    def test_codec_raises_malformed(self, value):
        with pytest.raises(MalformedWireError):
            decode_value(value)
        with pytest.raises(MalformedWireError):
            frame_message(decode_frame(frame_with_sender(value)))

    def test_live_transport_counts_them_and_raises_nothing(self):
        with LoopbackNet(2) as net:
            target = net.transports[1]
            escaped = []
            net.runtime.loop.set_exception_handler(
                lambda loop, context: escaped.append(context)
            )

            def blast():
                for value in ILL_TYPED_VALUES:
                    net.transports[0]._endpoint.sendto(
                        frame_with_sender(value), target.local_addr
                    )

            net.runtime.schedule(0.0, blast)
            received = []
            net.nodes[1].handles(JoinWaitMsg, received.append)
            net.runtime.schedule(5.0, lambda: net.transports[0].send(
                net.ids[1], JoinWaitMsg(net.ids[0])
            ))
            net.run(wall_budget=10.0)
            assert not escaped
            assert target.counters["malformed"] == len(ILL_TYPED_VALUES)
            assert len(received) == 1
            sent, got = (
                net.transports[0].counters["wire_bytes_sent"],
                target.counters["wire_bytes_received"],
            )
            # transports[0] also sent the blast through the raw socket.
            blast_bytes = sum(
                len(frame_with_sender(v)) for v in ILL_TYPED_VALUES
            )
            assert sent > 0 and got == sent + blast_bytes


def mutate(tree, path, op, scalar):
    """Apply one edit at ``path`` (a list of child indices, taken
    modulo each container's size) of a JSON tree, in place."""
    parent, key, node = None, None, tree
    for step in path:
        if isinstance(node, dict) and node:
            parent, key = node, sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            parent, key = node, step % len(node)
        else:
            break
        node = parent[key]
    if parent is None:
        return scalar
    if op == "delete":
        del parent[key]
    elif op == "replace":
        parent[key] = scalar
    elif op == "retag" and isinstance(parent, dict):
        parent[scalar if isinstance(scalar, str) else "$id"] = parent.pop(key)
    elif op == "wrap":
        parent[key] = [node]
    else:
        parent[key] = {"$tu": node}
    return tree


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 99), st.floats(allow_nan=False),
    st.sampled_from(["", "S", "X", "0123", "$ts", "$id", "$en", "$nt", "$tu",
                     "$fs", "m", "a", "CpRlyMsg", "NeighborState"]),
)


class TestMutationFuzz:
    """Whatever arrives decodes to a Message or raises a CodecError,
    and the transport agrees: no other exception, ``malformed`` up."""

    @pytest.fixture(scope="class")
    def transport(self):
        runtime = AsyncioRuntime(time_scale=0.0002)
        transport = DatagramTransport(runtime, ("127.0.0.1", 0))
        yield transport
        transport.close()
        runtime.close()

    def check(self, transport, data):
        try:
            outcome = frame_message(decode_frame(data))
        except CodecError:
            outcome = None
        else:
            assert isinstance(outcome, Message)
        before = transport.counters["malformed"]
        transport._on_datagram(data, ("127.0.0.1", 9))
        if outcome is None:
            assert transport.counters["malformed"] == before + 1

    @given(
        messages(), st.lists(st.integers(0, 50), max_size=7),
        st.sampled_from(["delete", "replace", "retag", "wrap", "tuple"]),
        SCALARS,
    )
    @settings(max_examples=400, deadline=None)
    def test_structural_mutations(self, transport, message, path, op, scalar):
        tree = json.loads(encode_frame(msg_frame(3, message)))
        tree = mutate(tree, path, op, scalar)
        self.check(transport, json.dumps(tree).encode())

    @given(messages(), st.integers(0, 10**6), st.integers(0, 255),
           st.sampled_from(["flip", "cut", "drop"]))
    @settings(max_examples=300, deadline=None)
    def test_byte_mutations(self, transport, message, where, byte, op):
        data = bytearray(encode_frame(msg_frame(3, message)))
        at = where % len(data)
        if op == "flip":
            data[at] = byte
        elif op == "cut":
            del data[at:]
        else:
            del data[at]
        self.check(transport, bytes(data))


class TestInternTable:
    def test_bounded_and_still_correct(self):
        space = IdSpace(16, 8)
        ids = [space.from_int(i * 7919) for i in range(ID_INTERN_BOUND + 500)]
        for node_id in ids:
            assert decode_value(encode_value(node_id)) == node_id
        assert _intern_id.cache_info().currsize <= ID_INTERN_BOUND
        # Evicted and re-validated, or still cached: equal either way.
        assert decode_value(encode_value(ids[0])) == ids[0]
        assert decode_value(encode_value(ids[-1])) is decode_value(
            encode_value(ids[-1])
        )

    def test_every_miss_is_validated(self):
        _intern_id.cache_clear()
        for bad in (["00zz", 16], ["0005", 4], ["", 4], ["01", 37]):
            for _ in range(2):  # failures are not cached either
                with pytest.raises(MalformedWireError):
                    decode_value({"$id": bad})
        assert _intern_id.cache_info().currsize == 0
