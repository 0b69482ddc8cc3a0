"""Unit tests for the transport layer."""

import pytest

from repro.ids.idspace import IdSpace
from repro.network.message import Message
from repro.network.node import NetworkNode
from repro.network.transport import Transport, UnknownDestinationError
from repro.sim.scheduler import Simulator
from repro.topology.attachment import ConstantLatencyModel

SPACE = IdSpace(4, 4)


class Ping(Message):
    type_name = "Ping"


class Pong(Message):
    type_name = "Pong"


class Echoer(NetworkNode):
    def __init__(self, node_id, transport):
        super().__init__(node_id, transport)
        self.received = []
        self.handles(Ping, self._on_ping)
        self.handles(Pong, self._on_pong)

    def _on_ping(self, msg):
        self.received.append(("ping", self.now))
        self.send(msg.sender, Pong(self.node_id))

    def _on_pong(self, msg):
        self.received.append(("pong", self.now))


def make_pair(delay=2.0):
    sim = Simulator()
    transport = Transport(sim, ConstantLatencyModel(delay))
    a = Echoer(SPACE.from_string("0000"), transport)
    b = Echoer(SPACE.from_string("1111"), transport)
    return sim, transport, a, b


class TestTransport:
    def test_delivery_with_latency(self):
        sim, transport, a, b = make_pair(delay=2.0)
        transport.send(b.node_id, Ping(a.node_id))
        sim.run()
        assert b.received == [("ping", 2.0)]
        assert a.received == [("pong", 4.0)]

    def test_unknown_destination_is_dropped(self):
        sim, transport, a, b = make_pair()
        assert not transport.send(SPACE.from_string("2222"), Ping(a.node_id))
        sim.run()
        assert transport.stats.total_dropped == 1
        assert transport.stats.count("Ping") == 0

    def test_duplicate_registration_rejected(self):
        sim, transport, a, b = make_pair()
        with pytest.raises(ValueError):
            Echoer(a.node_id, transport)

    def test_stats_count_sends(self):
        sim, transport, a, b = make_pair()
        transport.send(b.node_id, Ping(a.node_id))
        sim.run()
        assert transport.stats.count("Ping") == 1
        assert transport.stats.count("Pong") == 1
        assert transport.stats.total_messages == 2

    def test_node_lookup(self):
        sim, transport, a, b = make_pair()
        assert transport.node(a.node_id) is a
        assert transport.knows(b.node_id)
        assert not transport.knows(SPACE.from_string("3333"))
        with pytest.raises(UnknownDestinationError):
            transport.node(SPACE.from_string("3333"))

    def test_node_ids(self):
        sim, transport, a, b = make_pair()
        assert set(transport.node_ids) == {a.node_id, b.node_id}

    def test_unhandled_message_type_raises(self):
        sim, transport, a, b = make_pair()

        class Mystery(Message):
            type_name = "Mystery"

        transport.send(b.node_id, Mystery(a.node_id))
        with pytest.raises(NotImplementedError):
            sim.run()

    def test_send_to_self_allowed(self):
        sim, transport, a, b = make_pair()
        a.send(a.node_id, Ping(a.node_id))
        sim.run()
        # a pings itself, then pongs itself.
        assert ("ping", 2.0) in a.received


class TestLossySend:
    """``send`` returns whether the message was dispatched: a dead
    destination or the drop filter drops it."""

    def test_live_destination_is_dispatched(self):
        sim, transport, a, b = make_pair()
        assert transport.send(b.node_id, Ping(a.node_id)) is True
        sim.run()
        assert b.received == [("ping", 2.0)]

    def test_dead_destination_is_dropped(self):
        sim, transport, a, b = make_pair()
        dead = SPACE.from_string("3333")
        assert transport.send(dead, Ping(a.node_id)) is False
        assert transport.stats.total_dropped == 1
        assert transport.stats.total_messages == 0

    def test_filtered_message_is_not_reported_sent(self):
        sim, transport, a, b = make_pair()
        transport.drop_filter = lambda message, dst: True
        assert transport.send(b.node_id, Ping(a.node_id)) is False
        sim.run()
        assert b.received == []
        assert transport.stats.total_dropped == 1
        assert transport.stats.total_messages == 0


class TestMessageEventSchema:
    """The ``message.*`` attributes a traced in-memory join writes,
    including a ``drop_filter`` drop and a send to a node that is not
    registered."""

    def test_attribute_keys_of_a_traced_join(self):
        import random

        from repro.obs.instrument import Observability
        from repro.protocol.join import JoinProtocolNetwork
        from repro.protocol.messages import JoinWaitMsg
        from repro.protocol.network_init import single_node_table

        obs = Observability.tracing()
        ids = SPACE.random_unique_ids(5, random.Random(1))
        net = JoinProtocolNetwork(SPACE, obs=obs, seed=3)
        net.add_s_node(ids[0], single_node_table(ids[0]))
        for node_id in ids[1:4]:
            net.start_join(node_id, gateway=ids[0])
        net.run()
        transport = net.transport
        transport.drop_filter = lambda message, dst: True
        transport.send(ids[1], JoinWaitMsg(ids[0]))
        assert not transport.send(ids[4], JoinWaitMsg(ids[0]))
        net.run()
        keys = {}
        for event in obs.tracer.events():
            if event.name.startswith("message."):
                keys.setdefault(event.name, set()).add(tuple(event.attrs))
        assert len(obs.tracer.events("message.drop")) == 2
        assert keys == {
            "message.send": {(
                "type", "src", "dst", "bytes", "latency", "msg", "parent",
                "trace",
            )},
            "message.deliver": {("type", "src", "dst", "msg")},
            "message.drop": {(
                "type", "src", "dst", "msg", "parent", "trace",
            )},
        }
