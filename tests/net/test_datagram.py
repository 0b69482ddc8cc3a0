"""DatagramTransport tests: the protocol over real loopback UDP.

These run the unmodified :class:`~repro.protocol.node.ProtocolNode`
state machine over kernel sockets -- including the wire-adversity
acceptance scenario: a ``JoinNotiMsg`` dropped at the UDP layer must
be recovered by the retransmission (recovery) timer, and the network
must still converge to Definition 3.8 consistency.
"""

import socket

import pytest

from repro.consistency.checker import check_consistency
from repro.ids.idspace import IdSpace
from repro.net.datagram import DatagramTransport
from repro.net.faults import FaultPlan
from repro.net.wire import ack_frame, decode_frame, encode_frame
from repro.protocol.messages import JoinWaitMsg
from repro.protocol.status import NodeStatus
from repro.runtime.realtime import AsyncioRuntime

from tests.net.conftest import TEST_TIME_SCALE, LoopbackNet

SPACE = IdSpace(4, 4)


class TestTransportBasics:
    def test_open_resolves_port_zero(self):
        runtime = AsyncioRuntime(time_scale=TEST_TIME_SCALE)
        transport = DatagramTransport(runtime, ("127.0.0.1", 0))
        try:
            host, port = transport.open()
            assert host == "127.0.0.1"
            assert port != 0
        finally:
            transport.close()
            runtime.close()

    def test_one_node_per_transport(self):
        with LoopbackNet(1) as net:
            transport = net.transports[0]
            with pytest.raises(ValueError):
                transport.register(net.nodes[0])

    def test_raw_message_crosses_the_wire(self):
        with LoopbackNet(2) as net:
            received = []
            net.nodes[1].handles(JoinWaitMsg, received.append)
            message = JoinWaitMsg(net.ids[0])
            net.runtime.schedule(
                0.0, lambda: net.transports[0].send(net.ids[1], message)
            )
            net.run(wall_budget=10.0)
            assert len(received) == 1
            assert received[0].sender == net.ids[0]
            assert net.transports[0].counters["acks_received"] == 1

    def test_malformed_datagram_is_counted_not_fatal(self):
        with LoopbackNet(2) as net:
            target = net.transports[1]
            sock_addr = target.local_addr

            def blast():
                net.transports[0]._endpoint.sendto(b"garbage", sock_addr)

            net.runtime.schedule(0.0, blast)
            # A follow-up real message proves the endpoint survived.
            message = JoinWaitMsg(net.ids[0])
            received = []
            net.nodes[1].handles(JoinWaitMsg, received.append)
            net.runtime.schedule(
                5.0, lambda: net.transports[0].send(net.ids[1], message)
            )
            net.run(wall_budget=10.0)
            assert target.counters["malformed"] == 1
            assert len(received) == 1


class TestJoinsOverUdp:
    def test_single_join_over_loopback(self):
        with LoopbackNet(2) as net:
            net.join(1)
            net.run(wall_budget=20.0)
            assert net.nodes[1].status is NodeStatus.IN_SYSTEM
            assert check_consistency(net.tables()).consistent

    def test_concurrent_joins_over_loopback(self):
        with LoopbackNet(5) as net:
            for index in range(1, 5):
                net.join(index)
            net.run(wall_budget=40.0)
            assert all(
                node.status is NodeStatus.IN_SYSTEM for node in net.nodes
            )
            assert check_consistency(net.tables()).consistent


class TestWireAdversity:
    """The acceptance scenario: loss at the UDP layer, recovery by
    retransmission timer, convergence to Definition 3.8."""

    def test_dropped_join_noti_recovers_via_retransmit_timer(self):
        # Node 2 joins with its first outgoing JoinNotiMsg eaten by
        # the wire; node 1 joins cleanly first to give it someone to
        # notify.
        plan = FaultPlan(drop_first={"JoinNotiMsg": 1})
        with LoopbackNet(3, fault_plans={2: plan}) as net:
            net.join(1)
            net.run(wall_budget=20.0)
            net.join(2)
            net.run(wall_budget=30.0)

            joiner = net.transports[2]
            assert joiner.faults.dropped >= 1, "the drop must have happened"
            assert joiner.counters["retransmits"] >= 1, (
                "recovery timer must have fired and retransmitted"
            )
            assert joiner.counters["gave_up"] == 0
            assert all(
                node.status is NodeStatus.IN_SYSTEM for node in net.nodes
            )
            report = check_consistency(net.tables())
            assert report.consistent, report.violations

    def test_random_loss_still_converges(self):
        plans = {
            index: FaultPlan(loss=0.10, seed=index + 1)
            for index in range(4)
        }
        with LoopbackNet(4, fault_plans=plans) as net:
            for index in range(1, 4):
                net.join(index)
            net.run(wall_budget=60.0)
            assert all(
                node.status is NodeStatus.IN_SYSTEM for node in net.nodes
            )
            assert check_consistency(net.tables()).consistent
            total_dropped = sum(
                t.faults.dropped for t in net.transports
            )
            assert total_dropped > 0, "loss plan should have bitten"

    def test_duplicates_are_suppressed(self):
        plans = {0: FaultPlan(duplicate=1.0)}
        with LoopbackNet(2, fault_plans=plans) as net:
            received = []
            net.nodes[1].handles(JoinWaitMsg, received.append)
            message = JoinWaitMsg(net.ids[0])
            net.runtime.schedule(
                0.0, lambda: net.transports[0].send(net.ids[1], message)
            )
            net.run(wall_budget=10.0)
            assert len(received) == 1, "duplicate delivered twice"
            assert (
                net.transports[1].counters["duplicates_suppressed"] >= 1
            )


class TestAddressLearning:
    def test_receiver_learns_sender_address_from_datagram(self):
        with LoopbackNet(2) as net:
            # Receiver does NOT know the sender a priori.
            del net.transports[1].peers[net.ids[0]]
            received = []
            net.nodes[1].handles(JoinWaitMsg, received.append)
            net.runtime.schedule(
                0.0,
                lambda: net.transports[0].send(
                    net.ids[1], JoinWaitMsg(net.ids[0])
                ),
            )
            net.run(wall_budget=10.0)
            assert len(received) == 1
            assert (
                net.transports[1].peers[net.ids[0]]
                == net.transports[0].local_addr
            )

    def test_send_without_address_or_rendezvous_drops(self):
        with LoopbackNet(2) as net:
            sender = net.transports[0]
            del sender.peers[net.ids[1]]
            net.runtime.schedule(
                0.0,
                lambda: sender.send(net.ids[1], JoinWaitMsg(net.ids[0])),
            )
            net.run(wall_budget=10.0)
            assert sender.counters["resolve_failures"] == 1
            assert sender.stats.total_dropped == 1


class BlackHole:
    """A bound UDP socket that reads nothing and answers nothing."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        self.addr = self.sock.getsockname()

    def drain(self):
        """Every datagram that arrived so far, oldest first."""
        received = []
        while True:
            try:
                received.append(self.sock.recv(65536))
            except BlockingIOError:
                return received

    def close(self):
        self.sock.close()


@pytest.fixture
def hole():
    sink = BlackHole()
    yield sink
    sink.close()


class TestGiveUp:
    """The ends of the retry machine: what a silent peer costs, and
    which acks may time the wire."""

    def test_black_hole_peer_gets_eleven_copies_then_a_give_up(self, hole):
        with LoopbackNet(2, telemetry=True) as net:
            sender = net.transports[0]
            sender.add_peer(net.ids[1], hole.addr)
            net.runtime.schedule(
                0.0,
                lambda: sender.send(net.ids[1], JoinWaitMsg(net.ids[0])),
            )
            net.run(wall_budget=20.0)
            assert len(hole.drain()) == 11
            assert sender.counters["datagrams_sent"] == 11
            assert sender.counters["retransmits"] == 10
            assert sender.counters["gave_up"] == 1
            assert sender.counters["acks_received"] == 0
            registry = sender.stats.registry
            assert registry.values_by_label(
                "messages_retransmitted", "type"
            ) == {"JoinWaitMsg": 10}
            assert registry.values_by_label(
                "messages_dropped", "type"
            ) == {"JoinWaitMsg": 1}
            gave_up = [
                event for event in net.telemetries[0].tracer.events()
                if event.name == "message.gave_up"
            ]
            assert len(gave_up) == 1
            assert gave_up[0].attrs["retries"] == 10
            assert gave_up[0].attrs["type"] == "JoinWaitMsg"
            assert sender.unacked_count == 0
            assert net.runtime.pending_events == 0

    def test_control_request_to_silent_address_times_out_once(self, hole):
        with LoopbackNet(1) as net:
            transport = net.transports[0]
            replies = []
            net.runtime.schedule(
                0.0,
                lambda: transport.control_request(
                    hole.addr, "ping", None, replies.append
                ),
            )
            net.run(wall_budget=20.0)
            assert len(hole.drain()) == 6
            assert transport.counters["datagrams_sent"] == 6
            assert transport.counters["control_requests"] == 1
            assert transport.counters["control_timeouts"] == 1
            assert replies == [None]
            assert net.runtime.pending_events == 0

    def test_ack_after_a_retransmission_records_no_rtt(self, hole):
        """Karn's rule: an ack for a retransmitted datagram may answer
        either copy, so it is no RTT sample; a first-copy ack is."""
        with LoopbackNet(2, telemetry=True) as net:
            sender = net.transports[0]
            sender.add_peer(net.ids[1], hole.addr)
            net.runtime.schedule(
                0.0,
                lambda: sender.send(net.ids[1], JoinWaitMsg(net.ids[0])),
            )

            def ack_once_retransmitted():
                if sender.counters["retransmits"] == 0:
                    net.runtime.schedule(5.0, ack_once_retransmitted)
                    return
                seq = decode_frame(hole.drain()[0])["s"]
                hole.sock.sendto(
                    encode_frame(ack_frame(seq)), sender.local_addr
                )

            net.runtime.schedule(30.0, ack_once_retransmitted)
            net.run(wall_budget=20.0)
            assert sender.counters["retransmits"] >= 1
            assert sender.counters["acks_received"] == 1
            assert sender.counters["gave_up"] == 0

            metrics = net.telemetries[0].metrics

            def rtt_samples():
                return sum(
                    value for key, value in metrics.snapshot().items()
                    if key.startswith("net_ack_rtt_ms")
                    and key.endswith("_count")
                )

            assert rtt_samples() == 0
            retransmits = sender.counters["retransmits"]
            sender.add_peer(net.ids[1], net.transports[1].local_addr)
            net.runtime.schedule(
                0.0,
                lambda: sender.send(net.ids[1], JoinWaitMsg(net.ids[0])),
            )
            net.run(wall_budget=20.0)
            assert sender.counters["acks_received"] == 2
            first_copy = sender.counters["retransmits"] == retransmits
            assert rtt_samples() == (1 if first_copy else 0)
