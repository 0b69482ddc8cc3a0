"""Distributed telemetry over real UDP sockets.

The loopback cluster gives every transport its own tracer/registry --
one per would-be process -- so these tests exercise the true
multi-tracer geometry: causal ids crossing the wire, per-daemon
traces merged onto one axis, and the analysis tier consuming the
merged stream exactly as it consumes a simulator trace.
"""

from repro.consistency.checker import check_consistency
from repro.net.faults import FaultPlan
from repro.obs.causality import CausalForest
from repro.obs.instrument import Observability
from repro.obs.remote import merge_traces
from repro.obs.report import RunReport
from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.messages import JoinWaitMsg
from repro.protocol.network_init import single_node_table

from tests.net.conftest import LoopbackNet


def _merged_forest(net):
    spans, events = merge_traces(net.daemon_traces())
    return spans, events, CausalForest.from_event_records(events)


class TestDistributedCausality:
    def test_concurrent_joins_build_validated_join_trees(self):
        with LoopbackNet(4, telemetry=True) as net:
            for index in range(1, 4):
                net.join(index)
            net.run()
            tables = net.tables()
            assert check_consistency(tables).consistent
            spans, events, forest = _merged_forest(net)
        assert forest.validate() == []
        trees = forest.join_trees()
        joiners = {str(net_id) for net_id in net.ids[1:]}
        assert set(trees) == joiners
        for joiner, tree in trees.items():
            root = tree[0]
            assert root.type == "CpRstMsg"
            assert root.src == joiner
            # The copy walk progressed: root has causal descendants,
            # and the cross-process deliver was matched to the send.
            assert len(tree) >= 2
            assert root.deliver_time is not None
            path = forest.critical_path(root.msg_id)
            assert path[0] is root

    def test_message_ids_are_cluster_unique_strings(self):
        with LoopbackNet(3, telemetry=True) as net:
            net.join(1)
            net.join(2)
            net.run()
            _, _, forest = _merged_forest(net)
        assert len(forest) > 0
        for msg_id, record in forest.records.items():
            assert isinstance(msg_id, str) and "#" in msg_id
            # Stamped by its sender: the prefix is the sender's id.
            assert msg_id.split("#")[0] == record.src

    def test_cause_propagates_across_the_wire(self):
        # A reply's parent must be a message recorded by the *other*
        # endpoint -- the defining property of distributed stamping.
        with LoopbackNet(2, telemetry=True) as net:
            net.join(1)
            net.run()
            _, _, forest = _merged_forest(net)
        crossed = [
            r for r in forest.records.values()
            if r.parent_id is not None
            and forest.records[r.parent_id].src != r.src
        ]
        assert crossed, "no cross-process causal edges recorded"

    def test_trace_off_stamps_nothing(self):
        with LoopbackNet(2, telemetry=False) as net:
            net.join(1)
            net.run()
            assert net.daemon_traces() == []
            assert net.transports[1].stats.total_messages > 0


class TestReportParity:
    def test_merged_report_schema_matches_simulator(self):
        # Simulator run: same protocol, one tracer, virtual time.
        obs = Observability.tracing()
        space = None
        with LoopbackNet(4, telemetry=True) as net:
            space = net.space
            sim = JoinProtocolNetwork(space, obs=obs, seed=3)
            sim.add_s_node(net.ids[0], single_node_table(net.ids[0]))
            for node_id in net.ids[1:]:
                sim.start_join(node_id, gateway=net.ids[0])
            sim.run()
            sim_dict = RunReport.from_tracer(obs.tracer).to_json_dict()

            for index in range(1, 4):
                net.join(index)
            net.run()
            spans, events = merge_traces(net.daemon_traces())
        net_dict = RunReport(spans, events).to_json_dict()
        assert set(net_dict) == set(sim_dict)
        assert set(net_dict["summary"]) == set(sim_dict["summary"])
        assert set(net_dict["theorem3"]) == set(sim_dict["theorem3"])
        assert set(net_dict["causality"]) == set(sim_dict["causality"])
        assert set(net_dict["lifecycles"]) == set(sim_dict["lifecycles"])
        # Both tiers' lifecycle reconstruction sees the same joiners.
        assert (
            {lc["node"] for lc in net_dict["lifecycles"]["joins"]}
            == {lc["node"] for lc in sim_dict["lifecycles"]["joins"]}
        )
        assert net_dict["lifecycles"]["completed"] == 3
        assert net_dict["lifecycles"]["illegal_transitions"] == []
        assert net_dict["lifecycles"]["stalled"] == []
        assert net_dict["causality"]["problems"] == []
        assert net_dict["theorem3"]["passed"] is True


class TestSendAccountingParity:
    """S1: wire retransmissions must never leak into the protocol's
    per-type send counts -- on a clean wire the datagram transport
    reports byte-for-byte the same message accounting as the in-memory
    transport for the same workload."""

    def test_clean_wire_matches_in_memory_counts(self):
        with LoopbackNet(4, telemetry=True) as net:
            # Sequential joins (quiesce between), so both tiers see
            # the identical deterministic workload.
            for index in range(1, 4):
                net.join(index)
                net.run()
            wire_counts = {}
            for transport in net.transports:
                by_type = transport.stats.registry.values_by_label(
                    "messages_sent", "type"
                )
                for name, value in by_type.items():
                    wire_counts[name] = wire_counts.get(name, 0) + value
            retransmitted = sum(
                t.stats.total_retransmitted for t in net.transports
            )
            retransmit_wire = sum(
                t.counters["retransmits"] for t in net.transports
            )
            ids = list(net.ids)
            space = net.space

        sim = JoinProtocolNetwork(space, seed=5)
        sim.add_s_node(ids[0], single_node_table(ids[0]))
        for node_id in ids[1:]:
            sim.start_join(node_id, gateway=ids[0], at=sim.runtime.now)
            sim.run()
        sim_counts = sim.stats.registry.values_by_label(
            "messages_sent", "type"
        )

        assert retransmitted == 0
        assert retransmit_wire == 0
        assert wire_counts == sim_counts

    def test_retransmit_counter_is_separate_from_sends(self):
        from repro.ids.idspace import IdSpace
        from repro.network.stats import MessageStats
        from repro.protocol.messages import CpRstMsg

        stats = MessageStats()
        message = CpRstMsg(IdSpace(4, 4).from_string("0123"))
        stats.on_send(message)
        stats.on_retransmit(message)
        stats.on_retransmit(message)
        assert stats.count("CpRstMsg") == 1
        assert stats.registry.values_by_label(
            "messages_retransmitted", "type"
        ) == {"CpRstMsg": 2}
        assert stats.total_messages == 1
        assert stats.total_retransmitted == 2


class TestWireMetrics:
    def test_transport_metrics_recorded(self):
        with LoopbackNet(3, telemetry=True) as net:
            net.join(1)
            net.join(2)
            net.run()
            snapshots = [
                bundle.metrics.snapshot() for bundle in net.telemetries
            ]
        merged = {}
        for snap in snapshots:
            for key, value in snap.items():
                merged[key] = merged.get(key, 0) + value
        # Ack RTT histograms observed for every peer actually talked to.
        rtt_counts = [
            key for key in merged if key.startswith("net_ack_rtt_ms")
        ]
        assert rtt_counts, f"no RTT histograms in {sorted(merged)[:10]}"
        assert merged.get("net_retransmits", 0) == 0
        assert merged.get("net_gave_up", 0) == 0
        # Everything acked at quiescence.
        assert merged.get("net_unacked_depth", 0) == 0

    def test_lossy_wire_metrics_read_the_counters(self):
        plans = {
            index: FaultPlan(loss=0.1, duplicate=0.1, seed=index + 1)
            for index in range(4)
        }
        with LoopbackNet(4, telemetry=True, fault_plans=plans) as net:
            for index in range(1, 4):
                net.join(index)
            net.run(wall_budget=30.0)
            readings = [
                (
                    transport.counters,
                    transport.unacked_count,
                    bundle.metrics.snapshot(),
                )
                for transport, bundle in zip(
                    net.transports, net.telemetries
                )
            ]
        assert sum(counters["retransmits"] for counters, _, _ in readings)
        assert sum(
            counters["duplicates_suppressed"] for counters, _, _ in readings
        )
        for counters, unacked, snapshot in readings:
            assert snapshot["net_retransmits"] == counters["retransmits"]
            assert snapshot["net_dedup_hits"] == (
                counters["duplicates_suppressed"]
            )
            assert snapshot["net_gave_up"] == counters["gave_up"]
            assert snapshot["net_unacked_depth"] == unacked


def _message_event_keys(events):
    """``{event name: {attribute-key tuple, ...}}`` over ``message.*``."""
    keys = {}
    for event in events:
        if event.name.startswith("message."):
            keys.setdefault(event.name, set()).add(tuple(event.attrs))
    return keys


SEND_KEYS = ("type", "src", "dst", "bytes", "msg", "parent", "trace")
DELIVER_KEYS = ("type", "src", "dst", "msg")
DROP_KEYS = ("type", "src", "dst", "msg", "parent", "trace")


class TestMessageEventSchema:
    """The ``message.*`` attributes each endpoint of a traced UDP run
    writes, including both ways a datagram send is dropped: by the
    ``drop_filter`` hook and by a destination nobody can resolve."""

    def test_attribute_keys_per_transport(self):
        with LoopbackNet(3, telemetry=True) as net:
            net.join(1)
            net.join(2)
            net.run()
            first = net.transports[0]
            filtered = net.ids[1]
            first.drop_filter = lambda message, dst: dst == filtered
            unknown = net.space.from_string("3333")
            assert unknown not in net.ids
            for dst in (filtered, unknown):
                net.runtime.schedule(
                    0.0, lambda dst=dst: first.send(
                        dst, JoinWaitMsg(net.ids[0])
                    )
                )
            net.run()
            assert first.counters["resolve_failures"] == 1
            events = [bundle.tracer.events() for bundle in net.telemetries]
        drops = [e for e in events[0] if e.name == "message.drop"]
        assert len(drops) == 2
        assert _message_event_keys(events[0]) == {
            "message.send": {SEND_KEYS},
            "message.deliver": {DELIVER_KEYS},
            "message.drop": {DROP_KEYS},
        }
        for peer_events in events[1:]:
            assert _message_event_keys(peer_events) == {
                "message.send": {SEND_KEYS},
                "message.deliver": {DELIVER_KEYS},
            }
