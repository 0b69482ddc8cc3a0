"""Integration tests: the obs layer over real protocol runs.

The acceptance bar from the ISSUE: an instrumented run must (a) emit
join phase-transition spans and message events, and (b) reproduce the
paper's Figure 15(b)/Theorem 3 accounting from the metrics registry
*exactly* -- same numbers as the legacy ``MessageStats`` API.
"""

import random

import pytest

from repro.analysis.expected_cost import theorem3_bound
from repro.ids.idspace import IdSpace
from repro.network.message import Message
from repro.network.node import NetworkNode
from repro.network.transport import Transport
from repro.obs import NullTracer, Observability
from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.status import JOIN_PHASES, NodeStatus
from repro.sim.scheduler import Simulator
from repro.topology.attachment import ConstantLatencyModel

SPACE = IdSpace(4, 4)
BASE, DIGITS, N, M, SEED = 4, 4, 30, 10, 7


def run_instrumented(obs):
    ids = IdSpace(BASE, DIGITS).random_unique_ids(
        N + M, random.Random(SEED)
    )
    net = JoinProtocolNetwork.from_oracle(
        IdSpace(BASE, DIGITS), ids[:N], seed=SEED, obs=obs
    )
    for joiner in ids[N:]:
        net.start_join(joiner)
    net.run()
    assert net.all_in_system()
    assert net.check_consistency().consistent
    return net


class TestPhaseSpans:
    def test_one_root_span_per_joiner_all_closed(self):
        obs = Observability.tracing()
        net = run_instrumented(obs)
        roots = obs.tracer.spans("join")
        assert len(roots) == M
        assert all(span.finished for span in roots)
        assert obs.tracer.open_spans() == []
        assert {span.attrs["node"] for span in roots} == {
            str(j) for j in net.joiner_ids
        }

    def test_phase_children_nest_and_order(self):
        obs = Observability.tracing()
        run_instrumented(obs)
        order = [f"phase:{s.value}" for s in JOIN_PHASES[:-1]]
        for root in obs.tracer.spans("join"):
            children = obs.tracer.children(root)
            assert children, "join span has no phase children"
            names = [c.name for c in children]
            # Every visited phase appears once, in protocol order
            # (waiting may be re-entered never; copying always first).
            assert names == [n for n in order if n in names]
            assert names[0] == "phase:copying"
            # Phases tile the join span contiguously.
            assert children[0].start == root.start
            assert children[-1].end == root.end
            for prev, cur in zip(children, children[1:]):
                assert prev.end == cur.start

    def test_phase_indices_are_monotone(self):
        assert [s.phase_index for s in JOIN_PHASES] == [0, 1, 2, 3]
        assert NodeStatus.LEAVING.phase_index == -1
        assert NodeStatus.COPYING.is_join_phase
        assert not NodeStatus.LEFT.is_join_phase

    def test_join_latency_histogram(self):
        obs = Observability.tracing()
        run_instrumented(obs)
        hist = obs.metrics.histogram("join_latency")
        assert hist.count == M
        assert all(sample > 0 for sample in hist.samples)


class TestMessageEvents:
    def test_send_and_deliver_pair_up(self):
        obs = Observability.tracing()
        net = run_instrumented(obs)
        sends = obs.tracer.events("message.send")
        delivers = obs.tracer.events("message.deliver")
        assert len(sends) == net.stats.total_messages
        assert len(delivers) == len(sends)

    def test_send_counts_match_stats_by_type(self):
        obs = Observability.tracing()
        net = run_instrumented(obs)
        by_type = {}
        for event in obs.tracer.events("message.send"):
            name = event.attrs["type"]
            by_type[name] = by_type.get(name, 0) + 1
        assert by_type == net.stats.snapshot()

    def test_lossy_drop_traced(self):
        obs = Observability.tracing()
        sim = Simulator()
        transport = Transport(
            sim, ConstantLatencyModel(1.0), tracer=obs.tracer
        )
        node = NetworkNode(SPACE.from_string("0000"), transport)
        ghost = SPACE.from_string("3333")
        assert not transport.send_lossy(ghost, Message(node.node_id))
        (drop,) = obs.tracer.events("message.drop")
        assert drop.attrs["dst"] == str(ghost)
        assert transport.stats.total_dropped == 1


class TestRegistryReproducesPaperCounts:
    def test_fig15b_and_theorem3_counts_exact(self):
        obs = Observability.tracing()
        net = run_instrumented(obs)
        registry = obs.metrics
        bound = theorem3_bound(DIGITS)
        for joiner in net.joiner_ids:
            sender = str(joiner)
            # Figure 15(b): JoinNotiMsg per joiner.
            noti = registry.value(
                "messages_sent_by", sender=sender, type="JoinNotiMsg"
            ) or 0
            assert noti == net.stats.sent_by(joiner, "JoinNotiMsg")
            # Theorem 3: CpRstMsg + JoinWaitMsg <= d + 1.
            thm3 = (
                (registry.value(
                    "messages_sent_by", sender=sender, type="CpRstMsg"
                ) or 0)
                + (registry.value(
                    "messages_sent_by", sender=sender, type="JoinWaitMsg"
                ) or 0)
            )
            assert thm3 == (
                net.stats.sent_by(joiner, "CpRstMsg")
                + net.stats.sent_by(joiner, "JoinWaitMsg")
            )
            assert thm3 <= bound

    def test_registry_per_type_equals_snapshot(self):
        obs = Observability.tracing()
        net = run_instrumented(obs)
        assert obs.metrics.values_by_label("messages_sent", "type") == (
            net.stats.snapshot()
        )


class TestDisabledPath:
    def test_null_tracer_records_nothing_but_metrics_flow(self):
        obs = Observability.metrics_only()
        net = run_instrumented(obs)
        assert isinstance(obs.tracer, NullTracer)
        assert len(obs.tracer) == 0
        # Metrics still live: message counters, phases, latency.
        assert obs.metrics.value("messages_total") == (
            net.stats.total_messages
        )
        assert obs.metrics.value(
            "join_phase_transitions", phase="in_system"
        ) == M
        assert obs.metrics.histogram("join_latency").count == M

    def test_transport_normalizes_disabled_tracer_to_none(self):
        sim = Simulator()
        transport = Transport(
            sim, ConstantLatencyModel(1.0), tracer=NullTracer()
        )
        assert transport.tracer is None

    def test_uninstrumented_network_unchanged(self):
        net = run_instrumented(None)
        assert net.obs is None
        assert net.runtime.on_event_fired is None
        with pytest.raises(ValueError):
            net.collect_final_metrics()


class TestSchedulerAndTables:
    def test_scheduler_probe_samples_depth(self):
        obs = Observability.metrics_only()
        net = run_instrumented(obs)
        assert obs.metrics.value("sim_events_fired") == (
            net.runtime.events_fired
        )
        hist = obs.metrics.histogram("sim_queue_depth_sampled")
        assert hist.count >= 1

    def test_collect_final_metrics_table_fill(self):
        obs = Observability.metrics_only()
        net = run_instrumented(obs)
        snapshot = net.collect_final_metrics()
        assert snapshot["table_fill_nodes"] == N + M
        # Level 0 of every table has at least the self-pointer.
        assert snapshot["table_fill{level=0}"] >= 1.0

    def test_deterministic_traces(self):
        first = Observability.tracing()
        second = Observability.tracing()
        run_instrumented(first)
        run_instrumented(second)
        from repro.obs import trace_to_records

        assert trace_to_records(first.tracer) == trace_to_records(
            second.tracer
        )
