"""Trace-based protocol invariants.

The TraceLog records status transitions and entry fills; these tests
check temporal invariants the consistency proof leans on: monotone
status progression, no entry ever refilled with a different node
during joins, and joining-period bookkeeping matching the trace.
"""

import random

from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.status import NodeStatus
from repro.core.trace import TraceLog
from repro.topology.attachment import UniformLatencyModel

from tests.conftest import make_ids

EXPECTED_ORDER = [
    NodeStatus.WAITING,
    NodeStatus.NOTIFYING,
    NodeStatus.IN_SYSTEM,
]


def traced_run(seed=0, n=20, m=10):
    space, ids = make_ids(4, 4, n + m, seed=seed)
    trace = TraceLog(categories=["status", "fill"])
    net = JoinProtocolNetwork.from_oracle(
        space,
        ids[:n],
        latency_model=UniformLatencyModel(random.Random(seed + 1)),
        trace=trace,
        seed=seed,
    )
    for joiner in ids[n:]:
        net.start_join(joiner, at=0.0)
    net.run()
    assert net.check_consistency().consistent
    return net, ids[n:], trace


class TestStatusTraces:
    def test_every_joiner_walks_the_status_chain(self):
        net, joiners, trace = traced_run(seed=1)
        for joiner in joiners:
            transitions = [
                record.get("status")
                for record in trace.records("status")
                if record.get("node") == joiner
            ]
            assert transitions == EXPECTED_ORDER, (joiner, transitions)

    def test_status_timestamps_monotone(self):
        net, joiners, trace = traced_run(seed=2)
        for joiner in joiners:
            times = [
                record.time
                for record in trace.records("status")
                if record.get("node") == joiner
            ]
            assert times == sorted(times)

    def test_became_s_matches_trace(self):
        net, joiners, trace = traced_run(seed=3)
        for joiner in joiners:
            in_system_records = [
                record
                for record in trace.records("status")
                if record.get("node") == joiner
                and record.get("status") is NodeStatus.IN_SYSTEM
            ]
            assert len(in_system_records) == 1
            assert net.node(joiner).became_s_at == in_system_records[0].time


class TestFillTraces:
    def test_no_position_filled_with_two_different_nodes(self):
        """The join protocol only fills empty entries; a position
        receiving two different occupants would break the monotone
        expansion argument of the proof."""
        net, joiners, trace = traced_run(seed=4)
        seen = {}
        for record in trace.records("fill"):
            key = (record.get("node"), record.get("level"),
                   record.get("digit"))
            neighbor = record.get("neighbor")
            if key in seen:
                assert seen[key] == neighbor, key
            seen[key] = neighbor

    def test_fills_respect_suffix_constraints(self):
        net, joiners, trace = traced_run(seed=5)
        for record in trace.records("fill"):
            owner = record.get("node")
            neighbor = record.get("neighbor")
            level = record.get("level")
            digit = record.get("digit")
            assert neighbor.csuf_len(owner) >= level
            assert neighbor.digit(level) == digit

    def test_fill_count_bounded_by_final_table_sizes(self):
        net, joiners, trace = traced_run(seed=6)
        total_filled = sum(
            table.filled_count() for table in net.tables().values()
        )
        # Every traced fill is distinct (no refills), so the trace
        # cannot exceed the final occupancy (self-pointers and oracle
        # fills are not traced).
        assert trace.count("fill") <= total_filled
