"""Trace-based protocol invariants.

Status transitions are recorded with a phase listener and entry fills
with a wrapper around :meth:`ProtocolNode._fill_entry`; these tests
check temporal invariants the consistency proof leans on: monotone
status progression, no entry ever refilled with a different node
during joins, and joining-period bookkeeping matching the record.
"""

import random

from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.node import ProtocolNode
from repro.protocol.status import NodeStatus
from repro.topology.attachment import UniformLatencyModel

from tests.conftest import make_ids

EXPECTED_ORDER = [
    NodeStatus.COPYING,
    NodeStatus.WAITING,
    NodeStatus.NOTIFYING,
    NodeStatus.IN_SYSTEM,
]


def traced_run(monkeypatch, seed=0, n=20, m=10):
    """Run ``m`` concurrent joins into ``n`` members; return the
    network, the joiners, the ``(time, node, status)`` transitions and
    the ``(owner, level, digit, neighbor)`` fills."""
    space, ids = make_ids(4, 4, n + m, seed=seed)
    net = JoinProtocolNetwork.from_oracle(
        space,
        ids[:n],
        latency_model=UniformLatencyModel(random.Random(seed + 1)),
        seed=seed,
    )
    statuses = []
    net.add_phase_listener(
        lambda node, status, now: statuses.append((now, node, status))
    )
    fills = []
    fill_entry = ProtocolNode._fill_entry

    def recording_fill(self, level, digit, node, state):
        fills.append((self.node_id, level, digit, node))
        fill_entry(self, level, digit, node, state)

    monkeypatch.setattr(ProtocolNode, "_fill_entry", recording_fill)
    for joiner in ids[n:]:
        net.start_join(joiner, at=0.0)
    net.run()
    assert net.check_consistency().consistent
    return net, ids[n:], statuses, fills


class TestStatusTraces:
    def test_every_joiner_walks_the_status_chain(self, monkeypatch):
        net, joiners, statuses, _ = traced_run(monkeypatch, seed=1)
        for joiner in joiners:
            transitions = [s for _, node, s in statuses if node == joiner]
            assert transitions == EXPECTED_ORDER, (joiner, transitions)

    def test_status_timestamps_monotone(self, monkeypatch):
        net, joiners, statuses, _ = traced_run(monkeypatch, seed=2)
        for joiner in joiners:
            times = [t for t, node, _ in statuses if node == joiner]
            assert times == sorted(times)

    def test_became_s_matches_trace(self, monkeypatch):
        net, joiners, statuses, _ = traced_run(monkeypatch, seed=3)
        for joiner in joiners:
            in_system_times = [
                t
                for t, node, status in statuses
                if node == joiner and status is NodeStatus.IN_SYSTEM
            ]
            assert len(in_system_times) == 1
            assert net.node(joiner).became_s_at == in_system_times[0]


class TestFillTraces:
    def test_no_position_filled_with_two_different_nodes(self, monkeypatch):
        """The join protocol only fills empty entries; a position
        receiving two different occupants would break the monotone
        expansion argument of the proof."""
        net, joiners, _, fills = traced_run(monkeypatch, seed=4)
        assert fills
        seen = {}
        for owner, level, digit, neighbor in fills:
            key = (owner, level, digit)
            if key in seen:
                assert seen[key] == neighbor, key
            seen[key] = neighbor

    def test_fills_respect_suffix_constraints(self, monkeypatch):
        net, joiners, _, fills = traced_run(monkeypatch, seed=5)
        assert fills
        for owner, level, digit, neighbor in fills:
            assert neighbor.csuf_len(owner) >= level
            assert neighbor.digit(level) == digit

    def test_fill_count_bounded_by_final_table_sizes(self, monkeypatch):
        net, joiners, _, fills = traced_run(monkeypatch, seed=6)
        total_filled = sum(
            table.filled_count() for table in net.tables().values()
        )
        # Every recorded fill is distinct (no refills), so the record
        # cannot exceed the final occupancy (self-pointers and oracle
        # fills are not recorded).
        assert 0 < len(fills) <= total_filled
