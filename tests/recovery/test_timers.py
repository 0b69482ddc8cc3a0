"""Failure-detection timers over the runtime Timer API (cancel
semantics): cancel-before-fire must leave no trace, fire-after-peer-
death must suspect exactly the dead peer's positions."""

from repro.recovery import fail_nodes
from repro.recovery.messages import PingMsg
from tests.conftest import MAX_EVENTS, build_network, make_ids


def _network(seed=3, n=20):
    space, ids = make_ids(4, 4, n, seed=seed)
    return build_network(space, ids, seed=seed), ids


class TestCancelBeforeFire:
    def test_cancelled_sweep_suspects_nobody(self):
        net, ids = _network()
        node = net.nodes[ids[0]]
        node.begin_failure_detection(timeout=10_000.0)
        assert node.cancel_failure_detection() is True
        # The in-flight pings still complete, but the armed timeout
        # never fires: nothing may be suspected and the run quiesces
        # (a leaked timer would show up as a pending event).
        net.run(max_events=MAX_EVENTS)
        assert net.runtime.quiesced()
        assert net.runtime.now < 10_000.0  # the timeout never fired
        assert node.suspected_positions == set()

    def test_cancel_is_idempotent(self):
        net, ids = _network()
        node = net.nodes[ids[0]]
        node.begin_failure_detection(timeout=10_000.0)
        assert node.cancel_failure_detection() is True
        assert node.cancel_failure_detection() is False

    def test_cancel_without_sweep_is_noop(self):
        net, ids = _network()
        assert net.nodes[ids[0]].cancel_failure_detection() is False

    def test_cancelled_sweep_can_be_rearmed(self):
        """Cancel, then run a real sweep against a dead peer: the
        second sweep must work as if the first never happened."""
        net, ids = _network(seed=4)
        node = net.nodes[ids[0]]
        node.begin_failure_detection(timeout=10_000.0)
        assert node.cancel_failure_detection() is True
        # Drain the aborted sweep's in-flight pings/pongs before the
        # crash, so the second sweep observes a cleanly dead peer.
        net.run(max_events=MAX_EVENTS)

        victim = next(
            iter(node.table.distinct_neighbors() - {node.node_id})
        )
        expected = set(node.table.positions_of(victim))
        fail_nodes(net, [victim])
        node.begin_failure_detection(timeout=10_000.0)
        net.run(max_events=MAX_EVENTS)
        assert node.suspected_positions == expected


def _sweep(net, node, monkeypatch):
    """Start ``node``'s detection sweep; returns ``(expected, pinged,
    ping_sends, drops)``: every distinct forward and reverse neighbor,
    the destinations handed ``PingMsg`` probes, and by how much the
    ``PingMsg`` sent count and the dropped total rose."""
    pinged = []
    send = net.transport.send

    def recording_send(dst, msg):
        if isinstance(msg, PingMsg):
            pinged.append(dst)
        return send(dst, msg)

    monkeypatch.setattr(net.transport, "send", recording_send)
    stats = net.stats
    pings, dropped = stats.count("PingMsg"), stats.total_dropped
    node.begin_failure_detection(timeout=10_000.0)
    expected = (
        node.table.distinct_neighbors()
        | node.table.all_reverse_neighbors()
    ) - {node.node_id}
    return (
        expected, pinged,
        stats.count("PingMsg") - pings, stats.total_dropped - dropped,
    )


class TestSweepTargets:
    def test_sweep_pings_every_forward_and_reverse_neighbor(
        self, monkeypatch
    ):
        net, ids = _network(seed=7)
        node = net.nodes[ids[0]]
        expected, pinged, ping_sends, drops = _sweep(net, node, monkeypatch)
        assert expected and sorted(pinged) == sorted(expected)
        # Every probe went out: one PingMsg accounted per neighbor,
        # none dropped.
        assert ping_sends == len(expected)
        assert drops == 0

    def test_a_dropped_probe_shows_in_the_counts(self, monkeypatch):
        """The check above fails when one live neighbor's probe is lost."""
        net, ids = _network(seed=7)
        node = net.nodes[ids[0]]
        lost = []

        def drop_first_ping(message, dst):
            if type(message).__name__ == "PingMsg" and not lost:
                lost.append(dst)
                return True
            return False

        net.transport.drop_filter = drop_first_ping
        expected, pinged, ping_sends, drops = _sweep(net, node, monkeypatch)
        assert lost and lost[0] in expected and net.transport.knows(lost[0])
        assert sorted(pinged) == sorted(expected)
        assert ping_sends == len(expected) - 1
        assert drops == 1

    def test_unanswered_sweep_suspects_every_neighbor(self):
        net, ids = _network(seed=8)
        node = net.nodes[ids[0]]
        neighbors = node.table.distinct_neighbors() - {node.node_id}
        expected = {
            position
            for neighbor in neighbors
            for position in node.table.positions_of(neighbor)
        }
        reverse = node.table.all_reverse_neighbors() - {node.node_id}
        fail_nodes(net, neighbors | reverse)
        node.begin_failure_detection(timeout=10_000.0)
        net.run(max_events=MAX_EVENTS)
        assert expected and node.suspected_positions == expected


class TestFireAfterPeerDeath:
    def test_dead_neighbor_positions_become_suspected(self):
        net, ids = _network(seed=5)
        node = net.nodes[ids[0]]
        victim = next(
            iter(node.table.distinct_neighbors() - {node.node_id})
        )
        expected = set(node.table.positions_of(victim))
        assert expected

        fail_nodes(net, [victim])
        node.begin_failure_detection(timeout=10_000.0)
        net.run(max_events=MAX_EVENTS)
        assert node.suspected_positions == expected
        # Live neighbors all answered in time: only the dead peer's
        # positions are suspected, and the sweep is over.
        assert node.cancel_failure_detection() is False

    def test_all_live_sweep_suspects_nobody(self):
        net, ids = _network(seed=6)
        node = net.nodes[ids[0]]
        node.begin_failure_detection(timeout=10_000.0)
        net.run(max_events=MAX_EVENTS)
        assert node.suspected_positions == set()
        assert node.cancel_failure_detection() is False
