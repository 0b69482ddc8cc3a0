"""Failure detection and recovery (extension; Section 7 future work)."""

import random

import pytest

from repro.recovery import fail_nodes, recover_from_failures

from tests.conftest import build_network, make_ids


def failed_network(n=50, kill=10, seed=0):
    space, ids = make_ids(4, 4, n, seed=seed)
    net = build_network(space, ids, seed=seed)
    rng = random.Random(seed + 100)
    victims = rng.sample(ids, kill)
    fail_nodes(net, victims)
    return net, ids, victims


class TestFailureInjection:
    def test_failed_nodes_removed_from_membership(self):
        net, ids, victims = failed_network()
        for victim in victims:
            assert victim not in net.nodes
            assert net.has_departed(victim)
            assert not net.transport.knows(victim)

    def test_failures_break_consistency(self):
        net, ids, victims = failed_network()
        report = net.check_consistency()
        assert not report.consistent
        # Dangling pointers show up as non-member occupants.
        kinds = report.by_kind()
        assert kinds.get("bad_occupant", 0) > 0

    def test_lossy_sends_to_dead_are_dropped(self):
        net, ids, victims = failed_network()
        from repro.recovery.messages import PingMsg

        live = next(iter(net.nodes))
        assert not net.transport.send_lossy(
            victims[0], PingMsg(live, 0.0)
        )
        assert net.stats.total_dropped == 1


class TestRecovery:
    @pytest.mark.parametrize("seed", range(4))
    def test_full_recovery_moderate_failures(self, seed):
        net, ids, victims = failed_network(n=50, kill=10, seed=seed)
        report = recover_from_failures(net)
        assert report.consistent, str(report)
        assert report.repaired_entries > 0
        assert net.check_consistency().consistent

    def test_recovery_heavy_failures(self):
        """30% dead: TTL escalation finds distant candidates."""
        net, ids, victims = failed_network(n=60, kill=18, seed=3)
        report = recover_from_failures(net)
        assert report.consistent, str(report)

    def test_no_dangling_pointers_after_recovery(self):
        net, ids, victims = failed_network(seed=5)
        recover_from_failures(net)
        dead = set(victims)
        for node_id, table in net.tables().items():
            assert not (table.distinct_neighbors() & dead)
            assert not (table.all_reverse_neighbors() & dead)

    def test_classes_that_died_are_cleared(self):
        """Kill every node of one suffix class: entries for it must
        end up null, not repaired."""
        space = make_ids(4, 4, 0)[0]
        members = [
            space.from_string(s)
            for s in ["3210", "1110", "0001", "1111", "2221", "0002"]
        ]
        net = build_network(space, members, seed=6)
        # The entire "...0" class: 3210 and 1110.
        fail_nodes(net, [members[0], members[1]])
        report = recover_from_failures(net)
        assert report.consistent
        assert report.cleared_entries > 0
        for node_id, table in net.tables().items():
            assert table.get(0, 0) is None

    def test_recovery_idempotent_when_nothing_failed(self):
        space, ids = make_ids(4, 4, 30, seed=7)
        net = build_network(space, ids, seed=7)
        report = recover_from_failures(net)
        assert report.consistent
        assert report.initially_suspected == 0
        assert report.repaired_entries == 0
        assert report.cleared_entries == 0

    def test_join_after_recovery(self):
        """The repaired network accepts new joins normally."""
        net, ids, victims = failed_network(seed=8)
        recover_from_failures(net)
        space = ids[0]
        from repro.ids.idspace import IdSpace

        idspace = IdSpace(4, 4)
        rng = random.Random(999)
        joiners = idspace.random_unique_ids(5, rng, exclude=ids)
        for joiner in joiners:
            net.start_join(
                joiner, gateway=next(iter(net.nodes)), at=net.runtime.now
            )
        net.run()
        assert net.all_in_system()
        assert net.check_consistency().consistent

    def test_report_accounting(self):
        net, ids, victims = failed_network(seed=9)
        report = recover_from_failures(net)
        assert report.rounds >= 1
        assert report.initially_suspected > 0
        assert (
            report.repaired_entries + report.cleared_entries
            >= report.initially_suspected
        )

    def test_routing_works_after_recovery(self):
        net, ids, victims = failed_network(seed=10)
        recover_from_failures(net)
        members = net.member_ids()
        for source in members[:10]:
            for target in members[:10]:
                assert net.route(source, target).success
