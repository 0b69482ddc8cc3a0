"""A member crashes while concurrent joins are in flight.

The paper's Theorem 2 (every joiner eventually becomes an S-node)
assumes no failures.  Here one initial member crash-stops part way
through a concurrent join and the run goes on: sends to the dead node
are dropped, so the run still ends, and the joiners that were waiting
on the dead node stay outside *in_system* -- each one named by the
live auditor as a ``quiescent_stall``.  The strict xfail is the
target: every joiner in system despite the crash.  It flips when
joins learn to route around a peer that never answers.

A leave-only lifecycle is the control: with no crash, the leave
protocol never addresses a departed node, so nothing is dropped.
"""

import pytest

from repro.experiments.workloads import SMALL_TOPOLOGY, make_workload
from repro.obs.audit import AuditConfig
from repro.protocol.leave import leave_sequentially
from repro.recovery import fail_nodes

SIZE = dict(base=16, num_digits=8, n=200, m=60)
#: Events run before the crash: joins are under way by then.
CRASH_AFTER = 800
SEEDS = [1, 2, 3]


def crash_during_join(seed):
    """Run the joins, crash the first live initial member after
    ``CRASH_AFTER`` events, run to quiescence; returns the network,
    its joiners still outside *in_system*, and the auditor's report."""
    work = make_workload(
        **SIZE, seed=seed, use_topology=True, topology_params=SMALL_TOPOLOGY
    )
    net = work.network
    auditor = net.attach_auditor(AuditConfig(incremental=True))
    work.start_all_joins(at=0.0)
    assert net.run(max_events=CRASH_AFTER) == CRASH_AFTER
    victim = next(node for node in net.initial_ids if node in net.nodes)
    fail_nodes(net, [victim])
    net.run()
    assert net.runtime.quiesced()
    stuck = {
        joiner for joiner in net.joiner_ids
        if joiner in net.nodes and not net.nodes[joiner].status.is_s_node
    }
    return net, stuck, auditor.finalize()


@pytest.mark.parametrize("seed", SEEDS)
def test_stuck_joiners_are_the_audited_stalls(seed):
    net, stuck, report = crash_during_join(seed)
    stalls = {
        incident.detail.split()[0]
        for incident in report.incidents
        if incident.kind == "quiescent_stall"
    }
    assert stalls == {str(joiner) for joiner in stuck}
    # Drops, not exceptions: the protocol's sends to the dead node.
    assert net.stats.total_dropped > 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Theorem 2 under a crash: a joiner waiting on a dead node "
    "never gives up on it",
)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_joiner_reaches_in_system_despite_a_crash(seed):
    _net, stuck, _report = crash_during_join(seed)
    assert not stuck


def test_leave_lifecycle_drops_nothing():
    work = make_workload(
        **SIZE, seed=1, use_topology=True, topology_params=SMALL_TOPOLOGY
    )
    net = work.network
    work.start_all_joins(at=0.0)
    work.run()
    assert net.all_in_system()
    leave_sequentially(net, net.member_ids()[::10])
    assert net.check_consistency().consistent
    assert net.stats.total_dropped == 0
