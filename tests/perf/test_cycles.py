"""A finished simulation frees itself by reference counting.

Ownership in a simulation runs one way -- network -> runtime,
transport, nodes -- and every reference back up is weak or is cut
when the network is dropped.  Dropping a network, or returning from a
campaign task, therefore frees it at once instead of leaving one large
reference cycle for the cyclic collector's next full pass.
``Simulator.run`` pauses that collector, which is safe only because a
run builds no cycles either: the second test is that condition.
"""

import gc
from collections import Counter

import pytest

from repro.experiments.churn import ChurnConfig, run_churn
from repro.experiments.parallel import JoinTaskConfig, run_join_task
from repro.experiments.workloads import make_workload
from repro.obs.audit import AuditConfig
from repro.obs.instrument import Observability
from repro.optimize import optimize_tables
from repro.protocol.leave import leave_sequentially
from repro.recovery import fail_nodes, recover_from_failures

SIZE = dict(base=4, num_digits=4, n=30, m=10, seed=3)


def _joins(obs=None, audit=False):
    work = make_workload(**SIZE, obs=obs)
    auditor = (
        work.network.attach_auditor(AuditConfig(incremental=True))
        if audit else None
    )
    work.start_all_joins()
    work.run()
    assert work.network.all_in_system()
    if auditor is not None:
        assert auditor.finalize().passed


def _churn_lifecycle():
    work = make_workload(**SIZE)
    net = work.network
    work.start_all_joins()
    work.run()
    members = net.member_ids()
    leave_sequentially(net, members[:3])
    fail_nodes(net, members[3:5])
    recover_from_failures(net)
    optimize_tables(net)
    assert net.check_consistency().consistent


def _bounded_run():
    work = make_workload(**SIZE)
    work.start_all_joins()
    work.network.runtime.run(until=5.0)
    assert work.network.runtime.pending_events > 0


CONFIGS = {
    "plain": _joins,
    "metrics_only": lambda: _joins(obs=Observability.metrics_only()),
    "tracing": lambda: _joins(obs=Observability.tracing()),
    # With obs on, the auditor is the second phase listener, so joiners
    # get the fan-out hook rather than one listener directly.
    "incremental_auditor": lambda: _joins(
        obs=Observability.metrics_only(), audit=True
    ),
    "churn_lifecycle": _churn_lifecycle,
    "bounded_run_with_pending_timers": _bounded_run,
    "run_join_task": lambda: run_join_task(JoinTaskConfig(**SIZE)),
    "run_churn": lambda: run_churn(
        ChurnConfig(**SIZE, leaves=3, failures=2, use_topology=False)
    ),
}


@pytest.fixture
def collector_enabled():
    """Run with the collector on; restore the caller's state after."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dropped_simulation_leaves_no_cyclic_garbage(name, collector_enabled):
    # Start from no garbage at all: an earlier failure's traceback is
    # itself a cycle.
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        CONFIGS[name]()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    kinds = Counter(type(obj).__qualname__ for obj in garbage)
    assert not garbage, (
        f"{len(garbage)} objects left in reference cycles: "
        f"{kinds.most_common(12)}"
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_nothing_to_collect_after_running_with_the_collector_off(
    name, collector_enabled
):
    gc.collect()
    gc.disable()
    try:
        CONFIGS[name]()
    finally:
        gc.enable()
    assert gc.collect() == 0
