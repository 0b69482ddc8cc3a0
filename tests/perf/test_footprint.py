"""Per-node memory footprint of an audited oracle network.

The large-``n`` runs (the ``sim_scale`` workload of
``benchmarks/e2e``, ``repro fig15b --full``) are bounded by resident
bytes per node, so the layout that sets them has a gate in the tier-1
suite: traced
bytes per node under an absolute bound, and the structural facts the
bound rests on -- a member that has not joined, queued, crashed or
optimized anything owns no container for doing so.
"""

import gc
import tracemalloc

import pytest

from repro.experiments.workloads import make_workload
from repro.obs.audit import AuditConfig
from repro.protocol.node import ProtocolNode

NODES = 2000

#: Measured 4.02 KiB/node (CPython 3.11; 11.15 with the per-node dict,
#: ten empty sets, per-pointer entry tuples and set-per-bucket reverse
#: neighbors this replaced); the bound is that plus ~15 %.
KIB_PER_NODE_BOUND = 4.7


def _audited_network():
    work = make_workload(4, 9, NODES, 0, seed=5)
    auditor = work.network.attach_auditor(
        AuditConfig(interval=200, incremental=True)
    )
    auditor.sample(0.0)  # builds the incremental checker's index
    return work, auditor


@pytest.fixture(scope="module")
def audited():
    return _audited_network()


class TestFootprint:
    def test_traced_bytes_per_node(self):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keep = _audited_network()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert keep[1].report.samples[0].violations == 0
        kib_per_node = held / 1024.0 / NODES
        assert kib_per_node <= KIB_PER_NODE_BOUND, kib_per_node

    def test_idle_member_owns_no_empty_container(self, audited):
        work, _auditor = audited
        for node in list(work.network.nodes.values())[:50]:
            assert not hasattr(node, "__dict__")
            for slot in _all_slots(type(node)):
                value = getattr(node, slot)
                if isinstance(value, (set, dict, list, frozenset)):
                    assert value, f"{slot} is an empty {type(value).__name__}"
            assert node._queues is None
            assert node._backups is None
            assert node._recovery is None
            assert node._opt is None

    def test_node_is_one_flat_record(self):
        slots = _all_slots(ProtocolNode)
        assert len(slots) == len(set(slots)) <= 30, sorted(slots)

    def test_lazy_containers_are_live_once_asked_for(self, audited):
        work, _auditor = audited
        node = list(work.network.nodes.values())[-1]  # not one of the 50
        node.q_reply.add(node.node_id)
        assert node.q_reply == {node.node_id}
        assert node.backups.total() == 0 and node.backups is node.backups
        assert node.suspected_positions == set()
        assert node.cancel_failure_detection() is False
        assert node.finalize_repairs() == 0
        assert node.finalize_optimization_round() == 0


def _all_slots(cls):
    return [
        slot
        for klass in cls.__mro__
        for slot in getattr(klass, "__slots__", ())
    ]
