"""The quiescent Definition 3.8 check of an incremental audit costs
what changed since the last sample, not ``n``.

A count gate, not a clock gate: :meth:`LiveAuditor.finalize` on an
incremental auditor must re-verify (``nodes_reverified``) no more
tables than moved on after the auditor's last sample -- a version the
checker has not seen, or a member it has not indexed -- and must build
no suffix index of its own.  The strict verdict of every other table
was already decided when its current version was checked.
"""

import pytest

from repro.consistency.checker import check_consistency
from repro.experiments.workloads import make_workload
from repro.ids.packed import SuffixClassIndex
from repro.obs.audit import AuditConfig

NODES = 2000
JOINERS = 50


@pytest.fixture
def audited_run():
    # Seed 1's last sample falls before the last joins settle, so the
    # final check has real work left.
    work = make_workload(4, 9, NODES - JOINERS, JOINERS, seed=1)
    auditor = work.network.attach_auditor(
        AuditConfig(interval=200.0, incremental=True)
    )
    work.start_all_joins()
    work.run()
    return work.network, auditor


def _no_full_index(members):
    raise AssertionError("finalize() built a second suffix index")


def test_finalize_rechecks_only_what_changed(audited_run, monkeypatch):
    net, auditor = audited_run
    checker = auditor._incremental
    verified = dict(zip(checker._members, checker._verified))
    changed = [
        node_id for node_id, node in net.nodes.items()
        if verified.get(node_id) != node.table.version
    ]
    assert 0 < len(changed) < NODES // 10
    before = checker.nodes_reverified
    monkeypatch.setattr(SuffixClassIndex, "of", _no_full_index)
    report = auditor.finalize()
    assert checker.nodes_reverified - before <= len(changed)
    assert report.passed
    assert report.final_consistent and report.all_in_system


def test_full_scan_trips_the_guard(audited_run, monkeypatch):
    """The guard is live: the full scanner builds its index via ``of``."""
    net, _auditor = audited_run
    monkeypatch.setattr(SuffixClassIndex, "of", _no_full_index)
    tables = {node_id: node.table for node_id, node in net.nodes.items()}
    with pytest.raises(AssertionError, match="second suffix index"):
        check_consistency(tables)
