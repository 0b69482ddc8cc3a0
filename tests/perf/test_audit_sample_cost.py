"""An incremental audit sample costs what changed since the last one.

A count gate, not a clock gate, on a 2 000-node audited join run:

* the first sample verifies every audited table exactly once;
* a sample after which nothing changed verifies no table and leaves
  the auditor's audited map as it was (not rebuilt, no entry re-laid);
* a sample after ``k`` table mutations verifies exactly those ``k``
  tables, and does not touch the audited map either.
"""

import random

import pytest

import repro.consistency.incremental as incremental
from repro.experiments.workloads import make_workload
from repro.obs.audit import AuditConfig, LiveAuditor
from repro.routing.entry import NeighborState

NODES = 2000
JOINERS = 50


@pytest.fixture
def audited_run(monkeypatch):
    """The run, plus ``calls``: per sample, the nodes whose tables the
    incremental checker verified during it."""
    verified = []
    scan = incremental.table_violations

    def spy(node_id, *args, **kwargs):
        verified.append(node_id)
        return scan(node_id, *args, **kwargs)

    monkeypatch.setattr(incremental, "table_violations", spy)
    work = make_workload(4, 9, NODES - JOINERS, JOINERS, seed=1)
    auditor = work.network.attach_auditor(
        AuditConfig(interval=200.0, incremental=True)
    )
    calls = []
    take = auditor.sample

    def sample(now):
        del verified[:]
        result = take(now)
        calls.append(list(verified))
        return result

    monkeypatch.setattr(auditor, "sample", sample)
    work.start_all_joins()
    work.run()
    return work.network, auditor, calls


def _no_relay(*args):
    raise AssertionError("the audited map was laid out again")


def test_first_sample_verifies_each_table_once(audited_run):
    _net, auditor, calls = audited_run
    first = calls[0]
    assert len(first) == len(set(first))
    assert len(first) == auditor.report.samples[0].s_nodes == NODES - JOINERS


def test_quiet_sample_verifies_nothing(audited_run, monkeypatch):
    net, auditor, calls = audited_run
    auditor.sample(net.runtime.now)  # settles the last joins
    before = auditor._incremental.nodes_reverified
    audited = auditor._audited
    entries = list(audited.items())
    monkeypatch.setattr(LiveAuditor, "_relay_audited", _no_relay)
    sample = auditor.sample(net.runtime.now + 1.0)
    assert calls[-1] == []
    assert auditor._incremental.nodes_reverified == before
    assert auditor._audited is audited
    assert list(audited.items()) == entries
    assert sample.s_nodes == NODES and sample.violations == 0


def test_sample_verifies_exactly_the_mutated_tables(audited_run, monkeypatch):
    net, auditor, calls = audited_run
    auditor.sample(net.runtime.now)
    monkeypatch.setattr(LiveAuditor, "_relay_audited", _no_relay)
    rng = random.Random(7)
    mutated = rng.sample(sorted(net.nodes), 7)
    for node_id in mutated:
        table = net.nodes[node_id].table
        entry = rng.choice(list(table.entries()))
        table.set_state(entry.level, entry.digit, NeighborState.T)
    before = auditor._incremental.nodes_reverified
    auditor.sample(net.runtime.now + 1.0)
    assert sorted(calls[-1]) == sorted(mutated)
    assert auditor._incremental.nodes_reverified - before == len(mutated)
