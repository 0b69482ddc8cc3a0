"""Whole :class:`AuditReport`s, pinned sample by sample.

The constants were recorded before the live audit learned to pay only
for what changed between samples (the clean-table fast path of
``table_violations``, the incremental checker's parallel version list,
the auditor's maintained audited map).  Every route to a verdict must
still produce these reports: each sample's ``time``, ``s_nodes``,
``t_nodes``, ``violations`` and ``persistent_violations``, the final
verdicts, and each incident's kind and time.

* ``sim_scale``-shaped runs (``b=4, d=9``, no topology, one sample per
  200 time units) at three seeds, 1 900 members and 100 joiners: the
  audited membership grows between samples.
* Joins, then serialized leaves, then crashes and recovery: members
  sit in ``leaving`` during samples and the membership shrinks, so the
  incremental checker takes its full-rescan path.

The dropped-``JoinNotiMsg`` run (violations persist, a stalled joiner
is promoted) is pinned whole by ``test_finalize_pins.py``.  The long
sample list is pinned as a count plus a digest of the same fields.
Both the full-scan and the incremental auditor must match.
"""

import hashlib
import random

import pytest

from repro.experiments.workloads import make_workload
from repro.obs import AuditConfig, LiveAuditor
from repro.protocol.leave import leave_sequentially
from repro.recovery import fail_nodes, recover_from_failures

SCALE_PINS = {
    0: [
        (200.0029575393178, 1900, 100, 0, 0),
        (400.0702993557035, 1900, 100, 0, 0),
        (600.1256399319032, 1910, 90, 0, 0),
        (800.1747305681214, 1956, 44, 0, 0),
        (1006.4425395613941, 1991, 9, 0, 0),
        (1227.9604568848242, 2000, 0, 0, 0),
    ],
    1: [
        (200.1148255212774, 1900, 100, 0, 0),
        (400.14109232376484, 1900, 100, 0, 0),
        (600.1976194064812, 1906, 94, 0, 0),
        (800.4937938974088, 1944, 56, 0, 0),
        (1000.8172667264034, 1992, 8, 0, 0),
        (1252.6915977217843, 2000, 0, 0, 0),
    ],
    2: [
        (200.21471743416208, 1900, 100, 0, 0),
        (400.3309800666303, 1900, 100, 0, 0),
        (600.4299997679504, 1905, 95, 0, 0),
        (801.2126667826518, 1949, 51, 0, 0),
        (1002.9832059736408, 1992, 8, 0, 0),
        (1215.937083504802, 2000, 0, 0, 0),
    ],
}

#: ``(samples, digest of the sample fields and incidents, (passed,
#: final consistent, all in system), incident kinds with their count)``.
#: No ``stall`` incident: the two joiners that leave stop being joiners.
CHURN_PIN = (
    189, "2b9da5b5bc16d3db", (False, True, True), [("consistency", 36)],
)


def samples_of(report):
    return [
        (s.time, s.s_nodes, s.t_nodes, s.violations, s.persistent_violations)
        for s in report.samples
    ]


def verdicts_of(report):
    return (report.passed, report.final_consistent, report.all_in_system)


def incidents_of(report):
    return [(i.kind, i.time) for i in report.incidents]


def summary(report):
    samples = samples_of(report)
    blob = repr((samples, incidents_of(report))).encode("utf-8")
    kinds = {}
    for kind, _time in incidents_of(report):
        kinds[kind] = kinds.get(kind, 0) + 1
    return (
        len(samples),
        hashlib.sha256(blob).hexdigest()[:16],
        verdicts_of(report),
        sorted(kinds.items()),
    )


def churn_run(incremental):
    """Joins, six serialized leaves, five crashes plus recovery, all
    under one auditor sampling every 20 time units."""
    workload = make_workload(4, 5, 150, 30, seed=3)
    net = workload.network
    auditor = LiveAuditor(
        net, AuditConfig(interval=20.0, incremental=incremental)
    ).attach()
    workload.start_all_joins()
    workload.run()
    rng = random.Random(3)
    leave_sequentially(net, rng.sample(net.member_ids(), 6))
    fail_nodes(net, rng.sample(net.member_ids(), 5))
    recover_from_failures(net)
    return auditor


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("seed", sorted(SCALE_PINS))
def test_scale_shaped_run(seed, incremental):
    workload = make_workload(4, 9, 1900, 100, seed=seed)
    auditor = LiveAuditor(
        workload.network,
        AuditConfig(interval=200.0, incremental=incremental),
    ).attach()
    workload.start_all_joins()
    workload.run()
    report = auditor.finalize()
    assert samples_of(report) == SCALE_PINS[seed]
    assert verdicts_of(report) == (True, True, True)
    assert incidents_of(report) == []


@pytest.mark.parametrize("incremental", [False, True])
def test_leave_and_crash_run(incremental):
    auditor = churn_run(incremental)
    assert summary(auditor.finalize()) == CHURN_PIN
    if incremental:
        assert auditor._incremental.full_rescans > 0
