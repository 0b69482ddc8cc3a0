"""Pinned :meth:`LiveAuditor.finalize` reports.

Each pin is ``(passed, final consistent, all in system, samples,
incidents, digest)`` of ``auditor.finalize().to_json_dict()``, where
``digest`` hashes the whole dict (every sample, gate and incident
``detail`` string).  The constants were recorded while the strict
quiescence check still rebuilt its own suffix index and rescanned
every table.  The full-scan and the incremental auditor must both
reproduce them: the quiescent check may take any route, but not to a
different report.

The runs are three seeds of a ``make_workload(4, 6, 400, 100)``
concurrent join under the default :class:`AuditConfig`, and the
dropped-``JoinNotiMsg`` run of ``test_audit.py`` -- once with the
default config (the wedged joiner is never promoted, so the final
check runs with ``T``-nodes left and ``require_s_states=False``), once
with the stall-promoting config and heartbeats past quiescence.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.workloads import make_workload
from repro.obs import AuditConfig, LiveAuditor
from tests.obs.test_audit import FAULT_CONFIG, run_audited

SEED_PINS = {
    0: (True, True, True, 21, 0, "097b832428192dcb"),
    1: (True, True, True, 21, 0, "00828139757db5c0"),
    2: (True, True, True, 22, 0, "48839ca4b141ad79"),
}

FAULT_PINS = {
    "default": (False, False, False, 15, 2, "2eca375fdfff5cec"),
    "promoted": (False, False, False, 40, 4, "ddf86b61ea7a5fc6"),
}


def pin(report):
    data = report.to_json_dict()
    blob = json.dumps(data, sort_keys=True).encode("utf-8")
    return (
        data["passed"],
        data["final"]["consistent"],
        data["final"]["all_in_system"],
        len(data["samples"]),
        len(data["incidents"]),
        hashlib.sha256(blob).hexdigest()[:16],
    )


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("seed", sorted(SEED_PINS))
def test_pinned_seed(seed, incremental):
    workload = make_workload(4, 6, 400, 100, seed=seed)
    auditor = LiveAuditor(
        workload.network, AuditConfig(incremental=incremental)
    ).attach()
    workload.start_all_joins()
    workload.run()
    assert pin(auditor.finalize()) == SEED_PINS[seed]


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("case", sorted(FAULT_PINS))
def test_pinned_fault(case, incremental):
    if case == "default":
        config = AuditConfig(incremental=incremental)
        _, auditor, dropped = run_audited(fault=True, config=config)
    else:
        config = replace(FAULT_CONFIG, incremental=incremental)
        _, auditor, dropped = run_audited(
            fault=True, heartbeat_until=2000, config=config
        )
    assert dropped == [("0213", "0113")]
    assert pin(auditor.finalize()) == FAULT_PINS[case]
