"""Scale benchmark: a 100k-node audited join run, plus the paper-scale
Figure 15(b) configuration.

Two sections, recorded together in ``BENCH_scale.json`` at the repo
root:

1. **scale** -- ``REPRO_SCALE_N`` total nodes (default 100,000): an
   oracle-built consistent network of ``N - M`` members that ``M``
   protocol joiners enter simultaneously, watched by a
   :class:`~repro.obs.audit.LiveAuditor` running the incremental
   (dirty-set) consistency checker.  The whole build-and-run is traced
   with :mod:`tracemalloc` and gated on **peak KiB per node** -- a
   scale-invariant form of the memory budget, so the same gate applies
   to the reduced-``N`` CI smoke run (``REPRO_SCALE_N=5000``) and the
   full 100k run.  The run itself is gated on the auditor's verdict:
   zero hard incidents, Theorem 3 within bound, final tables
   consistent with everyone in system.

2. **figure15b_full** -- Figure 15(b) regenerated at the paper's full
   GT-ITM scale: the default :class:`TransitStubParams` (8320 routers,
   the router count used in the paper's simulations) with ``n = 3096``
   initial members and ``m = 1000`` joiners, ``b = 16``, ``d = 8``.
   Gated on consistency, Theorem 3, and the Theorem 5 mean bound.
   Skip with ``REPRO_SCALE_FIG15B=0`` (the CI smoke job does).

Environment knobs: ``REPRO_SCALE_N`` (total nodes), ``REPRO_SCALE_M``
(protocol joiners), ``REPRO_SCALE_MEM_KIB_PER_NODE`` (memory gate,
``0`` disables), ``REPRO_SCALE_FIG15B`` (``0`` skips section 2).
"""

import gc
import json
import os
import pathlib
import time
import tracemalloc

from repro.experiments.fig15b import PAPER_CONFIGS
from repro.experiments.parallel import run_join_task
from repro.experiments.workloads import make_workload
from repro.obs.audit import AuditConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_scale.json"

#: Total nodes in the scale section (initial members + joiners).
SCALE_N = int(os.environ.get("REPRO_SCALE_N", "100000"))
#: How many of them enter through the join protocol (simultaneously).
SCALE_M = int(os.environ.get("REPRO_SCALE_M", "500"))
SCALE_BASE = 4
SCALE_DIGITS = 9  # 4^9 = 262,144 IDs: room for 10^5 unique draws
SCALE_SEED = 11
#: Virtual time between auditor samples.
AUDIT_INTERVAL = 200.0

#: Peak traced KiB per node the build-and-run may use.  Measured 5.09
#: KiB/node at n=5k and 4.81 at n=100k (the footprint is linear: table
#: arrays and entries, reverse-pointer buckets, one slotted record per
#: node, the auditor's class index; see docs/performance.md), so one
#: gate, ~15 % above the larger figure, serves the reduced-N CI smoke
#: and the full run.  Override with ``REPRO_SCALE_MEM_KIB_PER_NODE``
#: (``0`` disables the gate).
MEM_GATE_KIB_PER_NODE = float(
    os.environ.get("REPRO_SCALE_MEM_KIB_PER_NODE", "5.8")
)

RUN_FIG15B = os.environ.get("REPRO_SCALE_FIG15B", "1") != "0"
#: The paper's full-scale smaller setup: 8320 routers, 4096 end-hosts
#: (3096 initial + 1000 joining), b=16, d=8, seed 0.
FIG15B_CONFIG = PAPER_CONFIGS[0]


def _run_scale_section():
    """The audited join run, traced; returns its record dict."""
    gc.collect()
    tracemalloc.start()
    build_t0 = time.process_time()
    workload = make_workload(
        base=SCALE_BASE,
        num_digits=SCALE_DIGITS,
        n=SCALE_N - SCALE_M,
        m=SCALE_M,
        seed=SCALE_SEED,
        use_topology=False,
    )
    auditor = workload.network.attach_auditor(
        AuditConfig(
            interval=AUDIT_INTERVAL,
            incremental=True,
            stall_timeout=10_000.0,
        )
    )
    workload.start_all_joins(at=0.0)
    build_s = time.process_time() - build_t0

    run_t0 = time.process_time()
    events = workload.network.run()
    run_s = time.process_time() - run_t0

    report = auditor.finalize()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    checker = auditor._incremental
    kib_per_node = peak / 1024.0 / SCALE_N
    record = {
        "total_nodes": SCALE_N,
        "initial_nodes": SCALE_N - SCALE_M,
        "joiners": SCALE_M,
        "base": SCALE_BASE,
        "num_digits": SCALE_DIGITS,
        "seed": SCALE_SEED,
        "build_and_start_sec": round(build_s, 3),
        "run_sec": round(run_s, 3),
        "events_fired": events,
        "events_per_sec": round(events / run_s) if run_s else None,
        "virtual_duration": workload.network.runtime.now,
        "total_messages": workload.network.stats.total_messages,
        "memory": {
            "tracemalloc_peak_mib": round(peak / (1024.0 * 1024.0), 2),
            "kib_per_node": round(kib_per_node, 3),
            "gate_kib_per_node": MEM_GATE_KIB_PER_NODE or None,
        },
        "audit": {
            "samples": len(report.samples),
            "hard_incidents": len(report.hard_incidents),
            "soft_incidents": len(report.warnings),
            "theorem3_max": report.theorem3_max,
            "theorem3_bound": report.theorem3_bound,
            "final_consistent": report.final_consistent,
            "all_in_system": report.all_in_system,
            "incremental": {
                "nodes_reverified": checker.nodes_reverified,
                "full_rescans": checker.full_rescans,
            },
        },
    }

    assert report.passed, (
        f"audit raised hard incidents: "
        f"{[i.to_json_dict() for i in report.hard_incidents[:5]]}"
    )
    assert report.final_consistent, "final tables are not consistent"
    assert report.all_in_system, "not every node reached the S state"
    assert report.theorem3_max <= report.theorem3_bound
    # Join-only run: membership never shrinks, so the incremental
    # checker must never have fallen back to a full rescan.
    assert checker.full_rescans == 0
    if MEM_GATE_KIB_PER_NODE > 0:
        assert kib_per_node <= MEM_GATE_KIB_PER_NODE, (
            f"peak memory {kib_per_node:.2f} KiB/node exceeds the "
            f"{MEM_GATE_KIB_PER_NODE} KiB/node gate "
            f"(override with REPRO_SCALE_MEM_KIB_PER_NODE)"
        )
    return record


def _run_fig15b_section():
    """Figure 15(b) at the paper's 8320-router scale."""
    gc.collect()
    t0 = time.process_time()
    result = run_join_task(FIG15B_CONFIG)
    elapsed = time.process_time() - t0

    record = {
        "config": {
            "n": FIG15B_CONFIG.n,
            "m": FIG15B_CONFIG.m,
            "base": FIG15B_CONFIG.base,
            "num_digits": FIG15B_CONFIG.num_digits,
            "seed": FIG15B_CONFIG.seed,
            "routers": 8320,
        },
        "run_sec": round(elapsed, 3),
        "mean_join_noti": round(result.mean_join_noti, 3),
        "max_join_noti": result.max_join_noti,
        "theorem5_bound": round(FIG15B_CONFIG.theorem5_bound, 3),
        "theorem3_violations": result.theorem3_violations,
        "consistent": result.consistent,
        "all_in_system": result.all_in_system,
        "total_messages": result.total_messages,
    }

    assert result.consistent, "figure 15(b) run ended inconsistent"
    assert result.all_in_system
    assert result.theorem3_violations == 0
    assert result.mean_join_noti <= FIG15B_CONFIG.theorem5_bound, (
        f"mean JoinNotiMsg {result.mean_join_noti:.3f} exceeds the "
        f"Theorem 5 bound {FIG15B_CONFIG.theorem5_bound:.3f}"
    )
    return record


def test_scale_gates():
    record = {
        "generated_by": "benchmarks/bench_scale.py",
        "scale": _run_scale_section(),
        "figure15b_full": (
            _run_fig15b_section()
            if RUN_FIG15B
            else {"skipped": "REPRO_SCALE_FIG15B=0"}
        ),
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")


if __name__ == "__main__":
    test_scale_gates()
