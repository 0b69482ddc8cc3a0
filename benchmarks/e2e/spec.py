"""What the benchmark measures: workloads, sizes, metrics, bounds.

Pure data, no ``repro`` import.  ``BENCHMARK.json`` at the repo root
restates the driver-facing part of this file (``selftest.py`` checks
the two agree); everything else -- the workload-specific end-to-end
metrics and the "moves" predictions -- is printed by
``python -m benchmarks.e2e`` and documented in ``README.md``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

DEFAULT_SEED = 21
#: Repetitions per workload in the all-workloads pass (each a fresh child).
REPETITIONS = 5

WORKLOADS = ("sim_join", "sim_scale", "lookup", "churn", "udp_join", "campaign")

#: Why each workload exists (one line; BENCHMARK.json carries the same text).
WHY: Dict[str, str] = {
    "sim_join": (
        "b16 d8, 1000 members + 1000 simultaneous joiners on a transit-stub "
        "topology: handlers, Transport.send and the event queue do ~70% of "
        "the work, the build path almost none"
    ),
    "sim_scale": (
        "b4 d9, 9900 oracle members + 100 joiners under the incremental "
        "LiveAuditor: the inverse profile, build path, auditor and memory "
        "dominate and handlers barely show"
    ),
    "lookup": (
        "read path over tables the protocol left (1200+300 joins): 60k "
        "route, 30k surrogate_route, 600 directory ops; a layout that "
        "speeds writes and slows get shows here"
    ),
    "churn": (
        "write/delete path: 75 members, 25 joins, 15 leaves, 10 crashes + "
        "recovery, optimize, a verdict after each phase; recovery and "
        "optimize fire ~98% of the events"
    ),
    "udp_join": (
        "deployment tier over host loopback: 128 DatagramTransports on one "
        "AsyncioRuntime(0.005), 31 sequential joins, then 96 with 8 in "
        "flight; codec, framing, ack/retransmit and mailbox do the work"
    ),
    "campaign": (
        "exec tier: the same 16 JoinTaskConfig(150+50) seeds through "
        "pool(jobs=2), remote (2 worker daemons) and inline; 0.05 s tasks "
        "under the 0.15 s poll interval make dispatch and polling overhead "
        "visible"
    ),
}

#: Full sizes (the ones every reported number uses).
SIZES: Dict[str, Dict[str, float]] = {
    "sim_join": dict(base=16, digits=8, n=1000, m=1000),
    "sim_scale": dict(base=4, digits=9, n=9900, m=100, audit_interval=200.0),
    "lookup": dict(
        base=16, digits=8, n=1200, m=300,
        routes=60_000, surrogates=30_000, directory=300, root_checks=200,
    ),
    "churn": dict(n=75, m=25, leaves=15, failures=10),
    "udp_join": dict(
        base=16, digits=8, nodes=128, sequential=31, window=8,
        time_scale=0.005,
    ),
    # Tasks well under the remote backend's 0.15 s poll interval: each
    # takes exactly one poll sweep.  At 0.11 s (n=300, m=100) a task
    # straddled the interval and the remote wall jumped in 0.15 s steps.
    "campaign": dict(tasks=16, n=150, m=50, workers=2, jobs=2),
}

#: ``--smoke`` sizes (about a tenth; never comparable with full runs).
SMOKE_SIZES: Dict[str, Dict[str, float]] = {
    "sim_join": dict(base=16, digits=8, n=100, m=100),
    "sim_scale": dict(base=4, digits=9, n=990, m=10, audit_interval=200.0),
    "lookup": dict(
        base=16, digits=8, n=120, m=30,
        routes=6_000, surrogates=3_000, directory=30, root_checks=20,
    ),
    "churn": dict(n=20, m=6, leaves=3, failures=2),
    "udp_join": dict(
        base=16, digits=8, nodes=13, sequential=3, window=2,
        time_scale=0.005,
    ),
    "campaign": dict(tasks=2, n=30, m=10, workers=2, jobs=2),
}


def sizes(workload: str, smoke: bool = False) -> Dict[str, float]:
    return dict((SMOKE_SIZES if smoke else SIZES)[workload])


class Metric(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median the metric may worsen by; 0.0 means
    #: the value must repeat exactly (simulated statistics, failures).
    bound: float
    clock: str  # "host" | "virtual" | "count"
    workloads: Tuple[str, ...]
    definition: str


_ALL = WORKLOADS

#: The driver-facing end-to-end metrics: every workload reports every
#: one of them, none is ever 0.  ``ops_per_s`` counts the workload's own
#: operation (see ``HEADLINE_OPS``).  The bounds are wide because the
#: box is: over sets of ten 20 s runs a metric's IQR/median was 1-8 % on
#: a quiet host and 14-18 % when one of the VM's 0.5-0.7x slow spells fell
#: inside the set (README, "How steady it is").
END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric(
        "s", "lower", 0.25, "host", _ALL,
        "host time to build the inputs and the initial system",
    ),
    "startup_s": Metric(
        "s", "lower", 0.25, "host", _ALL,
        "child spawn to the workload's first statement: interpreter start "
        "plus importing repro and the benchmark",
    ),
    "ops_per_s": Metric(
        "1/s", "higher", 0.25, "host", _ALL,
        "the workload's own operations completed per host second of its "
        "run phase",
    ),
    "verify_s": Metric(
        "s", "lower", 0.25, "host", _ALL,
        "host time of the verification phase(s)",
    ),
    "peak_rss_mib": Metric(
        "MiB", "lower", 0.10, "host", _ALL,
        "ru_maxrss of the fresh workload child (campaign: the coordinator)",
    ),
}

#: What ``ops_per_s`` counts on each workload.
HEADLINE_OPS: Dict[str, str] = {
    "sim_join": "protocol joins reaching in_system / run-phase seconds",
    "sim_scale": "protocol joins reaching in_system / audited-run seconds",
    "lookup": "route + surrogate_route + publish + query calls / run-phase seconds",
    "churn": "runtime events fired / run-phase seconds (joins, leaves, recovery, optimize)",
    "udp_join": "concurrent joins reaching in_system / concurrent-phase seconds",
    "campaign": "tasks through pool and remote / (pool wall + remote wall)",
}

#: Workload-specific end-to-end metrics, printed by the all-workloads
#: command and checked by ``--compare``.  They cannot sit in
#: BENCHMARK.json, whose contract wants every metric on every workload.
#: The issue proposed 10 % (latency 15 %); two passes of one commit on
#: this box differed by up to 12 % in a median of three, so host-time
#: bounds are 20 % (latency 25 %).  Simulated statistics stay exact.
WORKLOAD_METRICS: Dict[str, Metric] = {
    "cold_to_verified_s": Metric(
        "s", "lower", 0.15, "host", _ALL,
        "child spawn (interpreter start and imports included) to the last "
        "verification verdict",
    ),
    "joins_per_s": Metric(
        "1/s", "higher", 0.20, "host", ("sim_join", "sim_scale", "udp_join"),
        "protocol joins reaching in_system / host seconds of the run phase "
        "(udp_join: the concurrent phase)",
    ),
    "events_per_s": Metric(
        "1/s", "higher", 0.20, "host", ("sim_join", "sim_scale", "churn"),
        "runtime events_fired / host seconds of the run phase(s)",
    ),
    "lookups_per_s": Metric(
        "1/s", "higher", 0.20, "host", ("lookup",),
        "route + surrogate_route calls / host seconds",
    ),
    "directory_ops_per_s": Metric(
        "1/s", "higher", 0.20, "host", ("lookup",),
        "ObjectDirectory publish + query calls / host seconds",
    ),
    "route_hops_mean": Metric(
        "hops", "lower", 0.0, "virtual", ("lookup",),
        "simulated statistic: mean hops over every route and surrogate route",
    ),
    "join_noti_mean": Metric(
        "msgs", "lower", 0.0, "virtual", ("sim_join", "sim_scale"),
        "simulated statistic: mean JoinNotiMsg per joiner (Fig. 15(b), Thm 5)",
    ),
    "join_latency_p50_ms": Metric(
        "ms", "lower", 0.25, "host", ("udp_join",),
        "wall begin_join -> in_system per concurrent joiner, pooled over "
        "repetitions",
    ),
    "join_latency_p85_ms": Metric(
        "ms", "lower", 0.25, "host", ("udp_join",),
        "same; p85 is the highest percentile with >= 10 samples beyond it "
        "at n = 96",
    ),
    "tasks_per_s.pool": Metric(
        "1/s", "higher", 0.20, "host", ("campaign",),
        "tasks / wall of ProcessPoolBackend(jobs=2).map, pool spawn included",
    ),
    "tasks_per_s.remote": Metric(
        "1/s", "higher", 0.20, "host", ("campaign",),
        "tasks / wall of RemoteBackend.map over two ready workers",
    ),
    "failed_share": Metric(
        "ratio", "lower", 0.0, "count", _ALL,
        "ops_failed / ops_attempted (both printed)",
    ),
}

ALL_METRICS: Dict[str, Metric] = {**END_TO_END, **WORKLOAD_METRICS}


class Layer(NamedTuple):
    unit: str
    better: str
    source: str  # T = traced self time / count, M = microbenchmark, C = counter
    moves: str


#: Per-layer metrics (``--trace 1``).  A layer a workload does not
#: execute reads 0 there.  ``moves`` names the end-to-end metric and
#: workload each should move, and where the prediction is "no change".
PER_LAYER: Dict[str, Layer] = {
    # ids
    "ids.csuf_ns": Layer("ns", "lower", "M",
        "ops_per_s@sim_join,lookup; setup_s@sim_scale"),
    "ids.generate_us_per_id": Layer("us", "lower", "T", "setup_s@sim_scale"),
    # routing
    "routing.oracle_us_per_node": Layer("us", "lower", "T",
        "setup_s,cold_to_verified_s@sim_scale; no change @sim_join"),
    "routing.table_get_ns": Layer("ns", "lower", "M", "ops_per_s@lookup"),
    "routing.table_set_ns": Layer("ns", "lower", "M",
        "ops_per_s@sim_join,churn; no change @lookup"),
    "routing.snapshot_cold_us": Layer("us", "lower", "M",
        "ops_per_s@sim_join,churn; no change @lookup"),
    "routing.snapshot_hot_ns": Layer("ns", "lower", "M",
        "ops_per_s@sim_join; no change @lookup"),
    "routing.route_us": Layer("us", "lower", "T", "ops_per_s@lookup"),
    "routing.surrogate_route_us": Layer("us", "lower", "T", "ops_per_s@lookup"),
    "routing.directory_op_us": Layer("us", "lower", "T",
        "ops_per_s@lookup (directory_ops_per_s)"),
    "routing.tables_rebuild_share": Layer("ratio", "lower", "T",
        "directory_ops_per_s@lookup"),
    # sim
    "sim.queue_push_ns": Layer("ns", "lower", "T",
        "ops_per_s@sim_join,churn; no change @udp_join"),
    "sim.queue_pop_ns": Layer("ns", "lower", "T",
        "ops_per_s@sim_join,churn; no change @udp_join"),
    "sim.loop_share": Layer("ratio", "lower", "T", "ops_per_s@sim_join,churn"),
    "sim.queue_push_pop_ns": Layer("ns", "lower", "M",
        "ops_per_s@sim_join,churn"),
    "sim.events_fired": Layer("count", "lower", "C",
        "exact; events_per_s numerators"),
    # network
    "network.send_us": Layer("us", "lower", "T", "ops_per_s@sim_join"),
    "network.send_share": Layer("ratio", "lower", "T", "ops_per_s@sim_join"),
    "network.msgs_sent": Layer("count", "lower", "C", "exact on sim"),
    "network.bytes_sent": Layer("count", "lower", "C", "exact on sim"),
    # topology
    "topology.generate_s": Layer("s", "lower", "T",
        "setup_s@sim_join,churn,lookup; no change @sim_scale"),
    "topology.latency_us": Layer("us", "lower", "T", "ops_per_s@sim_join"),
    "topology.latency_calls": Layer("count", "lower", "T", "ops_per_s@sim_join"),
    "topology.memo_hit_ratio": Layer("ratio", "higher", "T",
        "ops_per_s@sim_join; 0 @sim_scale (jittered, never memoized)"),
    # protocol
    "protocol.handle_us.JoinNotiMsg": Layer("us", "lower", "T",
        "ops_per_s@sim_join,udp_join"),
    "protocol.handle_us.JoinNotiRlyMsg": Layer("us", "lower", "T",
        "ops_per_s@sim_join,udp_join"),
    "protocol.handle_us.CpRlyMsg": Layer("us", "lower", "T",
        "ops_per_s@sim_join,udp_join"),
    "protocol.handle_us.JoinWaitRlyMsg": Layer("us", "lower", "T",
        "ops_per_s@sim_join,udp_join"),
    "protocol.handle_us.RvNghNotiMsg": Layer("us", "lower", "T",
        "ops_per_s@sim_join,udp_join"),
    "protocol.handle_us.other": Layer("us", "lower", "T",
        "ops_per_s@churn (recovery/optimize message types)"),
    "protocol.handle_share": Layer("ratio", "lower", "T",
        "ops_per_s@sim_join; join_latency@udp_join"),
    "protocol.add_s_node_us": Layer("us", "lower", "T", "setup_s@sim_scale"),
    "protocol.leave_s": Layer("s", "lower", "T", "ops_per_s@churn"),
    # consistency
    "consistency.check_us_per_node": Layer("us", "lower", "T",
        "verify_s@sim_join,lookup,udp_join,churn"),
    "consistency.incremental_us_per_reverified": Layer("us", "lower", "T",
        "ops_per_s@sim_scale"),
    "consistency.full_rescans": Layer("count", "lower", "C",
        "ops_per_s@sim_scale (0 unless membership shrinks)"),
    # obs
    "obs.audit_sample_ms": Layer("ms", "lower", "T",
        "ops_per_s@sim_scale; absent elsewhere"),
    "obs.audit_samples": Layer("count", "lower", "C", "exact"),
    "obs.audit_finalize_s": Layer("s", "lower", "T", "verify_s@sim_scale"),
    # recovery, optimize
    "recovery.recover_s": Layer("s", "lower", "T",
        "ops_per_s,cold_to_verified_s@churn; no change elsewhere"),
    "recovery.events_per_failure": Layer("count", "lower", "C", "ops_per_s@churn"),
    "recovery.msgs_per_repaired_entry": Layer("count", "lower", "C",
        "ops_per_s@churn"),
    "optimize.optimize_s": Layer("s", "lower", "T", "ops_per_s@churn"),
    "optimize.events": Layer("count", "lower", "C", "ops_per_s@churn"),
    "optimize.stretch_gain": Layer("ratio", "higher", "C",
        "quality of the optimize pass; exact"),
    # runtime
    "runtime.loop_share": Layer("ratio", "lower", "T",
        "ops_per_s,join_latency@udp_join: AsyncioRuntime.run self time -- "
        "mailbox, asyncio loop and the datagram receive path"),
    "runtime.codec_encode_us": Layer("us", "lower", "M",
        "ops_per_s,join_latency@udp_join; no change on sim"),
    "runtime.codec_decode_us": Layer("us", "lower", "M",
        "ops_per_s,join_latency@udp_join; no change on sim"),
    # net
    "net.frame_encode_us": Layer("us", "lower", "M", "ops_per_s@udp_join"),
    "net.frame_decode_us": Layer("us", "lower", "M", "ops_per_s@udp_join"),
    "net.frame_bytes_mean": Layer("count", "lower", "M", "ops_per_s@udp_join"),
    "net.datagram_send_us": Layer("us", "lower", "T", "ops_per_s@udp_join"),
    "net.socket_open_ms": Layer("ms", "lower", "T", "setup_s@udp_join"),
    "net.datagrams_per_msg": Layer("ratio", "lower", "C",
        "ops_per_s,join_latency_p85@udp_join; ideal 2.0"),
    "net.retransmit_ratio": Layer("ratio", "lower", "C",
        "join_latency_p85@udp_join; ideal 0 at zero loss"),
    "net.duplicates_suppressed": Layer("count", "lower", "C",
        "ops_per_s@udp_join"),
    "net.gave_up": Layer("count", "lower", "C", "failed@udp_join"),
    # exec
    "exec.inline_tasks_per_s": Layer("1/s", "higher", "T",
        "verify_s@campaign; the base of both efficiencies"),
    "exec.pool_efficiency": Layer("ratio", "higher", "T",
        "ops_per_s@campaign (tasks_per_s.pool)"),
    "exec.remote_efficiency": Layer("ratio", "higher", "T",
        "ops_per_s@campaign (tasks_per_s.remote)"),
    "exec.pool_first_result_s": Layer("s", "lower", "T",
        "tasks_per_s.pool@campaign"),
    "exec.worker_ready_s": Layer("s", "lower", "T", "setup_s@campaign"),
    "exec.control_rtt_ms": Layer("ms", "lower", "M",
        "tasks_per_s.remote@campaign"),
    "exec.task_encode_us": Layer("us", "lower", "M",
        "tasks_per_s.remote@campaign"),
    "exec.task_decode_us": Layer("us", "lower", "M",
        "tasks_per_s.remote@campaign"),
    # experiments
    "experiments.make_workload_s": Layer("s", "lower", "T",
        "setup_s on every sim workload"),
    # the ledger itself
    "trace.wall_s": Layer("s", "lower", "T",
        "traced cold_to_verified; against the untraced one = overhead"),
    "trace.ledger_residual_pct": Layer("%", "lower", "T",
        "|sum of self times - traced wall|; must stay under 2"),
    "trace.harness_share": Layer("ratio", "lower", "T",
        "share of the traced wall outside every wrapped layer"),
}
