"""The six workloads.  Each function runs one complete cycle --
set-up, run, verify -- against ``repro``'s public API and reports
through a :class:`Recorder`.  All loops are closed: the next operation
starts when the system is quiescent or a backend slot frees.

Layer entry points are called through their module (``wl.make_workload``,
``router.surrogate_route``, ...) so the wrappers ``tracing.install``
puts on those modules are the ones executed.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import repro.consistency as consistency
import repro.optimize as optimize
import repro.recovery as recovery
from repro.exec import InlineBackend, ProcessPoolBackend, RemoteBackend
from repro.experiments import workloads as wl
from repro.experiments.churn import ChurnConfig
from repro.experiments.parallel import (
    JoinTaskConfig,
    run_join_task,
    seeded_configs,
)
from repro.ids import IdSpace
from repro.net.control import ControlClient
from repro.net.datagram import DatagramTransport
from repro.obs.audit import AuditConfig, LiveAuditor
from repro.protocol import NodeStatus, ProtocolNode, leave, single_node_table
from repro.routing import location, router
from repro.runtime.realtime import AsyncioRuntime

SRC = Path(__file__).resolve().parents[2] / "src"


class Recorder:
    """Collects one cycle's timings, verdicts and counts."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: phase -> host seconds; ``a.b`` is also added to ``a``.
        self.phases: Dict[str, float] = {}
        #: phase -> process CPU seconds (same keys).
        self.cpu: Dict[str, float] = {}
        self.verdicts: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.values: Dict[str, Any] = {}
        self.fingerprint: Optional[Dict[str, Any]] = None
        self.verified_at: Optional[float] = None
        #: Live objects kept for the microbenchmarks (traced runs).
        self.harvest: Dict[str, Any] = {}
        #: Teardown callables, run by the caller once it is done with
        #: the harvest (the campaign's workers must outlive the cycle
        #: for the control round-trip microbenchmark).
        self.cleanup: List[Callable[[], None]] = []

    @contextmanager
    def phase(self, name: str):
        """Time a phase: collect garbage first, leave the GC on inside."""
        gc.collect()
        span = self.tracer.span("phase." + name) if self.tracer else nullcontext()
        with span:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                yield
            finally:
                wall = time.perf_counter() - wall
                cpu = time.process_time() - cpu
                for key in {name, name.split(".", 1)[0]}:
                    self.phases[key] = self.phases.get(key, 0.0) + wall
                    self.cpu[key] = self.cpu.get(key, 0.0) + cpu

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def verdict(self, name: str, ok: bool) -> None:
        """One verification verdict; it is also one attempted op."""
        self.verdicts[name] = bool(ok)
        self.ops(1, 0 if ok else 1)
        self.verified_at = time.monotonic()


def _sim_fingerprint(net, **extra) -> Dict[str, Any]:
    """Simulated statistics that must repeat exactly for one seed."""
    return {
        "events_fired": net.runtime.events_fired,
        "messages": net.stats.total_messages,
        "bytes": net.stats.total_bytes,
        "by_type": dict(sorted(net.stats.snapshot().items())),
        **extra,
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _check_joiners(net, joiners, rec: Recorder) -> int:
    """Theorem 2 (in_system) and Theorem 3 (<= d+1) per joiner."""
    bound = net.idspace.num_digits + 1
    counts = net.theorem3_counts()
    joined = sum(1 for j in joiners if net.nodes[j].status.is_s_node)
    over = sum(1 for c in counts if c > bound)
    rec.ops(len(joiners), (len(joiners) - joined) + over)
    rec.verdict("all_in_system", joined == len(joiners))
    rec.verdict("theorem3", over == 0)
    return joined


# ---------------------------------------------------------------------------


def sim_join(size: Dict[str, Any], seed: int, rec: Recorder) -> None:
    with rec.phase("setup"):
        work = wl.make_workload(
            size["base"], size["digits"], size["n"], size["m"],
            seed=seed, use_topology=True,
        )
        work.start_all_joins()
    net = work.network
    with rec.phase("run"):
        fired = net.run()
    with rec.phase("verify"):
        rec.verdict("definition_3_8", net.check_consistency().consistent)
        joined = _check_joiners(net, work.joiner_ids, rec)
    noti = _mean(net.join_noti_counts())
    rec.values.update(
        ops=joined, events=fired, joins=joined, join_noti_mean=noti,
        msgs_sent=net.stats.total_messages, bytes_sent=net.stats.total_bytes,
    )
    rec.fingerprint = _sim_fingerprint(net, join_noti_mean=noti)
    rec.harvest.update(ids=work.initial_ids + work.joiner_ids, network=net)


def sim_scale(size: Dict[str, Any], seed: int, rec: Recorder) -> None:
    with rec.phase("setup"):
        work = wl.make_workload(
            size["base"], size["digits"], size["n"], size["m"],
            seed=seed, use_topology=False,
        )
        auditor = LiveAuditor(
            work.network,
            AuditConfig(interval=size["audit_interval"], incremental=True),
        ).attach()
        work.start_all_joins()
    net = work.network
    with rec.phase("run"):
        fired = net.run()
    with rec.phase("verify"):
        report = auditor.finalize()
        rec.verdict("audit_passed", report.passed)
        rec.verdict("definition_3_8", bool(report.final_consistent))
        joined = _check_joiners(net, work.joiner_ids, rec)
    noti = _mean(net.join_noti_counts())
    rec.values.update(
        ops=joined, events=fired, joins=joined, join_noti_mean=noti,
        audit_samples=len(report.samples),
        msgs_sent=net.stats.total_messages, bytes_sent=net.stats.total_bytes,
    )
    rec.fingerprint = _sim_fingerprint(
        net, join_noti_mean=noti, audit_samples=len(report.samples)
    )
    rec.harvest.update(ids=work.initial_ids + work.joiner_ids, network=net)


def lookup(size: Dict[str, Any], seed: int, rec: Recorder) -> None:
    rng = random.Random(f"lookup-{seed}")
    with rec.phase("setup"):
        work = wl.make_workload(
            size["base"], size["digits"], size["n"], size["m"],
            seed=seed, use_topology=True,
        )
        work.start_all_joins()
        work.run()
        net = work.network
        members = net.member_ids()

        def member():
            return members[int(rng.random() * len(members))]

        pairs = [(member(), member()) for _ in range(size["routes"])]
        objects = [
            (member(), net.idspace.random_id(rng))
            for _ in range(size["surrogates"])
        ]
        names = [
            (f"object-{seed}-{i}", member(), member())
            for i in range(size["directory"])
        ]
    nodes = net.nodes

    def table_of(node_id):
        return nodes[node_id].table

    hops = failed = 0
    with rec.phase("run.route"):
        for source, target in pairs:
            result = net.route(source, target)
            hops += len(result.path) - 1
            if not result.success:
                failed += 1
    with rec.phase("run.surrogate"):
        surrogate_route = router.surrogate_route
        for origin, object_id in objects:
            result = surrogate_route(table_of, origin, object_id)
            hops += len(result.path) - 1
            if not result.success:
                failed += 1
    rec.ops(len(pairs) + len(objects), failed)
    missing = 0
    with rec.phase("run.directory"):
        directory = location.ObjectDirectory(net)
        for name, holder, _asker in names:
            directory.publish(holder, name)
        for name, holder, asker in names:
            if holder not in directory.query(asker, name):
                missing += 1
    rec.ops(2 * len(names), missing)
    with rec.phase("verify"):
        rec.verdict("definition_3_8", net.check_consistency().consistent)
        rec.verdict("all_in_system", net.all_in_system())
        # P1: an object's root does not depend on where the lookup starts.
        split = 0
        for origin, object_id in objects[: size["root_checks"]]:
            other = member()
            if (
                location.object_root(table_of, origin, object_id)
                != location.object_root(table_of, other, object_id)
            ):
                split += 1
        rec.verdict("deterministic_roots", split == 0)
    lookups = len(pairs) + len(objects)
    hops_mean = hops / lookups
    rec.values.update(
        ops=lookups + 2 * len(names), lookups=lookups,
        directory_ops=2 * len(names), route_hops_mean=hops_mean,
    )
    rec.fingerprint = _sim_fingerprint(
        net, route_hops=hops, route_hops_mean=hops_mean
    )
    rec.harvest.update(ids=members, network=net)


def churn(size: Dict[str, Any], seed: int, rec: Recorder) -> None:
    """The lifecycle of ``repro.experiments.churn.run_churn``, phase by
    phase so each phase is timed and counted separately."""
    config = ChurnConfig(
        n=size["n"], m=size["m"], leaves=size["leaves"],
        failures=size["failures"], seed=seed,
    )
    rng = random.Random(config.seed)
    with rec.phase("setup"):
        work = wl.make_workload(
            config.base, config.num_digits, config.n, config.m,
            seed=config.seed, use_topology=True,
        )
    net = work.network
    runtime = net.runtime

    def checkpoint(name: str) -> None:
        with rec.phase("verify"):
            rec.verdict(name, net.check_consistency().consistent)

    def counted(name: str, body: Callable[[], Any]) -> Any:
        events, msgs = runtime.events_fired, net.stats.total_messages
        with rec.phase("run." + name):
            out = body()
        rec.values[name + "_events"] = runtime.events_fired - events
        rec.values[name + "_msgs"] = net.stats.total_messages - msgs
        return out

    checkpoint("bootstrap")

    def joins() -> None:
        work.start_all_joins(at=runtime.now)
        work.run()

    counted("joins", joins)
    joined = sum(1 for j in work.joiner_ids if net.nodes[j].status.is_s_node)
    rec.ops(config.m, config.m - joined)
    checkpoint("joins")

    leavers = rng.sample(net.member_ids(), config.leaves)
    counted("leaves", lambda: leave.leave_sequentially(net, leavers))
    gone = sum(1 for leaver in leavers if net.has_departed(leaver))
    rec.ops(config.leaves, config.leaves - gone)
    checkpoint("leaves")

    victims = rng.sample(net.member_ids(), config.failures)

    def crash_and_recover():
        recovery.fail_nodes(net, victims)
        return recovery.recover_from_failures(net)

    report = counted("recovery", crash_and_recover)
    rec.ops(config.failures, 0 if report.consistent else config.failures)
    checkpoint("recovery")

    def optimize_pass():
        before = optimize.measure_stretch(net, sample_pairs=150)
        optimize.optimize_tables(net)
        after = optimize.measure_stretch(net, sample_pairs=150)
        return before.mean_stretch, after.mean_stretch

    before, after = counted("optimize", optimize_pass)
    checkpoint("optimize")

    # ops = events: how many events one lifecycle takes swings +-25 %
    # with the sampled IDs, the cost of an event does not.
    rec.values.update(
        ops=runtime.events_fired,
        membership_changes=config.m + config.leaves + config.failures,
        events=runtime.events_fired,
        repaired_entries=report.repaired_entries,
        failures=config.failures,
        stretch_before=before, stretch_after=after,
        msgs_sent=net.stats.total_messages, bytes_sent=net.stats.total_bytes,
    )
    rec.fingerprint = _sim_fingerprint(
        net, recovery=str(report), stretch_before=before, stretch_after=after
    )
    rec.harvest.update(ids=net.member_ids(), network=net)


def udp_join(size: Dict[str, Any], seed: int, rec: Recorder) -> None:
    """128 real UDP sockets on one runtime; traffic crosses the host
    loopback interface, not a link."""
    rng = random.Random(f"udp-{seed}")
    count, sequential = size["nodes"], size["sequential"]
    space = IdSpace(size["base"], size["digits"])
    runtime = AsyncioRuntime(time_scale=size["time_scale"])
    transports: List[DatagramTransport] = []
    try:
        with rec.phase("setup.sockets"):
            ids = space.random_unique_ids(count, rng)
            for _ in range(count):
                transport = DatagramTransport(runtime, ("127.0.0.1", 0))
                transport.open()
                transports.append(transport)
            for a, transport in enumerate(transports):
                for b, peer in enumerate(transports):
                    if a != b:
                        transport.add_peer(ids[b], peer.local_addr)
            nodes = [
                ProtocolNode(
                    ids[0], transports[0], status=NodeStatus.IN_SYSTEM,
                    table=single_node_table(ids[0]),
                )
            ]
            for index in range(1, count):
                nodes.append(
                    ProtocolNode(
                        ids[index], transports[index],
                        status=NodeStatus.COPYING,
                    )
                )
        with rec.phase("setup.base"):
            for index in range(1, sequential + 1):
                runtime.schedule(0.0, nodes[index].begin_join, ids[0])
                runtime.run(wall_budget=60.0)

        # Closed loop: ``window`` joins in flight, the next one starts
        # when one reaches in_system.
        concurrent = nodes[sequential + 1:]
        waiting = list(reversed(concurrent))
        began: Dict[Any, float] = {}
        done: Dict[Any, float] = {}

        def start_next() -> None:
            if waiting:
                gateway = ids[rng.randrange(sequential + 1)]
                runtime.schedule(0.0, waiting.pop().begin_join, gateway)

        def on_phase(node_id, status, _now) -> None:
            if status is NodeStatus.IN_SYSTEM:
                done[node_id] = time.perf_counter()
                start_next()
            else:
                began.setdefault(node_id, time.perf_counter())

        for node in concurrent:
            node.on_phase = on_phase
        for _ in range(size["window"]):
            start_next()
        with rec.phase("run"):
            runtime.run(wall_budget=120.0)

        with rec.phase("verify"):
            tables = {node.node_id: node.table for node in nodes}
            rec.verdict(
                "definition_3_8",
                consistency.check_consistency(tables).consistent,
            )
            bound = space.num_digits + 1
            joined = over = 0
            for node, transport in zip(nodes[1:], transports[1:]):
                joined += node.status.is_s_node
                sent = transport.stats.sent_by
                over += (
                    sent(node.node_id, "CpRstMsg")
                    + sent(node.node_id, "JoinWaitMsg")
                ) > bound
            rec.verdict("all_in_system", joined == count - 1)
            rec.verdict("theorem3", over == 0)
        counters = {
            key: sum(t.counters[key] for t in transports)
            for key in transports[0].counters
        }
        rec.ops(count - 1, (count - 1 - joined) + over + counters["gave_up"])
        measured = sum(1 for node in concurrent if node.node_id in done)
        rec.values.update(
            ops=measured, joins=measured,
            join_latencies_ms=sorted(
                (done[k] - began[k]) * 1000.0 for k in done if k in began
            ),
            msgs_sent=sum(t.stats.total_messages for t in transports),
            bytes_sent=sum(t.stats.total_bytes for t in transports),
            events=runtime.events_fired,
            **{"net_" + key: value for key, value in counters.items()},
        )
        rec.harvest.update(ids=ids, tables=list(tables.values()))
    finally:
        for transport in transports:
            transport.close()
        runtime.close()


class _Workers:
    """``python -m repro worker`` daemons, stopped on exit."""

    def __init__(self) -> None:
        self.processes: List[subprocess.Popen] = []
        self.addresses: List[tuple] = []

    def start(self, count: int) -> None:
        """Spawn ``count`` daemons and wait for each READY line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.processes = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(count)
        ]
        for process in self.processes:
            line = process.stdout.readline()
            fields = dict(
                part.split("=", 1) for part in line.split() if "=" in part
            )
            if "port" not in fields:
                raise RuntimeError(f"worker did not come up: {line!r}")
            self.addresses.append((fields["host"], int(fields["port"])))

    def stop(self) -> None:
        with ControlClient(timeout=0.5, retries=1) as client:
            for address in self.addresses:
                client.try_request(address, "stop")
        for process in self.processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()


def campaign(size: Dict[str, Any], seed: int, rec: Recorder) -> None:
    tasks = size["tasks"]
    workers = _Workers()
    rec.cleanup.append(workers.stop)
    with rec.phase("setup"):
        spawned = time.perf_counter()
        workers.start(size["workers"])
        rec.values["worker_ready_s"] = time.perf_counter() - spawned
        configs = seeded_configs(
            JoinTaskConfig(n=size["n"], m=size["m"]),
            range(seed * 1000, seed * 1000 + tasks),
        )

    first: List[float] = []

    def progress(_done: int, _total: int) -> None:
        if not first:
            first.append(time.perf_counter())

    with rec.phase("run.pool"):
        started = time.perf_counter()
        with ProcessPoolBackend(jobs=size["jobs"]) as pool:
            pooled = pool.map(run_join_task, configs, progress=progress)
    rec.values["pool_first_result_s"] = first[0] - started
    with rec.phase("run.remote"):
        with RemoteBackend(workers=workers.addresses) as remote:
            remoted = remote.map(run_join_task, configs)
    with rec.phase("verify"):
        reference = InlineBackend().map(run_join_task, configs)
        unequal = sum(
            (p != r) + (q != r)
            for p, q, r in zip(pooled, remoted, reference)
        )
        rec.ops(2 * tasks, unequal)
        rec.verdict("backends_equal", unequal == 0)
        rec.verdict(
            "tasks_consistent",
            all(r.consistent and r.all_in_system for r in reference),
        )
    rec.values.update(ops=2 * tasks, tasks=tasks)
    rec.harvest.update(
        configs=configs, results=reference, worker=workers.addresses[0]
    )


RUNNERS: Dict[str, Callable[[Dict[str, Any], int, Recorder], None]] = {
    "sim_join": sim_join,
    "sim_scale": sim_scale,
    "lookup": lookup,
    "churn": churn,
    "udp_join": udp_join,
    "campaign": campaign,
}
