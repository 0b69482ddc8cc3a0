"""Turn one traced cycle into the per-layer metrics of ``spec.PER_LAYER``.

Conventions: ``*_share`` is a layer's *self* time over the traced wall
(shares plus ``trace.harness_share`` sum to 1); ``protocol.handle_us.*``
and ``network.send_us`` are self time per call (their children are
other layers); every other ``*_us``/``*_ns``/``*_ms`` is inclusive time
per call or per item.  A layer the workload never entered reads 0.
"""

from __future__ import annotations

from typing import Any, Dict

from . import micro, spec
from .tracing import NAMED_HANDLERS, ROOT, Tracer
from .workloads import Recorder


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, rec: Recorder) -> Dict[str, float]:
    """Every ``spec.PER_LAYER`` metric.  Call after ``tracer.finish()``
    and ``tracer.uninstall()``: the microbenchmarks run here."""
    out: Dict[str, float] = dict.fromkeys(spec.PER_LAYER, 0.0)
    wall = tracer.wall
    values = rec.values
    items = tracer.items

    def per_call(name: str, scale: float, self_time: bool = False) -> float:
        count, total, own = tracer.total(name)
        return _ratio(own if self_time else total, count) * scale

    def seconds(name: str) -> float:
        return tracer.total(name)[1]

    def share(name: str) -> float:
        return _ratio(tracer.total(name)[2], wall)

    out["ids.generate_us_per_id"] = (
        _ratio(seconds("ids.generate"), items.get("ids.generate", 0)) * 1e6
    )
    out["routing.oracle_us_per_node"] = (
        _ratio(seconds("routing.oracle"), items.get("routing.oracle", 0)) * 1e6
    )
    out["routing.route_us"] = per_call("routing.route", 1e6)
    out["routing.surrogate_route_us"] = per_call("routing.surrogate_route", 1e6)
    out["routing.directory_op_us"] = per_call("routing.directory_op", 1e6)
    rebuild = tracer.agg.get(("routing.tables_rebuild", "routing.directory_op"))
    out["routing.tables_rebuild_share"] = _ratio(
        rebuild[1] if rebuild else 0.0, seconds("routing.directory_op")
    )

    out["sim.queue_push_ns"] = per_call("sim.queue_push", 1e9)
    out["sim.queue_pop_ns"] = per_call("sim.queue_pop", 1e9)
    out["sim.loop_share"] = share("sim.run")
    simulated = tracer.total("sim.run")[0] > 0
    if simulated:
        out["sim.events_fired"] = values.get("events", 0)

    out["network.send_us"] = per_call("network.send", 1e6, self_time=True)
    out["network.send_share"] = share("network.send")
    out["network.msgs_sent"] = values.get("msgs_sent", 0)
    out["network.bytes_sent"] = values.get("bytes_sent", 0)

    latency_calls = tracer.total("topology.latency")[0]
    out["topology.generate_s"] = seconds("topology.generate")
    out["topology.latency_us"] = per_call("topology.latency", 1e6)
    out["topology.latency_calls"] = latency_calls
    if latency_calls and values.get("msgs_sent"):
        out["topology.memo_hit_ratio"] = max(
            0.0, 1.0 - latency_calls / values["msgs_sent"]
        )

    for kind in NAMED_HANDLERS + ("other",):
        out["protocol.handle_us." + kind] = per_call(
            "protocol.handle." + kind, 1e6, self_time=True
        )
    out["protocol.handle_share"] = share("protocol.handle")
    out["protocol.add_s_node_us"] = per_call("protocol.add_s_node", 1e6)
    out["protocol.leave_s"] = seconds("protocol.leave")

    out["consistency.check_us_per_node"] = (
        _ratio(seconds("consistency.check"), items.get("consistency.check", 0))
        * 1e6
    )
    checkers = tracer.harvest.get("incremental_checkers", [])
    out["consistency.incremental_us_per_reverified"] = _ratio(
        seconds("consistency.incremental"),
        sum(c.nodes_reverified for c in checkers),
    ) * 1e6
    out["consistency.full_rescans"] = sum(c.full_rescans for c in checkers)

    out["obs.audit_sample_ms"] = per_call("obs.audit_sample", 1e3)
    out["obs.audit_samples"] = tracer.total("obs.audit_sample")[0]
    out["obs.audit_finalize_s"] = seconds("obs.audit_finalize")

    out["recovery.recover_s"] = seconds("recovery.recover")
    out["recovery.events_per_failure"] = _ratio(
        values.get("recovery_events", 0), values.get("failures", 0)
    )
    out["recovery.msgs_per_repaired_entry"] = _ratio(
        values.get("recovery_msgs", 0), values.get("repaired_entries", 0)
    )
    out["optimize.optimize_s"] = seconds("optimize.optimize")
    out["optimize.events"] = values.get("optimize_events", 0)
    out["optimize.stretch_gain"] = _ratio(
        values.get("stretch_before", 0.0), values.get("stretch_after", 0.0)
    )

    out["runtime.loop_share"] = share("runtime.run")
    out["net.datagram_send_us"] = per_call("net.datagram_send", 1e6)
    out["net.socket_open_ms"] = per_call("net.socket_open", 1e3)
    if "net_datagrams_sent" in values:
        msgs = values["msgs_sent"]
        out["net.datagrams_per_msg"] = _ratio(values["net_datagrams_sent"], msgs)
        out["net.retransmit_ratio"] = _ratio(values["net_retransmits"], msgs)
        out["net.duplicates_suppressed"] = values["net_duplicates_suppressed"]
        out["net.gave_up"] = values["net_gave_up"]

    inline = seconds("exec.map.inline")
    if inline:
        out["exec.inline_tasks_per_s"] = values["tasks"] / inline
        out["exec.pool_efficiency"] = _ratio(
            inline, 2 * seconds("exec.map.pool"))
        out["exec.remote_efficiency"] = _ratio(
            inline, 2 * seconds("exec.map.remote"))
        out["exec.pool_first_result_s"] = values["pool_first_result_s"]
        out["exec.worker_ready_s"] = values["worker_ready_s"]

    out["experiments.make_workload_s"] = seconds("experiments.make_workload")

    ledger = tracer.ledger()
    out["trace.wall_s"] = wall
    out["trace.ledger_residual_pct"] = (
        abs(sum(ledger.values()) - wall) / wall * 100.0
    )
    out["trace.harness_share"] = (
        ledger.get(ROOT, 0.0) + ledger.get("phase", 0.0)
    ) / wall

    out.update(_microbenchmarks(tracer, rec.harvest, simulated))
    return out


def _microbenchmarks(
    tracer: Tracer, harvest: Dict[str, Any], simulated: bool
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    if harvest.get("ids"):
        out["ids.csuf_ns"] = micro.csuf_ns(harvest["ids"])
    tables = harvest.get("tables")
    if tables is None and "network" in harvest:
        tables = list(harvest["network"].tables().values())
    if tables:
        out.update(micro.table_metrics(tables))
    if simulated:
        out["sim.queue_push_pop_ns"] = micro.queue_push_pop_ns()
    if tracer.harvest.get("messages"):
        out.update(micro.wire_metrics(tracer.harvest["messages"]))
    if "configs" in harvest:
        out.update(micro.task_metrics(harvest["configs"], harvest["results"]))
        out["exec.control_rtt_ms"] = micro.control_rtt_ms(harvest["worker"])
    return out
