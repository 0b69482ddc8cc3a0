"""The paper's claims as one manifest: ``python -m repro reproduce``.

Every number EXPERIMENTS.md reports is a :class:`Claim` row of
:data:`CLAIMS`: its task and name (the value is ``name`` in the dict
``TASKS[task]()`` returns; ``key`` is ``"task.name"``), the block it is
rendered into (between ``<!-- claims:BLOCK -->`` and ``<!--
/claims:BLOCK -->``), the paper's value where the paper states one,
and its checks: exact, a bound, or a named shape test.

The manifest is one campaign, ``backend.map(run_claim, list(TASKS))``,
on any :mod:`repro.exec` backend; tasks are self-seeding and listed
heaviest first.  Task bodies import the baselines, recovery and
optimization packages; nothing the benchmark harness imports imports
this module.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence
from typing import Tuple

from repro.analysis.expected_cost import expected_join_noti, theorem3_bound
from repro.analysis.expected_cost import expected_join_noti_upper_bound
from repro.consistency.checker import check_consistency
from repro.experiments.harness import joining_period_stats, summarize
from repro.experiments.parallel import JoinTaskConfig, run_join_task
from repro.experiments.parallel import seeded_configs
from repro.experiments.workloads import SMALL_TOPOLOGY, make_workload
from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.sizing import SizingPolicy
from repro.routing.oracle import build_consistent_tables
from repro.topology.attachment import UniformLatencyModel

class ClaimError(ValueError):
    """The manifest and a document (or a task's result) disagree."""


# -- workloads shared by the tasks --------------------------------------


def _sampled(base: int, num_digits: int, n: int, m: int, seed: int = 0):
    """``(space, initial, joiners)``: ``n + m`` unique IDs, split."""
    space = IdSpace(base, num_digits)
    ids = space.random_unique_ids(n + m, random.Random(seed))
    return space, ids[:n], ids[n:]


def _network(space, initial, seed=0, sizing=SizingPolicy.FULL):
    """An oracle-built network with uniform 1..100 latencies."""
    latency = UniformLatencyModel(random.Random(f"bench-lat-{seed}"), 1.0,
                                  100.0)
    return JoinProtocolNetwork.from_oracle(
        space, initial, latency_model=latency, sizing=sizing, seed=seed
    )


def _join_all(network, joiners) -> bool:
    """Start every join at time 0 and run to quiescence; True when
    every joiner is in system and the tables are consistent."""
    for joiner in joiners:
        network.start_join(joiner, at=0.0)
    network.run()
    return network.all_in_system() and network.check_consistency().consistent


def _topology_run(n: int, m: int, seed: int):
    """``n`` members, ``m`` joiners, small transit-stub topology."""
    workload = make_workload(
        base=16, num_digits=8, n=n, m=m, seed=seed, use_topology=True,
        topology_params=SMALL_TOPOLOGY,
    )
    workload.start_all_joins()
    workload.run()
    return workload.network


# -- the tasks ----------------------------------------------------------


def fig15a_task() -> Dict[str, Any]:
    """Theorem 5's curves (Figure 15(a)) and Theorem 4's E(J)."""
    from repro.experiments.fig15a import FIG15A_CONFIGS, figure15a_series

    curves = {c.label: figure15a_series(c) for c in FIG15A_CONFIGS}
    points = [bound for series in curves.values() for _, bound in series]
    bound = expected_join_noti_upper_bound
    out: Dict[str, Any] = {
        f"bound_n{n}_m1000_d{d}": round(bound(n, 1000, 16, d), 3)
        for n in (3096, 7192) for d in (8, 40)
    }
    for n in (3096, 7192):
        out[f"theorem4_n{n}"] = round(expected_join_noti(n, 16, 8), 3)
    out["curves"] = len(curves)
    out["points_per_curve"] = [len(series) for series in curves.values()]
    out["lowest_point"] = round(min(points), 3)
    out["highest_point"] = round(max(points), 3)
    gap = max(abs(a[1] - b[1]) for m in (500, 1000) for a, b in zip(
        curves[f"m={m}, b=16, d=8"], curves[f"m={m}, b=16, d=40"]))
    out["d8_d40_gap"] = float(f"{gap:.1e}")
    d8 = curves["m=1000, b=16, d=8"]
    out["m1000_above_m500"] = all(
        a[1] > b[1] for a, b in zip(d8, curves["m=500, b=16, d=8"])
    )
    steps = [b[1] - a[1] for a, b in zip(d8, d8[1:])]
    out["sawtooth"] = min(steps) < 0 < max(steps)
    for label, series in curves.items():
        out[f"{label} @ n=100000"] = round(series[-1][1], 3)
    return out


def fig15b_task(num_digits: int) -> Dict[str, Any]:
    """Figure 15(b), scaled: one concurrent-join run on the small
    transit-stub topology."""
    config = JoinTaskConfig(
        n=400, m=130, base=16, num_digits=num_digits, seed=42,
        use_topology=True, topology_params=SMALL_TOPOLOGY,
    )
    result = run_join_task(config)
    return {
        "mean_join_noti": round(result.mean_join_noti, 3),
        "theorem5_bound": round(config.theorem5_bound, 3),
        "cdf_at_5": round(result.cdf.at(5), 3),
        "cdf_at_20": round(result.cdf.at(20), 3),
        "max": result.cdf.max,
        "consistent": result.consistent,
        "all_in_system": result.all_in_system,
        "theorem3_violations": result.theorem3_violations,
    }


def fig15b_sweep_task() -> Dict[str, Any]:
    """Figure 15(b)'s scaled run over five seeds."""
    config = JoinTaskConfig(
        n=300, m=100, base=16, num_digits=8, use_topology=True,
        topology_params=SMALL_TOPOLOGY,
    )
    results = [run_join_task(c) for c in seeded_configs(config, range(5))]
    stats = summarize([r.mean_join_noti for r in results])
    return {
        "mean_of_means": round(stats.mean, 3),
        "stddev": round(stats.stddev, 3),
        "envelope": f"[{stats.minimum:.3f}, {stats.maximum:.3f}]",
        "max_mean": round(stats.maximum, 3),
        "theorem5_bound": round(config.theorem5_bound, 3),
        "all_consistent": all(r.consistent for r in results),
    }


def theorem3_task() -> Dict[str, Any]:
    """CpRstMsg + JoinWaitMsg per join against Theorem 3's d+1."""
    space, initial, joiners = _sampled(16, 8, 300, 100, seed=7)
    net = _network(space, initial, seed=7)
    settled = _join_all(net, joiners)
    counts = net.theorem3_counts()
    return {
        "bound_d_plus_1": theorem3_bound(space.num_digits),
        "observed_max": max(counts),
        "observed_mean": round(sum(counts) / len(counts), 3),
        "settled": settled,
    }


def theorem4_task() -> Dict[str, Any]:
    """JoinNotiMsg of single joins into fresh networks vs Theorem 4."""
    space, n, totals = IdSpace(16, 8), 200, []
    for seed in range(40):
        ids = space.random_unique_ids(n + 1, random.Random(seed))
        net = JoinProtocolNetwork.from_oracle(
            space, ids[:n], seed=seed,
            latency_model=UniformLatencyModel(random.Random(seed + 1)),
        )
        net.start_join(ids[n], at=0.0)
        net.run()
        totals.append(net.stats.sent_by(ids[n], "JoinNotiMsg"))
    return {
        "measured_mean_E_J": round(sum(totals) / len(totals), 3),
        "theorem4_E_J": round(expected_join_noti(n, 16, 8), 3),
    }


def spenoti_task() -> Dict[str, Any]:
    """SpeNotiMsg vs JoinNotiMsg under growing collision pressure,
    plus a pinned b=2 run known to send SpeNotiMsg."""
    out: Dict[str, Any] = {"sampled_settled": True}
    for label, params in (("b16_d8", (16, 8, 300, 100)),
                          ("b4_d6", (4, 6, 150, 80)),
                          ("b2_d8", (2, 8, 40, 60))):
        space, initial, joiners = _sampled(*params, seed=5)
        net = _network(space, initial, seed=5)
        out["sampled_settled"] &= _join_all(net, joiners)
        out[f"{label}_SpeNotiMsg"] = net.stats.count("SpeNotiMsg")
        out[f"{label}_JoinNotiMsg"] = net.stats.count("JoinNotiMsg")
    space = IdSpace(2, 6)
    ids = space.random_unique_ids(50, random.Random(0))
    net = JoinProtocolNetwork.from_oracle(
        space, ids[:10], seed=0,
        latency_model=UniformLatencyModel(random.Random(5000)),
    )
    out["pinned_settled"] = _join_all(net, ids[10:])
    out["b2_d6_pinned_SpeNotiMsg"] = net.stats.count("SpeNotiMsg")
    out["b2_d6_pinned_JoinNotiMsg"] = net.stats.count("JoinNotiMsg")
    return out


def msgsize_task() -> Dict[str, Any]:
    """JoinNotiMsg exchange bytes under the FULL and REDUCED sizing
    policies (Section 6.2) on one workload."""
    runs, settled = [], True
    for sizing in (SizingPolicy.FULL, SizingPolicy.REDUCED):
        space, initial, joiners = _sampled(16, 8, 300, 100, seed=9)
        net = _network(space, initial, seed=9, sizing=sizing)
        settled = _join_all(net, joiners) and settled
        by_type = net.stats.registry.values_by_label("message_bytes", "type")
        runs.append((by_type["JoinNotiMsg"] + by_type["JoinNotiRlyMsg"],
                     net.stats.total_bytes))
    (full, full_total), (reduced, reduced_total) = runs
    return {
        "full_noti_bytes": full,
        "reduced_noti_bytes": reduced,
        "noti_exchange_saving": f"{1 - reduced / full:.1%}",
        "total_saving": f"{1 - reduced_total / full_total:.1%}",
        "settled": settled,
    }


def baselines_task() -> Dict[str, Any]:
    """The paper's protocol vs a Tapestry-style multicast join on one
    workload: join state on existing nodes, messages, concurrency."""
    from repro.baselines.multicast_join import MulticastJoinNetwork

    space, initial, joiners = _sampled(4, 5, 120, 40, seed=33)
    net = _network(space, initial, seed=33)
    out: Dict[str, Any] = {"protocol_consistent": _join_all(net, joiners)}
    out["protocol_state_records"] = sum(
        1 for node in map(net.node, net.initial_ids)
        if node.q_reply or node.q_joinwait
    )
    def per_join(net) -> float:
        return round(net.stats.total_messages / len(joiners), 1)

    out["protocol_messages_per_join"] = per_join(net)
    for concurrent in (False, True):
        latency = UniformLatencyModel(random.Random(1), 1.0, 100.0)
        net = MulticastJoinNetwork.from_oracle(
            space, initial, seed=33, latency_model=latency
        )
        for joiner in joiners:
            net.start_join(joiner, at=0.0 if concurrent else net.runtime.now)
            if not concurrent:
                net.run()
        net.run()
        report = net.check_consistency()
        if concurrent:
            out["multicast_concurrent_consistent"] = report.consistent
            out["multicast_violations"] = len(report.violations)
            continue
        out["multicast_sequential_consistent"] = report.consistent
        out["multicast_state_records"] = sum(
            net.mstats.holders_for(j) for j in net.joiner_ids
        )
        out["multicast_peak_records"] = net.mstats.peak_pending_records
        out["multicast_messages_per_join"] = per_join(net)
    return out


def hops_task() -> Dict[str, Any]:
    """Mean lookup hops of the hypercube, Chord and CAN (2-d) over the
    same members as n grows (footnote 2)."""
    from repro.baselines.can import CanNetwork
    from repro.baselines.chord import ChordNetwork
    from repro.routing.router import surrogate_route

    out: Dict[str, Any] = {"hypercube_delivered": True}
    for n in (50, 150, 450):
        space, rng = IdSpace(16, 6), random.Random(61 + n)
        members = space.random_unique_ids(n, rng)
        pairs = [
            (rng.choice(members), space.from_int(rng.randrange(space.size)))
            for _ in range(120)
        ]
        tables = build_consistent_tables(members, random.Random(61))
        routes = [surrogate_route(tables.__getitem__, origin, key)
                  for origin, key in pairs]
        out["hypercube_delivered"] &= all(r.success for r in routes)
        chord_hops, _ = ChordNetwork(members).lookup_stats(pairs)
        can = CanNetwork(members, dims=2, rng=random.Random(61))
        hops = [r.hops for r in routes]
        out[f"n={n}_hypercube"] = round(sum(hops) / len(hops), 2)
        out[f"n={n}_chord"] = round(chord_hops, 2)
        out[f"n={n}_can"] = round(can.mean_lookup_hops(pairs), 2)
    return out


def locality_task() -> Dict[str, Any]:
    """Route stretch of Chord's fingers vs hypercube tables, as joined
    and optimized, over one member set on one topology (property P2)."""
    from repro.baselines.chord import ChordNetwork
    from repro.optimize import measure_stretch, optimize_tables

    net = _topology_run(200, 1, seed=41)
    members = net.member_ids()
    rng = random.Random(41)
    pairs = [tuple(rng.sample(members, 2)) for _ in range(200)]
    chord_hops, chord_stretch = ChordNetwork(members).lookup_stats(
        pairs, latency_model=net.latency_model)
    before = measure_stretch(net, sample_pairs=200, rng=random.Random(41))
    optimize_tables(net)
    after = measure_stretch(net, sample_pairs=200, rng=random.Random(41))
    return {
        "chord_hops": round(chord_hops, 2),
        "chord_stretch": round(chord_stretch, 2),
        "hypercube_stretch_unoptimized": round(before.mean_stretch, 2),
        "hypercube_stretch_optimized": round(after.mean_stretch, 2),
    }


def backups_task() -> Dict[str, Any]:
    """Delivery over routed pairs after crashing a share of the
    network, before any recovery: primary entries only vs backups."""
    from repro.recovery import fail_nodes
    from repro.routing.backups import harvest_backups, route_fault_tolerant
    from repro.routing.router import route

    out: Dict[str, Any] = {}
    for fraction in (0.05, 0.15, 0.30):
        space, initial, _ = _sampled(16, 8, 250, 1, seed=51)
        net = _network(space, initial, seed=51)
        harvest_backups(net)
        rng = random.Random(51)
        victims = set(rng.sample(initial, int(len(initial) * fraction)))
        fail_nodes(net, victims)
        live = set(net.member_ids())
        tables = {nid: net.departed[nid].table for nid in victims}
        tables.update(net.tables())
        stores = {nid: (net.nodes.get(nid) or net.departed[nid]).backups
                  for nid in [*net.nodes, *victims]}
        members = sorted(live, key=lambda n: n.digits)
        primary = backup = 0
        for _ in range(300):
            source, target = rng.sample(members, 2)
            plain = route(tables.__getitem__, source, target)
            primary += plain.success and victims.isdisjoint(plain.path)
            backup += route_fault_tolerant(
                tables.__getitem__, stores.__getitem__, live, source, target
            ).success
        out[f"{fraction:.0%}_primary_delivery"] = round(primary / 300, 3)
        out[f"{fraction:.0%}_backup_delivery"] = round(backup / 300, 3)
    return out


def recovery_task(fraction: float) -> Dict[str, Any]:
    """Crash ``fraction`` of a 150-node network, then run the recovery
    sweep."""
    from repro.recovery import fail_nodes, recover_from_failures

    space, initial, _ = _sampled(16, 8, 150, 1, seed=29)
    net = _network(space, initial, seed=29)
    victims = random.Random(29).sample(initial, int(len(initial) * fraction))
    fail_nodes(net, victims)
    before = net.stats.total_messages
    report = recover_from_failures(net)
    sent = net.stats.total_messages - before
    return {
        "consistent": report.consistent,
        "rounds": report.rounds,
        "repaired": report.repaired_entries,
        "cleared": report.cleared_entries,
        "messages_per_failure": round(sent / len(victims), 1),
    }


def optimization_task() -> Dict[str, Any]:
    """Route stretch before and after the optimization protocol."""
    from repro.optimize import measure_stretch, optimize_tables

    net = _topology_run(200, 1, seed=31)
    before = measure_stretch(net, sample_pairs=200)
    report = optimize_tables(net)
    after = measure_stretch(net, sample_pairs=200)
    return {
        "stretch_before": round(before.mean_stretch, 2),
        "stretch_after": round(after.mean_stretch, 2),
        "max_stretch_before": round(before.max_stretch, 2),
        "max_stretch_after": round(after.max_stretch, 2),
        "switches": report.total_switches,
        "rounds": report.rounds,
        "converged": report.converged,
        "consistent": net.check_consistency().consistent,
    }


def leave_task() -> Dict[str, Any]:
    """Serialized departures of a third of a 300-node network."""
    from repro.protocol.leave import leave_sequentially

    space, initial, _ = _sampled(16, 8, 300, 1, seed=13)
    net = _network(space, initial, seed=13)
    leavers = random.Random(13).sample(initial, 100)
    before = net.stats.total_messages
    leave_sequentially(net, leavers)
    sent, notify = net.stats.total_messages - before, net.stats.count(
        "LeaveNotifyMsg")
    return {
        "leaves": len(leavers),
        "messages_per_leave": round(sent / len(leavers), 1),
        "notify_per_leave": round(notify / len(leavers), 1),
        "unacked_notifies": notify - net.stats.count("LeaveNotifyRlyMsg"),
        "remaining_consistent": net.check_consistency().consistent,
    }


#: The paper's table-carrying ("big") messages and their replies, and
#: the small ones (Section 5.2).
REPLIES = {"CpRstMsg": "CpRlyMsg", "JoinWaitMsg": "JoinWaitRlyMsg",
           "JoinNotiMsg": "JoinNotiRlyMsg"}
SMALL = ("InSysNotiMsg", "SpeNotiMsg", "SpeNotiRlyMsg", "RvNghNotiMsg",
         "RvNghNotiRlyMsg")


def join_cost_task() -> Dict[str, Any]:
    """Messages per join by type (Section 5.2), over three seeds."""
    config = JoinTaskConfig(base=16, num_digits=8, n=400, m=120)
    seeds = [21, 22, 23]
    results = [run_join_task(c) for c in seeded_configs(config, seeds)]
    counts = [r.counts_dict() for r in results]
    joins = config.m * len(results)
    out: Dict[str, Any] = {"seeds": seeds}
    for name in (*REPLIES, *SMALL):
        mean = sum(c.get(name, 0) for c in counts) / len(results)
        out[f"{name}_per_join"] = round(mean / config.m, 3)
    big = sum(c.get(name, 0) for c in counts for name in REPLIES)
    out["big_messages_per_join"] = round(big / joins, 3)
    out["total_bytes_per_join"] = round(
        sum(r.total_bytes for r in results) / joins)
    for big, reply in REPLIES.items():
        out[f"{big}_reply_mismatches"] = sum(
            c.get(big) != c.get(reply) for c in counts
        )
    out["consistent"] = all(r.consistent for r in results)
    out["all_in_system"] = all(r.all_in_system for r in results)
    return out


def join_latency_task() -> Dict[str, Any]:
    """Joining-period lengths (Definition 3.1) over three seeds."""
    nets = [_topology_run(300, 100, seed) for seed in (0, 1, 2)]
    stats = [joining_period_stats(net) for net in nets]
    return {
        "mean_period_ms": round(sum(s.mean for s in stats) / len(stats), 1),
        "max_period_ms": round(max(s.maximum for s in stats), 1),
        "all_in_system": all(net.all_in_system() for net in nets),
    }


def concurrency_task() -> Dict[str, Any]:
    """The same joins started together vs through a serializing gate,
    in virtual time."""
    from repro.baselines.sequential_gate import join_sequentially

    space, initial, joiners = _sampled(16, 8, 200, 60, seed=17)
    net = _network(space, initial, seed=17)
    settled = _join_all(net, joiners)
    concurrent = net.runtime.now
    net = _network(space, initial, seed=17)
    serialized = join_sequentially(net, joiners, gap=0.0)
    return {
        "virtual_time_concurrent": round(concurrent, 1),
        "virtual_time_serialized": round(serialized, 1),
        "speedup": round(serialized / concurrent, 1),
        "concurrent_settled": settled,
        "serialized_consistent": net.check_consistency().consistent,
    }


def bootstrap_task() -> Dict[str, Any]:
    """Oracle construction vs the Section 6.1 protocol bootstrap of
    the same 150 nodes."""
    from repro.protocol.network_init import initialize_network

    space, n = IdSpace(16, 8), 150
    ids = space.random_unique_ids(n, random.Random(11))
    tables = build_consistent_tables(ids, random.Random(12))
    net = JoinProtocolNetwork(space, seed=13, latency_model=(
        UniformLatencyModel(random.Random(13), 1.0, 100.0)
    ))
    initialize_network(net, ids, stagger=0.0)
    net.run()
    return {
        "nodes": n,
        "oracle_messages": 0,
        "oracle_consistent": check_consistency(tables).consistent,
        "protocol_messages": net.stats.total_messages,
        "messages_per_node": round(net.stats.total_messages / n, 1),
        "protocol_all_in_system": net.all_in_system(),
        "protocol_consistent": check_consistency(net.tables()).consistent,
    }


def table_size_task() -> Dict[str, Any]:
    """Mean distinct neighbors per node as n doubles (Section 1's
    O(log n) storage)."""
    out: Dict[str, Any] = {}
    for n in (50, 100, 200, 400, 800):
        ids = IdSpace(16, 8).random_unique_ids(n, random.Random(n))
        tables = build_consistent_tables(ids, random.Random(n + 1))
        distinct = [len(tables[node].distinct_neighbors() - {node})
                    for node in ids]
        out[f"n={n}"] = round(sum(distinct) / len(distinct), 1)
    return out


#: Task name -> zero-argument task, heaviest first.
TASKS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "recovery_30": partial(recovery_task, 0.30),
    "recovery_15": partial(recovery_task, 0.15),
    "optimization": optimization_task,
    "locality": locality_task,
    "recovery_5": partial(recovery_task, 0.05),
    "fig15b_sweep": fig15b_sweep_task,
    "theorem4": theorem4_task,
    "join_cost": join_cost_task,
    "join_latency": join_latency_task,
    "backups": backups_task,
    "fig15b_d8": partial(fig15b_task, 8),
    "fig15b_d40": partial(fig15b_task, 40),
    "msgsize": msgsize_task,
    "spenoti": spenoti_task,
    "theorem3": theorem3_task,
    "concurrency": concurrency_task,
    "table_size": table_size_task,
    "leave": leave_task,
    "bootstrap": bootstrap_task,
    "hops": hops_task,
    "baselines": baselines_task,
    "fig15a": fig15a_task,
}


def run_claim(name: str) -> Dict[str, Any]:
    """The values of task ``name`` (the campaign's task function)."""
    return TASKS[name]()


# -- checks and rows ----------------------------------------------------

Values = Mapping[str, Any]

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq, "<": operator.lt, "≤": operator.le,
    ">": operator.gt, "≥": operator.ge,
}


@dataclass(frozen=True)
class Check:
    """One predicate on a row: ``op`` (a key of ``_OPS``) against
    ``bound`` -- a value, the name of a row of the same task, or a
    function of the task's values -- or, with ``shape``, a test over
    the task's values that ``op`` describes."""

    op: str
    bound: Any = None
    shape: Optional[Callable[[Values], bool]] = None

    def resolve(self, values: Values) -> Any:
        """The bound as a value (a row name is looked up)."""
        if callable(self.bound):
            return self.bound(values)
        if isinstance(self.bound, str):
            return values[self.bound]
        return self.bound

    def text(self, values: Values) -> str:
        """The check as printed, its bound resolved."""
        if self.shape is not None:
            return self.op
        return f"{self.op} {render_value(self.resolve(values))}"

    def holds(self, value: Any, values: Values) -> bool:
        """Whether the row's ``value`` passes."""
        if self.shape is not None:
            return bool(self.shape(values))
        return _OPS[self.op](value, self.resolve(values))


exact, below, at_most, above, at_least = (partial(Check, op) for op in _OPS)


def shape(description: str, test: Callable[[Values], bool]) -> Check:
    """A check that ``test`` holds over the task's values."""
    return Check(description, shape=test)


@dataclass(frozen=True)
class Claim:
    """One row of the manifest (see the module docstring)."""

    task: str
    name: str
    block: str
    label: str
    paper: Any = None
    checks: Tuple[Check, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.task}.{self.name}"


def _rows(task: str, block: str, *specs: Any) -> Tuple[Claim, ...]:
    """One task's rows in one block.  A spec is ``(name, label[, paper,
    *checks])``, or a bare name labelled by itself; ``YES`` / ``ZERO``
    spell ``paper, check`` for the flags and counts the protocol
    guarantees."""
    specs = [(s, s.replace("_", " ")) if isinstance(s, str) else s
             for s in specs]
    return tuple(
        Claim(task, name, block, label, *rest[:1], checks=tuple(rest[1:]))
        for name, label, *rest in specs
    )


YES = (True, exact(True))
ZERO = (0, exact(0))


def _fig15b_rows() -> Tuple[Claim, ...]:
    return tuple(row for d in (8, 40) for row in _rows(
        f"fig15b_d{d}", "fig15b",
        ("mean_join_noti", f"d={d}: mean JoinNotiMsg per joiner (n=400, "
         "m=130, b=16)", None, below("theorem5_bound")),
        *((name, f"d={d}: {label}") for name, label in (
            ("theorem5_bound", "Theorem 5 bound"),
            ("cdf_at_5", "CDF at 5 messages"),
            ("cdf_at_20", "CDF at 20 messages"),
            ("max", "most JoinNotiMsg sent by one joiner"))),
        ("consistent", f"d={d}: tables consistent", *YES),
        ("all_in_system", f"d={d}: every joiner in system", *YES),
        ("theorem3_violations", f"d={d}: Theorem 3 violations", *ZERO),
    ))


def _spenoti_rows(run: str, params: str, *checks: Check):
    spe, noti = f"{run}_SpeNotiMsg", f"{run}_JoinNotiMsg"
    rare = shape("≤ max(3, JoinNotiMsg / 10)",
                 lambda v: v[spe] <= max(3, v[noti] // 10))
    return _rows("spenoti", "spenoti",
                 (spe, f"SpeNotiMsg, {params}", "rarely sent", rare, *checks),
                 (noti, f"JoinNotiMsg, {params}"))


def _hops_rows() -> Tuple[Claim, ...]:
    return tuple(row for n in (50, 150, 450) for row in _hops_size(n))


def _hops_size(n: int) -> Tuple[Claim, ...]:
    cube, chord, can = (f"n={n}_{s}" for s in ("hypercube", "chord", "can"))
    large = n == 450
    return _rows(
        "hops", "hops",
        (cube, f"n={n}: hypercube (b=16)", None, at_most(chord),
         at_most(can), *([shape("less than 2.5 above n=50", lambda v: (
             v[cube] - v["n=50_hypercube"] < 2.5))] if large else [])),
        (chord, f"n={n}: Chord", "O(log n)",
         *([shape("less than 4.0 above n=50", lambda v: (
             v[chord] - v["n=50_chord"] < 4.0))] if large else [])),
        (can, f"n={n}: CAN (d=2)", "O(d n^(1/d))",
         *([above(lambda v: 2.0 * v["n=50_can"])] if large else [])),
    )


def _backup_rows() -> Tuple[Claim, ...]:
    return tuple(row for percent in (5, 15, 30) for row in _rows(
        "backups", "backups",
        (f"{percent}%_primary_delivery",
         f"{percent}% crashed: primary entries only"),
        (f"{percent}%_backup_delivery", f"{percent}% crashed: with two "
         "backups per entry", None, at_least(f"{percent}%_primary_delivery"),
         *([above(0.8), above("30%_primary_delivery")]
           if percent == 30 else [])),
    ))


def _table_size_rows() -> Tuple[Claim, ...]:
    sizes = (50, 100, 200, 400, 800)
    step = (16 - 1) * math.log(2, 16)  # neighbors added per doubling of n
    return _rows("table_size", "table_size", ("n=50", "n=50 (b=16, d=8)"), *(
        (f"n={n}", f"n={n}", None,
         below(lambda v, a=f"n={prev}": round(1.5 * v[a], 2)),
         shape(f"n={prev} + {step:.2f} ± 2.5", lambda v, a=f"n={prev}",
               b=f"n={n}": abs(v[b] - v[a] - step) <= 2.5))
        for prev, n in zip(sizes, sizes[1:])
    ))


def _recovery_rows() -> Tuple[Claim, ...]:
    return tuple(row for percent in (5, 15, 30) for row in _rows(
        f"recovery_{percent}", "recovery",
        ("consistent", f"{percent}% crashed: consistency restored", *YES),
        *((name, f"{percent}% crashed: {name.replace('_', ' ')}")
          for name in ("rounds", "repaired", "cleared",
                       "messages_per_failure")),
    ))


#: The manifest, in document order.
CLAIMS: Tuple[Claim, ...] = (
    *_rows(
        "fig15a", "fig15a",
        *((f"bound_n{n}_m1000_d{d}", f"Theorem 5 bound, n={n}, m=1000, "
           f"d={d}", paper, exact(paper))
          for n, paper in ((3096, 8.001), (7192, 6.986)) for d in (8, 40)),
        *((f"theorem4_n{n}", f"Theorem 4 E(J) of one join, n={n}, d=8")
          for n in (3096, 7192)),
        ("curves", "curves (m in {500, 1000} x d in {8, 40})", 4, exact(4)),
        ("points_per_curve", "points per curve (n = 10k..100k)", None,
         exact([10] * 4)),
        ("lowest_point", "lowest point of any curve", None, above(3.0)),
        ("highest_point", "highest point of any curve", None, below(9.0)),
        ("d8_d40_gap", "largest gap between the d=8 and d=40 curves",
         "curves overlap", below(1e-4)),
        ("m1000_above_m500", "m=1000 curve above m=500 at every n", *YES),
        ("sawtooth", "d=8, m=1000 curve both falls and rises in n",
         "sawtooth", exact(True)),
        *((f"m={m}, b=16, d={d} @ n=100000", f"m={m}, d={d} at n=100000")
          for d in (40, 8) for m in (500, 1000)),
    ),
    *_fig15b_rows(),
    *_rows(
        "fig15b_sweep", "fig15b_sweep",
        ("mean_of_means", "mean over seeds 0-4 of the mean JoinNotiMsg "
         "(n=300, m=100, d=8)"),
        ("stddev", "standard deviation over the seeds"),
        ("envelope", "smallest and largest per-seed mean"),
        ("max_mean", "largest per-seed mean", None, below("theorem5_bound")),
        ("theorem5_bound", "Theorem 5 bound"),
        ("all_consistent", "every seed consistent", *YES),
    ),
    *_rows(
        "theorem3", "theorem3",
        ("bound_d_plus_1", "Theorem 3 bound d+1 (b=16, d=8)", "d+1"),
        ("observed_max", "most CpRstMsg + JoinWaitMsg of one join (n=300, "
         "m=100)", None, at_most("bound_d_plus_1")),
        ("observed_mean", "mean CpRstMsg + JoinWaitMsg per join"),
        ("settled", "every joiner in system, tables consistent", *YES),
    ),
    *_rows(
        "theorem4", "theorem4",
        ("measured_mean_E_J", "mean JoinNotiMsg of one join into n=200 "
         "(b=16, d=8; 40 trials)", None, shape("within 40% of E(J)",
         lambda v: abs(v["measured_mean_E_J"] - v["theorem4_E_J"])
         < 0.4 * v["theorem4_E_J"])),
        ("theorem4_E_J", "Theorem 4 E(J), n=200"),
    ),
    *_spenoti_rows("b16_d8", "b=16, d=8, n=300, m=100", at_most(2)),
    *_spenoti_rows("b4_d6", "b=4, d=6, n=150, m=80"),
    *_spenoti_rows("b2_d8", "b=2, d=8, n=40, m=60"),
    *_rows("spenoti", "spenoti",
           ("sampled_settled", "the three runs above settled", *YES)),
    *_spenoti_rows("b2_d6_pinned", "b=2, d=6, n=10, m=40 (pinned seed)",
                   above(0)),
    *_rows("spenoti", "spenoti",
           ("pinned_settled", "the pinned run settled", *YES)),
    *_rows(
        "msgsize", "msgsize",
        ("full_noti_bytes", "JoinNotiMsg + reply bytes, FULL (b=16, d=8, "
         "n=300, m=100)"),
        ("reduced_noti_bytes", "JoinNotiMsg + reply bytes, REDUCED"),
        ("noti_exchange_saving", "JoinNotiMsg exchange saving", None,
         shape("> 10%", lambda v: (
             v["reduced_noti_bytes"] < 0.9 * v["full_noti_bytes"]))),
        ("total_saving", "saving over all protocol bytes"),
        ("settled", "both policies settled consistent", *YES),
    ),
    *_rows(
        "baselines", "baselines",
        ("protocol_state_records", "paper's protocol: existing nodes "
         "holding join state (b=4, d=5, n=120, m=40)", *ZERO),
        ("protocol_messages_per_join", "paper's protocol: messages/join"),
        ("protocol_consistent", "paper's protocol: consistent after "
         "concurrent joins", *YES),
        ("multicast_state_records", "multicast: existing nodes holding "
         "join state", None, above(0)),
        ("multicast_peak_records", "multicast: peak simultaneous records"),
        ("multicast_messages_per_join", "multicast: messages per join"),
        ("multicast_sequential_consistent", "multicast: consistent after "
         "sequential joins", None, exact(True)),
        ("multicast_concurrent_consistent", "multicast: consistent after "
         "concurrent joins", None, exact(False)),
        ("multicast_violations", "multicast: violations after them"),
    ),
    *_hops_rows(),
    *_rows("hops", "hops", ("hypercube_delivered",
                            "every hypercube lookup delivered", *YES)),
    *_rows(
        "locality", "locality",
        ("chord_hops", "Chord ring: mean hops (n=200)"),
        ("chord_stretch", "Chord ring: mean stretch"),
        ("hypercube_stretch_unoptimized", "hypercube tables: mean stretch"),
        ("hypercube_stretch_optimized", "hypercube tables optimized: mean "
         "stretch", None, below(lambda v: round(v["chord_stretch"] / 2, 2))),
    ),
    *_backup_rows(),
    *_rows(
        "concurrency", "ablations",
        ("virtual_time_concurrent", "60 joins into n=200 (b=16, d=8), "
         "concurrent: virtual time"),
        ("virtual_time_serialized", "serialized: virtual time"),
        ("speedup", "concurrency speedup", None, above(5.0)),
        ("concurrent_settled", "concurrent run settled", *YES),
        ("serialized_consistent", "serialized run consistent", *YES),
    ),
    *_rows(
        "bootstrap", "ablations",
        ("nodes", "bootstrap: nodes (b=16, d=8)"),
        ("oracle_messages", "oracle construction: messages"),
        ("oracle_consistent", "oracle construction: consistent", *YES),
        ("protocol_messages", "Section 6.1 bootstrap: messages"),
        ("messages_per_node", "Section 6.1 bootstrap: messages per node"),
        ("protocol_all_in_system", "Section 6.1 bootstrap: all in system",
         *YES),
        ("protocol_consistent", "Section 6.1 bootstrap: consistent", *YES),
    ),
    *_rows(
        "join_cost", "join_cost",
        ("seeds", "seeds (n=400, m=120, b=16, d=8)"),
        *(f"{name}_per_join" for name in (*REPLIES, *SMALL)),
        "big_messages_per_join", ("total_bytes_per_join", "bytes per join"),
        *((f"{big}_reply_mismatches", f"seeds where {big} != {reply}",
           *ZERO) for big, reply in REPLIES.items()),
        ("consistent", "every seed consistent", *YES),
        ("all_in_system", "every joiner in system", *YES),
    ),
    *_table_size_rows(),
    *_rows(
        "join_latency", "join_latency",
        ("mean_period_ms", "mean joining period, ms (n=300, m=100, "
         "seeds 0-2)"),
        ("max_period_ms", "longest joining period, ms", None,
         below(10_000)),
        ("all_in_system", "every joiner in system", *YES),
    ),
    *_rows(
        "leave", "leave",
        ("leaves", "serialized leaves from n=300 (b=16, d=8)"),
        "messages_per_leave", ("notify_per_leave", "LeaveNotifyMsg per leave"),
        ("unacked_notifies", "LeaveNotifyMsg without a LeaveNotifyRlyMsg",
         *ZERO),
        ("remaining_consistent", "survivors consistent", *YES),
    ),
    *_recovery_rows(),
    *_rows(
        "optimization", "optimization",
        ("stretch_before", "mean stretch before (n=200, transit-stub)"),
        ("stretch_after", "mean stretch after", None,
         below("stretch_before")),
        "max_stretch_before", "max_stretch_after",
        ("switches", "entry switches"), "rounds",
        ("converged", "converged", *YES),
        ("consistent", "consistent after optimization", *YES),
    ),
)


# -- evaluation and rendering -------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """A row with its measured value and its checks' verdicts."""

    claim: Claim
    value: Any
    checks: Tuple[Tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(holds for _, holds in self.checks)


def evaluate(
    results: Mapping[str, Values], claims: Sequence[Claim] = CLAIMS
) -> List[Outcome]:
    """Apply every row's checks to ``results`` (task name -> the
    task's values); a row the results lack raises :class:`ClaimError`."""
    outcomes = []
    for claim in claims:
        values = results.get(claim.task, {})
        if claim.name not in values:
            raise ClaimError(f"no value for claim {claim.key}")
        value = values[claim.name]
        outcomes.append(Outcome(claim, value, tuple(
            (check.text(values), check.holds(value, values))
            for check in claim.checks
        )))
    return outcomes


def render_value(value: Any) -> str:
    """A value as EXPERIMENTS.md prints it."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return ", ".join(map(render_value, value))
    return str(value)


def render_table(outcomes: Sequence[Outcome]) -> str:
    """A markdown table of ``outcomes``."""
    lines = ["| claim | paper | measured | check |", "|---|---|---|---|"]
    for outcome in outcomes:
        checks = "; ".join(text for text, _ in outcome.checks) or "—"
        lines.append(
            f"| {outcome.claim.label} | {render_value(outcome.claim.paper)} "
            f"| {render_value(outcome.value)} | {checks} |"
        )
    return "\n".join(lines)


def render_blocks(outcomes: Sequence[Outcome]) -> Dict[str, str]:
    """Block name -> its table, blocks in first-row order."""
    blocks: Dict[str, List[Outcome]] = {}
    for outcome in outcomes:
        blocks.setdefault(outcome.claim.block, []).append(outcome)
    return {name: render_table(rows) for name, rows in blocks.items()}


_MARKER = re.compile(r"<!-- (/?)claims:([\w-]+) -->")
_BLOCK = re.compile(r"(<!-- claims:([\w-]+) -->).*?(<!-- /claims:\2 -->)",
                    re.DOTALL)


def rewrite_blocks(text: str, blocks: Mapping[str, str]) -> str:
    """``text`` with the body between each ``<!-- claims:NAME -->`` and
    ``<!-- /claims:NAME -->`` replaced by ``blocks[NAME]``.

    Every block needs exactly one opening marker followed by exactly
    one closing marker, and every marker must name a block; otherwise
    :class:`ClaimError` names the block.  Bytes outside the markers
    are kept as they are.
    """
    found: Dict[str, list] = {}
    for match in _MARKER.finditer(text):
        found.setdefault(match.group(2), []).append(match)
    for name in found:
        if name not in blocks:
            raise ClaimError(f"claims block {name!r} has no rows")
    for name in blocks:
        markers = found.get(name, [])
        if [m.group(1) for m in markers] != ["", "/"]:
            raise ClaimError(
                f"claims block {name!r} needs one opening and then one "
                f"closing marker; found {len(markers)} marker(s)"
            )
    return _BLOCK.sub(
        lambda m: f"{m.group(1)}\n{blocks[m.group(2)]}\n{m.group(3)}", text
    )
