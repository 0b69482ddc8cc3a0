"""Whole-run fingerprints: the simulator's semantics, pinned.

Each test builds a fixed-seed network and hashes everything the run
decided -- per-type message counts, bytes sent, events fired, final
virtual time, per-joiner JoinNotiMsg counts, every final table and
every reverse-neighbor set -- into one sha256.  The first four constants
were recorded while the simulator still carried a second (dict-backed)
table implementation and the pre-optimization hot paths, and came out
identical on all three code paths and under ``PYTHONHASHSEED`` 0 and
12345; the churn and routing constants were recorded while repair,
optimization and routing still tested suffix classes on digit tuples.
A change that moves one of them has changed behaviour, not merely
speed.

The canonical form is plain text built only from values whose printed
form is stable across Python versions: ``str(NodeId)``,
``NeighborState.name``, ``repr(float)`` and reverse sets sorted by ID.
"""

import hashlib
import random

from repro.experiments.workloads import SMALL_TOPOLOGY, make_workload
from repro.ids.idspace import IdSpace
from repro.optimize import optimize_tables
from repro.protocol.leave import leave_sequentially
from repro.recovery import fail_nodes, recover_from_failures
from repro.routing.backups import harvest_backups, route_fault_tolerant
from repro.routing.oracle import build_consistent_tables
from repro.routing.router import route, surrogate_route


def table_lines(tables):
    """Every table's entries and reverse sets, owners in ID order."""
    for owner in sorted(tables, key=str):
        table = tables[owner]
        yield f"table {owner}"
        for level, digit, node, state in table.snapshot():
            yield f"  {level} {digit} {node} {state.name}"
        for level, digit in table.reverse_positions():
            pointers = sorted(map(str, table.reverse_neighbors(level, digit)))
            yield f"  r {level} {digit} {' '.join(pointers)}"


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def run_fingerprint(base, num_digits, n, m, seed, use_topology=False):
    """Run ``m`` concurrent joins into an ``n``-node oracle network;
    returns ``(network, fingerprint)``."""
    workload = make_workload(
        base=base,
        num_digits=num_digits,
        n=n,
        m=m,
        seed=seed,
        use_topology=use_topology,
        topology_params=SMALL_TOPOLOGY if use_topology else None,
    )
    workload.start_all_joins(at=0.0)
    workload.run()
    net = workload.network
    lines = [
        f"events {net.runtime.events_fired}",
        f"now {net.runtime.now!r}",
        f"bytes {net.stats.total_bytes}",
        "join_noti " + " ".join(map(str, net.join_noti_counts())),
    ]
    lines += [
        f"sent {name} {count}"
        for name, count in sorted(net.stats.snapshot().items())
    ]
    lines += table_lines(net.tables())
    return net, digest(lines)


def oracle_fingerprint():
    """The oracle's tables for 90 random members of the b4 d5 space."""
    space = IdSpace(4, 5)
    rng = random.Random(3)
    members = [space.from_int(v) for v in rng.sample(range(space.size), 90)]
    tables = build_consistent_tables(members, rng=random.Random(17))
    return digest(table_lines(tables))


def churn_fingerprint():
    """One churn lifecycle (joins, leaves, crashes + recovery with
    escalated repair search, optimization) on a b16 d8 topology."""
    rng = random.Random(7007)
    work = make_workload(
        16, 8, 60, 20, seed=7007,
        use_topology=True, topology_params=SMALL_TOPOLOGY,
    )
    net = work.network
    work.start_all_joins(at=0.0)
    work.run()
    leave_sequentially(net, rng.sample(net.member_ids(), 10))
    fail_nodes(net, rng.sample(net.member_ids(), 10))
    recovery = recover_from_failures(net)
    optimized = optimize_tables(net)
    lines = [
        f"events {net.runtime.events_fired}",
        f"now {net.runtime.now!r}",
        f"recovery {recovery.rounds} {recovery.repaired_entries} "
        f"{recovery.cleared_entries} {recovery.initially_suspected} "
        f"{recovery.unresolved}",
        f"optimize {optimized.rounds} {optimized.total_switches}",
    ]
    for node_id in sorted(net.nodes, key=str):
        node = net.nodes[node_id]
        lines.append(
            f"node {node_id} {node.repaired_entries} "
            f"{node.cleared_entries} {node.optimization_switches}"
        )
    lines += [
        f"sent {name} {count}"
        for name, count in sorted(net.stats.snapshot().items())
    ]
    lines += table_lines(net.tables())
    return net, digest(lines)


def _route_line(kind, source, target, result):
    path = " ".join(map(str, result.path))
    outcome = f"{result.success} {result.failed_at}"
    return f"{kind} {source} {target} {outcome} {path}"


def routing_fingerprint():
    """Every :class:`RouteResult` of a fixed batch of lookups: on the
    tables a b4 d5 join run left, then with crashed nodes, cleared
    entries and tables read through the wrong owner."""
    work = make_workload(4, 5, 80, 30, seed=13)
    work.start_all_joins(at=0.0)
    work.run()
    net = work.network
    harvest_backups(net)
    tables = {node_id: node.table for node_id, node in net.nodes.items()}
    stores = {node_id: node.backups for node_id, node in net.nodes.items()}
    members = sorted(tables)
    space = IdSpace(4, 5)
    rng = random.Random(29)
    lines = []

    def batch(provider, pairs=150, objects=150, max_hops=None):
        for _ in range(pairs):
            source, target = rng.choice(members), rng.choice(members)
            result = route(provider, source, target, max_hops)
            lines.append(_route_line("route", source, target, result))
        for _ in range(objects):
            source, target = rng.choice(members), space.random_id(rng)
            result = surrogate_route(provider, source, target)
            lines.append(_route_line("surrogate", source, target, result))

    batch(tables.__getitem__)
    batch(tables.__getitem__, objects=0, max_hops=2)
    # Crashes: the survivors route around the dead through backups.
    live = set(members) - set(rng.sample(members, 12))
    for _ in range(200):
        source, target = rng.choice(sorted(live)), rng.choice(members)
        result = route_fault_tolerant(
            tables.__getitem__, stores.__getitem__, live, source, target
        )
        lines.append(_route_line("ft", source, target, result))
    # Wrong entries: some nodes read another node's table.
    swapped = dict(tables)
    for a, b in zip(members[::7], members[3::7]):
        swapped[a], swapped[b] = tables[b], tables[a]
    batch(swapped.__getitem__)
    # Cleared entries, up to whole rows (no self-pointer left).
    for owner in rng.sample(members, 25):
        level = rng.randrange(5)
        for digit in range(4):
            if rng.random() < 0.7:
                tables[owner].clear_entry(level, digit)
    batch(tables.__getitem__)
    return lines, digest(lines)


UNIFORM_B16 = "efcd228b950e01e3652439105029d228f1388754a2ac968ba19459f5a80b3e93"
TOPOLOGY_B16 = "e2f96dc8140714e8493f0115a10b42ac77fe2f01087abbc2b894071e426e12db"
UNIFORM_B4 = "e3b2c7edd14615befcaff434d91d1b1e935f0951e7608e3f7eefce1bf78ca05c"
ORACLE_B4 = "c1bbb90999d9c32163bf2e2ec7dc97c4512e018b3ba68d78e2fe5814c82b1db9"
CHURN_B16 = "a9c8cb8a95279c8932d626d53734ee2b08ab905711ca28a22eb9917f2f348f09"
ROUTES_B4 = "e38d4aec65f7f0f788d5d770b05fa2b94e4052df933280359ea6a7d451b8d052"


def _assert_run(expected, *args, **kwargs):
    net, fingerprint = run_fingerprint(*args, **kwargs)
    assert fingerprint == expected
    assert net.check_consistency().consistent
    assert net.all_in_system()


class TestSemanticsUnchanged:
    def test_uniform_latency_workload(self):
        _assert_run(UNIFORM_B16, 16, 8, 120, 40, seed=7)

    def test_topology_workload(self):
        # Exercises the memoized hierarchical/transport latency paths.
        _assert_run(TOPOLOGY_B16, 16, 8, 120, 40, seed=7, use_topology=True)

    def test_small_base_workload(self):
        # Dense b4 d5 tables: backup offers and multi-level JoinNotiMsg.
        _assert_run(UNIFORM_B4, 4, 5, 80, 30, seed=13)

    def test_oracle_tables(self):
        assert oracle_fingerprint() == ORACLE_B4

    def test_churn_lifecycle(self):
        # Repair fan-out (with TTL escalation), advertise installs and
        # optimization switches: the suffix-class tests off the join path.
        net, fingerprint = churn_fingerprint()
        assert fingerprint == CHURN_B16
        assert net.check_consistency().consistent

    def test_route_results(self):
        lines, fingerprint = routing_fingerprint()
        assert fingerprint == ROUTES_B4
        outcomes = set()
        for line in lines:
            kind, _source, _target, success, failed_at, *path = line.split()
            if success == "True":
                outcomes.add((kind, "ok"))
            elif path[-1] == failed_at:
                outcomes.add((kind, "failed_at"))
            else:
                outcomes.add((kind, "no_progress"))
        assert outcomes == {
            ("route", "ok"), ("route", "failed_at"), ("route", "no_progress"),
            ("surrogate", "ok"), ("surrogate", "failed_at"),
            ("ft", "ok"), ("ft", "failed_at"),
        }
