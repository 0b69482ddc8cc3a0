"""Whole-run fingerprints: the simulator's semantics, pinned.

Each test builds a fixed-seed network and hashes everything the run
decided -- per-type message counts, bytes sent, events fired, final
virtual time, per-joiner JoinNotiMsg counts, every final table and
every reverse-neighbor set -- into one sha256.  The constants below
were recorded while the simulator still carried a second (dict-backed)
table implementation and the pre-optimization hot paths, and came out
identical on all three code paths and under ``PYTHONHASHSEED`` 0 and
12345; a change that moves one of them has changed behaviour, not
merely speed.

The canonical form is plain text built only from values whose printed
form is stable across Python versions: ``str(NodeId)``,
``NeighborState.name``, ``repr(float)`` and reverse sets sorted by ID.
"""

import hashlib
import random

from repro.experiments.workloads import SMALL_TOPOLOGY, make_workload
from repro.ids.idspace import IdSpace
from repro.routing.oracle import build_consistent_tables


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


UNIFORM_B16 = "efcd228b950e01e3652439105029d228f1388754a2ac968ba19459f5a80b3e93"
TOPOLOGY_B16 = "e2f96dc8140714e8493f0115a10b42ac77fe2f01087abbc2b894071e426e12db"
UNIFORM_B4 = "e3b2c7edd14615befcaff434d91d1b1e935f0951e7608e3f7eefce1bf78ca05c"
ORACLE_B4 = "c1bbb90999d9c32163bf2e2ec7dc97c4512e018b3ba68d78e2fe5814c82b1db9"


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
