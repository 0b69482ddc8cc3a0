#!/usr/bin/env python3
"""Dynamic membership end to end: joins, leaves, crashes, recovery,
and locality optimization.

The paper solves the join side of "problem 2" and names leave,
failure recovery and table optimization as the next protocols to build
on its conceptual foundation (Section 7).  This example runs the whole
lifecycle this repository implements:

  1. bootstrap a consistent network;
  2. concurrent joins (Theorem 1/2);
  3. voluntary leaves (tables repaired via reverse-neighbor records);
  4. crash failures + recovery sweep (detection, advertisement,
     candidate search with TTL escalation);
  5. nearest-neighbor table optimization (route stretch drops).

Run:  python examples/churn_and_recovery.py
"""

import random

from repro.experiments.workloads import SMALL_TOPOLOGY, make_workload
from repro.optimize import measure_stretch, optimize_tables
from repro.protocol.leave import leave_sequentially
from repro.recovery import fail_nodes, recover_from_failures


def show(net, label):
    report = net.check_consistency()
    print(
        f"{label:<34} members={len(net.member_ids()):4d}  "
        f"consistent={report.consistent}"
    )


def main() -> None:
    rng = random.Random(5)
    workload = make_workload(
        base=16,
        num_digits=8,
        n=200,
        m=60,
        seed=5,
        use_topology=True,
        topology_params=SMALL_TOPOLOGY,
    )
    net = workload.network
    show(net, "bootstrap (oracle, n=200)")

    # 2. sixty concurrent joins
    workload.start_all_joins(at=net.runtime.now)
    net.run()
    assert net.all_in_system()
    show(net, "after 60 concurrent joins")

    # 3. forty voluntary leaves
    leavers = rng.sample(net.member_ids(), 40)
    leave_sequentially(net, leavers)
    show(net, "after 40 leaves")

    # 4. crash 15% of the survivors, then recover
    victims = rng.sample(net.member_ids(), len(net.member_ids()) * 15 // 100)
    fail_nodes(net, victims)
    broken = net.check_consistency()
    print(
        f"{'after ' + str(len(victims)) + ' crashes':<34} members="
        f"{len(net.member_ids()):4d}  consistent={broken.consistent} "
        f"({len(broken.violations)} violations)"
    )
    report = recover_from_failures(net)
    print(
        f"{'recovery sweep':<34} rounds={report.rounds}  "
        f"repaired={report.repaired_entries}  "
        f"cleared={report.cleared_entries}"
    )
    show(net, "after recovery")

    # 5. optimize for proximity
    before = measure_stretch(net, sample_pairs=200)
    opt = optimize_tables(net)
    after = measure_stretch(net, sample_pairs=200)
    show(net, f"after optimization ({opt.total_switches} switches)")
    print(
        f"\nroute stretch: mean {before.mean_stretch:.2f} -> "
        f"{after.mean_stretch:.2f}, max {before.max_stretch:.2f} -> "
        f"{after.max_stretch:.2f}  (property P2, routing locality)"
    )


if __name__ == "__main__":
    main()
