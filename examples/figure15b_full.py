#!/usr/bin/env python3
"""Figure 15(b) at paper scale.

Runs the paper's concurrent-join simulations: an 8320-router
transit-stub topology, n end-hosts forming a consistent network and
m = 1000 more joining simultaneously, b = 16:

    n=3096 d=8    n=3096 d=40    n=7192 d=8    n=7192 d=40

Each configuration takes roughly 15-90 seconds.  Prints the CDF of
JoinNotiMsg per joiner, the average (the paper reports 6.117 / 6.051 /
5.026 / 5.399) and the Theorem 5 bound (8.001 / 8.001 / 6.986 /
6.986).

Run:  python examples/figure15b_full.py            # n=3096, d=8 only
      python examples/figure15b_full.py --all      # all four configs
"""

import sys
import time

from repro.experiments.fig15b import PAPER_CONFIGS
from repro.experiments.harness import render_cdf_table
from repro.experiments.parallel import run_join_task


def run_one(config) -> None:
    print(f"== {config.label} "
          f"(topology: {config.topology_params.num_routers} routers) ==")
    started = time.time()
    result = run_join_task(config)
    elapsed = time.time() - started
    print(render_cdf_table(result.cdf))
    print(f"  mean JoinNotiMsg per joiner : {result.mean_join_noti:.3f}")
    print(f"  Theorem 5 upper bound       : {config.theorem5_bound:.3f}")
    print(f"  consistent / all in system  : "
          f"{result.consistent} / {result.all_in_system}")
    print(f"  Theorem 3 violations        : {result.theorem3_violations}")
    print(f"  SpeNotiMsg sent             : "
          f"{result.counts_dict().get('SpeNotiMsg', 0)}")
    print(f"  total messages              : {result.total_messages}")
    print(f"  wall time                   : {elapsed:.1f}s")
    print()


def main() -> None:
    configs = (
        PAPER_CONFIGS if "--all" in sys.argv[1:] else PAPER_CONFIGS[:1]
    )
    for config in configs:
        run_one(config)


if __name__ == "__main__":
    main()
