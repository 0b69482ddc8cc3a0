"""The entry point ``BENCHMARK.json`` names: one workload, one seed.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Runs cold cycles of the workload for about S seconds, verifies every
output, and prints one JSON object as its last line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
(tracing off) with ``--trace 0``, the per-layer metrics (outside-in
tracing on, plus microbenchmarks) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[0] = str(ROOT)
    from benchmarks.e2e import harness, spec

    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        cycles = harness.measure(
            args.workload, args.seed, seconds=args.seconds,
            trace=bool(args.trace),
        )
    except harness.BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        summary = harness.summarize_layers(cycles)
        names = spec.PER_LAYER
    else:
        summary = harness.summarize(cycles)
        names = spec.END_TO_END
    print(json.dumps({
        "correct": all(all(c["verdicts"].values()) for c in cycles),
        "attempted": sum(c["attempted"] for c in cycles),
        "failed": sum(c["failed"] for c in cycles),
        "metrics": {
            name: {"value": summary[name]["value"],
                   "unit": summary[name]["unit"]}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
