"""All six workloads from one command.

    PYTHONPATH=src python -m benchmarks.e2e [--workload W ...] [--seed S]
        [--trace] [--out F] [--smoke] [--repetitions R]
    PYTHONPATH=src python -m benchmarks.e2e --compare A.json B.json

Each workload runs R repetitions of the same inputs, each in a fresh
child; every metric is printed by name with its unit, clock (host or
virtual), median, min, max and sample count.  ``--trace`` adds one
traced repetition per workload: the per-layer metrics, the self-time
ledger, ``trace-<workload>.json`` and the tracing overhead.  Exits
non-zero when a verdict fails, simulated statistics differ between
repetitions (or between the traced and untraced pass), or the ledger
does not sum to the traced wall within 2 %.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

from . import compare, harness, spec

LEDGER_TOLERANCE_PCT = 2.0


def _phase_sum(cycle: Dict[str, Any]) -> float:
    return sum(cycle["phases_s"][p] for p in ("setup", "run", "verify"))


def run_workload(
    workload: str, seed: int, repetitions: int, trace: bool, smoke: bool,
    trace_dir: Path,
) -> Dict[str, Any]:
    cycles = harness.measure(
        workload, seed, repetitions=repetitions, smoke=smoke
    )
    problems: List[str] = []
    for cycle in cycles:
        problems += [
            f"verdict {name} failed"
            for name, ok in cycle["verdicts"].items() if not ok
        ]
    if not harness.same_fingerprint(cycles):
        problems.append("simulated statistics differ between repetitions")
    entry: Dict[str, Any] = {
        "sizes": spec.sizes(workload, smoke),
        "why": spec.WHY[workload],
        "ops": spec.HEADLINE_OPS[workload],
        "attempted": sum(c["attempted"] for c in cycles),
        "failed": sum(c["failed"] for c in cycles),
        "metrics": harness.summarize(cycles),
        "sim_fingerprint": cycles[0]["fingerprint"],
    }
    if trace:
        spans = trace_dir / f"trace-{workload}.json"
        traced = harness.measure(
            workload, seed, repetitions=1, trace=True, smoke=smoke, spans=spans
        )
        if traced[0]["fingerprint"] != cycles[0]["fingerprint"]:
            problems.append("simulated statistics differ under tracing")
        layers = harness.summarize_layers(traced)
        if layers["trace.ledger_residual_pct"]["value"] > LEDGER_TOLERANCE_PCT:
            problems.append("ledger does not sum to the traced wall")
        untraced = statistics.median(_phase_sum(c) for c in cycles)
        entry.update(
            layers=layers,
            ledger_self_s=traced[0]["ledger_self_s"],
            trace_overhead_pct=(_phase_sum(traced[0]) / untraced - 1) * 100,
            trace_file=str(spans),
        )
    entry["problems"] = problems
    return entry


def print_workload(workload: str, entry: Dict[str, Any]) -> None:
    sizes = " ".join(f"{k}={v}" for k, v in entry["sizes"].items())
    print(f"\n== {workload}  ({sizes})")
    print(f"   ops = {entry['ops']}")
    print(f"   ops_attempted {entry['attempted']}  ops_failed {entry['failed']}")
    print(f"   {'metric':24s}{'unit':>6s} {'clock':>7s} {'median':>14s}"
          f" {'min':>14s} {'max':>14s} {'n':>4s}")
    for name, stat in entry["metrics"].items():
        print(f"   {name:24s}{stat['unit']:>6s} {stat['clock']:>7s}"
              f" {stat['value']:14.6g} {stat['min']:14.6g}"
              f" {stat['max']:14.6g} {stat['n']:4d}")
    if "layers" in entry:
        print(f"   -- per layer (traced pass, {entry['trace_overhead_pct']:+.0f} %"
              f" host time; spans in {entry['trace_file']})")
        for name, stat in entry["layers"].items():
            if stat["value"]:
                print(f"   {name:44s}{stat['unit']:>6s} {stat['source']:>2s}"
                      f" {stat['value']:14.6g}")
        wall = entry["layers"]["trace.wall_s"]["value"]
        ledger = sorted(entry["ledger_self_s"].items(), key=lambda kv: -kv[1])
        print("   -- self-time ledger (host s, share of traced wall): "
              + ", ".join(f"{k} {v:.3f} ({v / wall:.0%})" for k, v in ledger))
    for problem in entry["problems"]:
        print(f"   !! {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--repetitions", type=int, default=spec.REPETITIONS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)

    trace_dir = args.out.parent if args.out else Path.cwd()
    result: Dict[str, Any] = {
        "seed": args.seed,
        "smoke": args.smoke,
        "repetitions": args.repetitions,
        "python": platform.python_version(),
        "workloads": {},
    }
    if args.smoke:
        print("SMOKE sizes: numbers are not comparable with anything")
    for workload in args.workload or spec.WORKLOADS:
        entry = run_workload(
            workload, args.seed, args.repetitions, args.trace, args.smoke,
            trace_dir,
        )
        result["workloads"][workload] = entry
        print_workload(workload, entry)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    failed = [w for w, e in result["workloads"].items() if e["problems"]]
    if failed:
        print(f"\nFAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
