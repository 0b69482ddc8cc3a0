"""One cold cycle of one workload, in this fresh process.

``harness.measure`` spawns this file once per repetition, so every
number it reports -- peak RSS, cold start to verified, every phase --
comes from a process that has done nothing else.  Prints one JSON
object on its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument(
        "--spawned-at", type=float, default=time.monotonic(),
        help="time.monotonic() of the parent just before the spawn",
    )
    parser.add_argument("--spans", default=None,
                        help="write the traced cycle's spans to this file")
    args = parser.parse_args(argv)

    # The script's own directory gives way to the repo root (for
    # ``benchmarks.e2e``) and the program under test.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e import spec
    from benchmarks.e2e.workloads import RUNNERS, Recorder

    tracer = None
    if args.trace:
        from benchmarks.e2e import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rec = Recorder(tracer)
    layers = None
    started = time.monotonic()
    try:
        RUNNERS[args.workload](
            spec.sizes(args.workload, bool(args.smoke)), args.seed, rec
        )
        if tracer is not None:
            from benchmarks.e2e.layers import layer_metrics

            tracer.finish()
            tracer.uninstall()
            layers = layer_metrics(tracer, rec)
    finally:
        for cleanup in rec.cleanup:
            cleanup()
    if tracer is not None and args.spans:
        Path(args.spans).write_text(json.dumps(tracer.to_json(), indent=1))

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "trace": bool(args.trace),
        "phases_s": rec.phases,
        "cpu_s": rec.cpu,
        "startup_s": started - args.spawned_at,
        "cold_to_verified_s": rec.verified_at - args.spawned_at,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "verdicts": rec.verdicts,
        "values": rec.values,
        "fingerprint": rec.fingerprint,
        "layers": layers,
        "ledger_self_s": tracer.ledger() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
