"""Measure one workload: spawn cold ``cycle.py`` children one after
another (``nproc`` is 2; the only concurrent processes are the system
under test's own), derive each cycle's metrics, report medians.

No ``repro`` import here: the parent stays light so that a child's
numbers are the child's alone.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import spec

CYCLE = Path(__file__).resolve().with_name("cycle.py")

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """A cycle crashed or printed no result."""


def run_cycle(
    workload: str,
    seed: int,
    trace: bool = False,
    smoke: bool = False,
    spans: Optional[Path] = None,
) -> Dict[str, Any]:
    """One fresh child, one cycle; returns the child's JSON."""
    command = [
        sys.executable, str(CYCLE),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--smoke", str(int(smoke)),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    command += ["--spawned-at", repr(time.monotonic())]
    # String hashing is randomised per process; left on, dict layouts
    # differ between children and add ~8 % run-to-run spread to a
    # deterministic simulation (measured on sim_join; ~4 % with it off).
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Own process group: if the child hangs or dies, whatever it
    # started (pool workers, worker daemons) goes with it.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        if child.poll() != 0:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} cycle (seed {seed}) exited {child.returncode}"
        )
    return json.loads(lines[-1])


def cycle_metrics(cycle: Dict[str, Any]) -> Dict[str, float]:
    """Every end-to-end metric one cycle yields (pooled ones excepted)."""
    phases, values = cycle["phases_s"], cycle["values"]
    workload = cycle["workload"]
    run = phases["run"]
    out = {
        "setup_s": phases["setup"],
        "startup_s": cycle["startup_s"],
        "ops_per_s": values["ops"] / run,
        "verify_s": phases["verify"],
        "peak_rss_mib": cycle["peak_rss_mib"],
        "cold_to_verified_s": cycle["cold_to_verified_s"],
        "failed_share": cycle["failed"] / cycle["attempted"],
    }
    if "joins" in values:
        out["joins_per_s"] = values["joins"] / run
    if "events" in values:
        out["events_per_s"] = values["events"] / run
    if "join_noti_mean" in values:
        out["join_noti_mean"] = values["join_noti_mean"]
    if workload == "lookup":
        out["lookups_per_s"] = values["lookups"] / (
            phases["run.route"] + phases["run.surrogate"]
        )
        out["directory_ops_per_s"] = (
            values["directory_ops"] / phases["run.directory"]
        )
        out["route_hops_mean"] = values["route_hops_mean"]
    if workload == "campaign":
        out["tasks_per_s.pool"] = values["tasks"] / phases["run.pool"]
        out["tasks_per_s.remote"] = values["tasks"] / phases["run.remote"]
    return {
        name: value for name, value in out.items()
        if workload in spec.ALL_METRICS[name].workloads
    }


def _percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def _stat(samples: List[float], name: str) -> Dict[str, Any]:
    metric = spec.ALL_METRICS[name]
    return {
        "value": statistics.median(samples),
        "min": min(samples), "max": max(samples), "n": len(samples),
        "unit": metric.unit, "clock": metric.clock,
    }


def summarize(cycles: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median (with min, max, n, unit, clock) of each end-to-end metric."""
    per_cycle = [cycle_metrics(c) for c in cycles]
    out = {
        name: _stat([m[name] for m in per_cycle], name)
        for name in per_cycle[0]
    }
    # Join latencies pool over cycles (p85 wants the samples); min and
    # max are the per-cycle percentiles, i.e. the run-to-run spread.
    per_cycle_ms = [
        sorted(c["values"]["join_latencies_ms"])
        for c in cycles if c["values"].get("join_latencies_ms")
    ]
    if per_cycle_ms:
        pooled = sorted(ms for cycle in per_cycle_ms for ms in cycle)
        for name, q in (("join_latency_p50_ms", 0.50),
                        ("join_latency_p85_ms", 0.85)):
            each = [_percentile(cycle, q) for cycle in per_cycle_ms]
            out[name] = dict(
                _stat(each, name), value=_percentile(pooled, q), n=len(pooled)
            )
    return out


def summarize_layers(cycles: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median of each per-layer metric over traced cycles."""
    return {
        name: {
            "value": statistics.median(c["layers"][name] for c in cycles),
            "unit": layer.unit, "source": layer.source,
        }
        for name, layer in spec.PER_LAYER.items()
    }


def measure(
    workload: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    repetitions: Optional[int] = None,
    trace: bool = False,
    smoke: bool = False,
    spans: Optional[Path] = None,
) -> List[Dict[str, Any]]:
    """Run cycles of ``workload`` and return their raw results.

    ``repetitions=R`` repeats the *same* inputs R times (simulated
    statistics must then repeat exactly -- see :func:`same_fingerprint`).
    ``seconds=S`` keeps starting cycles while one more is expected to
    end nearer to S than stopping now would; each cycle then draws its
    inputs from its own seed derived from ``seed``, so a run's medians
    do not hang on one sample of IDs and gateways.
    """
    cycles: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        index = len(cycles)
        cycle_seed = seed if repetitions is not None else seed * 1000 + index
        cycles.append(run_cycle(workload, cycle_seed, trace, smoke, spans))
        if repetitions is not None:
            if len(cycles) >= repetitions:
                return cycles
            continue
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(cycles) >= seconds:
            return cycles


def same_fingerprint(cycles: List[Dict[str, Any]]) -> bool:
    """True iff every cycle produced the same simulated statistics."""
    first = cycles[0]["fingerprint"]
    return all(c["fingerprint"] == first for c in cycles)
