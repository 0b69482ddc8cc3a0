"""``--compare A.json B.json``: hold B (the change) against A (the
baseline), one row per (workload, metric), each metric under its own
bound from ``spec`` (``selftest.py`` keeps BENCHMARK.json equal to it).

A pair whose run-to-run spread exceeds the bound is *unresolved*, not
*unchanged* -- unless every run of B beats every run of A.  Exits
non-zero on a breach.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from . import spec


def _spread(stat: Dict[str, Any]) -> float:
    return (stat["max"] - stat["min"]) / stat["value"] if stat["value"] else 0.0


def _show(stat: Dict[str, Any]) -> str:
    return f"{stat['value']:.5g} [{stat['min']:.5g}, {stat['max']:.5g}]"


def judge(name: str, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``ok`` | ``better`` | ``unresolved`` | ``BREACH`` for one pair."""
    metric = spec.ALL_METRICS[name]
    lower = metric.better == "lower"
    if metric.bound == 0.0:
        if a["value"] == b["value"]:
            return "ok"
        improved = b["value"] < a["value"] if lower else b["value"] > a["value"]
        return "better" if improved else "BREACH"
    change = (b["value"] - a["value"]) / a["value"]
    worse = change if lower else -change
    if worse > metric.bound:
        return "BREACH"
    clear_win = b["max"] < a["min"] if lower else b["min"] > a["max"]
    if max(_spread(a), _spread(b)) > metric.bound:
        return "better" if clear_win else "unresolved"
    return "better" if worse < -metric.bound else "ok"


def main(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    if a["smoke"] or b["smoke"]:
        print("smoke output is never comparable")
        return 2
    breaches = 0
    print(f"{'workload':10s} {'metric':22s} {'unit':>6s} {'bound':>6s}"
          f" {'A median [min, max]':>38s} {'B median [min, max]':>38s}"
          f" {'change':>8s}  verdict")
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, stat_a in entry_a["metrics"].items():
            stat_b = entry_b["metrics"][name]
            verdict = judge(name, stat_a, stat_b)
            breaches += verdict == "BREACH"
            bound = spec.ALL_METRICS[name].bound
            change = (
                (stat_b["value"] - stat_a["value"]) / stat_a["value"]
                if stat_a["value"] else 0.0
            )
            print(f"{workload:10s} {name:22s} {stat_a['unit']:>6s}"
                  f" {'exact' if bound == 0 else f'{bound:.0%}':>6s}"
                  f" {_show(stat_a):>38s} {_show(stat_b):>38s}"
                  f" {change:+8.1%}  {verdict}")
        if entry_a["sim_fingerprint"] != entry_b["sim_fingerprint"]:
            breaches += 1
            print(f"{workload:10s} sim_fingerprint differs  BREACH")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
