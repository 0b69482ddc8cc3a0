"""Checks on the benchmark itself.

    python3 benchmarks/e2e/selftest.py            # static checks
    python3 benchmarks/e2e/selftest.py --smoke    # + all six workloads at
                                                  #   a tenth the size, traced

Static checks: the package imports only the public ``repro`` modules
listed in ``ALLOWED`` (never ``repro.perf``), touches no underscore
attribute of anything but ``self``, and ``BENCHMARK.json`` restates
``spec.py`` exactly.  With these holding, ROADMAP's "one of each"
deletions can land without editing the benchmark.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path
from typing import Iterator, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

ALLOWED = {
    "repro", "repro.ids",
    "repro.routing", "repro.routing.router", "repro.routing.location",
    "repro.sim", "repro.sim.events",
    "repro.network.node", "repro.network.transport",
    "repro.topology.attachment",
    "repro.protocol", "repro.protocol.join", "repro.protocol.node",
    "repro.protocol.leave", "repro.protocol.network_init",
    "repro.consistency", "repro.consistency.incremental",
    "repro.obs.audit", "repro.recovery", "repro.optimize",
    "repro.runtime", "repro.runtime.codec", "repro.runtime.realtime",
    "repro.net.datagram", "repro.net.faults", "repro.net.wire",
    "repro.net.control",
    "repro.exec",
    "repro.experiments.workloads", "repro.experiments.churn",
    "repro.experiments.parallel",
}


def _repro_imports(tree: ast.AST) -> Iterator[str]:
    """The ``repro`` module each import statement reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] != "repro":
                continue
            for alias in node.names:
                # ``from repro.x import y``: y is a submodule when
                # repro.x.y is on the list, else a name of repro.x.
                dotted = f"{module}.{alias.name}"
                yield dotted if dotted in ALLOWED else module


def static_problems() -> List[str]:
    problems: List[str] = []
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _repro_imports(tree):
            if module not in ALLOWED:
                problems.append(f"{path.name}: imports {module}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                )
            ):
                problems.append(
                    f"{path.name}:{node.lineno}: private attribute "
                    f".{node.attr}"
                )
    return problems + manifest_problems()


def manifest_problems() -> List[str]:
    """BENCHMARK.json against spec.py."""
    sys.path.insert(0, str(ROOT))
    from benchmarks.e2e import spec

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "workloads": [
            {"name": w, "why": spec.WHY[w]} for w in spec.WORKLOADS
        ],
        "end_to_end": [
            {"name": n, "unit": m.unit, "better": m.better, "bound": m.bound}
            for n, m in spec.END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": m.unit, "better": m.better}
            for n, m in spec.PER_LAYER.items()
        ],
        "paths": ["benchmarks/e2e"],
    }
    return [
        f"BENCHMARK.json: {key} differs from spec.py"
        for key, value in expected.items() if manifest.get(key) != value
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    problems = static_problems()
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("static checks passed")
    if "--smoke" in argv:
        import tempfile

        from benchmarks.e2e.__main__ import main as run_all

        with tempfile.TemporaryDirectory() as scratch:
            return run_all(["--smoke", "--trace", "--repetitions", "1",
                            "--out", str(Path(scratch) / "e2e-smoke.json")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
