"""Architecture lint: the protocol core must stay sans-io.

The refactor's load-bearing guarantee is that :mod:`repro.protocol`
contains pure protocol logic -- runnable under the virtual-time
simulator, the asyncio runtime, or a test's own transport stub alike --
which holds only if it cannot reach :mod:`repro.sim` (or
:mod:`asyncio`) through module-level imports.  This test walks the
import graph statically (AST, so nothing needs importing to check) and
fails on any path from a protected root into a forbidden module.

``TYPE_CHECKING`` blocks and imports inside function bodies are
exempt: they are not executed at import time and are the sanctioned
escape hatch for annotations and lazy (runtime-selected) dependencies.
"""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys
from typing import Dict, Iterator, Optional, Set

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Packages whose import closure must stay clean.
PROTECTED_ROOTS = ("repro.protocol",)

#: Module prefixes the closure must not touch.
FORBIDDEN = ("repro.sim", "asyncio")


def _module_file(name: str) -> Optional[pathlib.Path]:
    """The source file for ``name``, or None for non-local modules."""
    base = SRC.joinpath(*name.split("."))
    package_init = base / "__init__.py"
    if package_init.exists():
        return package_init
    module_file = base.with_suffix(".py")
    return module_file if module_file.exists() else None


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(path: pathlib.Path) -> Iterator[str]:
    """Names imported when the module is executed (import time).

    Recurses into module-level ``if``/``try``/``with`` blocks, skips
    ``if TYPE_CHECKING:`` bodies and everything inside function or
    class-method bodies (those run later, not at import).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def walk(body) -> Iterator[str]:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                # The repo uses absolute imports throughout; a relative
                # import would be a style break worth failing on.
                assert node.level == 0, (
                    f"{path}: relative import at line {node.lineno}"
                )
                if node.module is not None:
                    yield node.module
            elif isinstance(node, ast.If):
                if not _is_type_checking(node.test):
                    yield from walk(node.body)
                yield from walk(node.orelse)
            elif isinstance(node, ast.Try):
                for sub in (node.body, node.orelse, node.finalbody):
                    yield from walk(sub)
                for handler in node.handlers:
                    yield from walk(handler.body)
            elif isinstance(node, (ast.With, ast.ClassDef)):
                yield from walk(node.body)

    yield from walk(tree.body)


def _expand(name: str) -> Iterator[str]:
    """A module plus every ancestor package (their __init__ runs too)."""
    parts = name.split(".")
    for i in range(1, len(parts) + 1):
        yield ".".join(parts[:i])


def _submodules(package: str) -> Iterator[str]:
    """Every module under ``package`` (the roots are whole packages)."""
    base = SRC.joinpath(*package.split("."))
    for path in sorted(base.rglob("*.py")):
        relative = path.relative_to(SRC).with_suffix("")
        parts = list(relative.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


def import_closure(roots) -> Dict[str, Set[str]]:
    """BFS the static import graph from ``roots``.

    Returns ``{module: imported_names}`` for every reachable local
    module; non-local imports appear in the value sets but are not
    expanded.
    """
    queue = []
    for root in roots:
        queue.extend(_submodules(root))
    closure: Dict[str, Set[str]] = {}
    while queue:
        module = queue.pop()
        if module in closure:
            continue
        path = _module_file(module)
        if path is None:
            continue  # stdlib or third-party: recorded by the importer
        imports = set(_module_level_imports(path))
        closure[module] = imports
        for imported in imports:
            for expanded in _expand(imported):
                if expanded not in closure and _module_file(expanded):
                    queue.append(expanded)
    return closure


class TestSansIoCore:
    def test_core_and_protocol_never_import_sim_or_asyncio(self):
        closure = import_closure(PROTECTED_ROOTS)
        offenders = []
        for module, imports in sorted(closure.items()):
            for imported in sorted(imports):
                if any(
                    imported == bad or imported.startswith(bad + ".")
                    for bad in FORBIDDEN
                ):
                    offenders.append(f"{module} imports {imported}")
        assert not offenders, (
            "sans-io violation -- protocol core reaches an execution "
            "substrate at import time:\n  " + "\n  ".join(offenders)
        )

    def test_closure_is_nontrivial(self):
        """Guard the lint itself: the walk must actually see the core."""
        closure = import_closure(PROTECTED_ROOTS)
        for expected in (
            "repro.protocol.node",
            "repro.network.transport",
            "repro.runtime.interface",
        ):
            assert expected in closure, expected

    def test_fresh_import_loads_no_sim(self):
        """Runtime confirmation of the static lint: importing the pure
        core in a fresh interpreter must not pull in repro.sim."""
        code = (
            "import sys; import repro.protocol.node; "
            "bad = [m for m in sys.modules if m.startswith('repro.sim')]; "
            "assert not bad, bad"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(SRC)},
        )

    def test_transport_simulator_shim_removed(self):
        """``runtime`` is the only spelling: neither the transport nor
        either network driver keeps a ``simulator`` alias for it."""
        from repro.baselines.multicast_join import MulticastJoinNetwork
        from repro.ids.idspace import IdSpace
        from repro.network.transport import Transport
        from repro.protocol.join import JoinProtocolNetwork
        from repro.runtime import create_runtime
        from repro.topology.attachment import ConstantLatencyModel

        transport = Transport(create_runtime("sim"), ConstantLatencyModel())
        assert not hasattr(transport, "simulator")
        assert transport.runtime is not None
        space = IdSpace(4, 3)
        ids = [space.from_string(text) for text in ("000", "111")]
        for cls in (JoinProtocolNetwork, MulticastJoinNetwork):
            net = cls.from_oracle(space, ids)
            assert not hasattr(net, "simulator"), cls.__name__
            assert net.runtime is not None


class TestOneControlServer:
    def test_only_net_control_builds_control_responses(self):
        """The decode -> handle -> ``rsp_frame`` -> encode block lives
        once, in :func:`repro.net.control.control_reply` (with the
        oversize guard); an op server that builds its own response
        frame has hand-copied it again."""
        allowed = {"wire.py", "control.py"}  # the definition, the one user
        offenders = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if path.name not in allowed
            and re.search(r"\brsp_frame\b", path.read_text(encoding="utf-8"))
        ]
        assert not offenders, offenders


class TestOneTracePath:
    def test_message_events_are_built_in_one_module(self):
        """The in-memory and the datagram transport share one causal
        trace path, in :mod:`repro.network.transport`; a transport
        that spells a ``message.*`` event name itself has copied it.
        ``message.gave_up`` exists only on the wire and stays there."""
        trees = {
            str(path.relative_to(SRC)): ast.parse(
                path.read_text(encoding="utf-8")
            )
            for package in ("network", "net")
            for path in sorted((SRC / "repro" / package).rglob("*.py"))
        }

        def users(name):
            return [
                module for module, tree in trees.items()
                if any(
                    isinstance(node, ast.Constant) and node.value == name
                    for node in ast.walk(tree)
                )
            ]

        for name in ("message.send", "message.drop", "message.deliver"):
            assert users(name) == ["repro/network/transport.py"], name
        assert users("message.gave_up") == ["repro/net/datagram.py"]


class TestOneValueCodec:
    def test_value_forms_are_spelled_in_one_module(self):
        """The tagged value forms live once, in
        :class:`repro.runtime.codec.ValueCodec`; the sweep-task dialect
        extends it (``$li`` / ``$map`` / ``$dc``) and must not spell
        the shared tags again."""
        for tag in ('"$tu"', '"$fs"', '"$en"'):
            users = [
                str(path.relative_to(SRC))
                for path in sorted(SRC.rglob("*.py"))
                if tag in path.read_text(encoding="utf-8")
            ]
            assert users == ["repro/runtime/codec.py"], (tag, users)


class TestOneSuffixClassIndex:
    """The oracle constructor and both Definition 3.8 checkers bucket
    one membership by suffix; they do it through one index."""

    USERS = (
        "repro.routing.oracle",
        "repro.consistency.checker",
        "repro.consistency.incremental",
    )

    def test_oracle_and_checkers_share_the_packed_index(self):
        for name in self.USERS:
            path = _module_file(name)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {
                (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            assert ("repro.ids.packed", "SuffixClassIndex") in imported, name
            # No tuple-keyed SuffixIndex (nor anything else of its module).
            assert not [m for m, _ in imported if m == "repro.ids.suffix"], name
            called = {
                node.func.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
            }
            assert "SuffixIndex" not in called, name


class TestOneTableBackend:
    """Section 2.1 defines one neighbor table; the simulator has one
    implementation of it, and the protocol's fast paths never ask
    which one they were handed."""

    def _trees(self):
        for path in sorted(SRC.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))

    def test_no_subclass_of_neighbor_table(self):
        offenders = []
        for path, tree in self._trees():
            names = {"NeighborTable"} | {
                alias.asname
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name == "NeighborTable" and alias.asname
            }
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and any(
                    getattr(base, "id", getattr(base, "attr", None)) in names
                    for base in node.bases
                )
            ]
        assert not offenders, offenders

    def test_only_the_table_module_binds_the_name(self):
        offenders = []
        for path, tree in self._trees():
            if path.relative_to(SRC).as_posix() == "repro/routing/table.py":
                continue
            for node in ast.walk(tree):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    name = getattr(target, "id", getattr(target, "attr", None))
                    if name == "NeighborTable":
                        offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, offenders

    def test_no_perf_package(self):
        assert not (SRC / "repro" / "perf").exists()

    def test_protocol_never_tests_a_table_class(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in sorted((SRC / "repro" / "protocol").rglob("*.py"))
            if "__class__ is" in path.read_text(encoding="utf-8")
        ]
        assert not offenders, offenders


class TestOneEventQueue:
    """The event queue is one heap: no constructor knobs, no wheel."""

    def test_queue_and_simulator_take_no_parameters(self):
        import inspect

        from repro.sim.events import EventQueue
        from repro.sim.scheduler import Simulator

        for cls in (EventQueue, Simulator):
            params = inspect.signature(cls.__init__).parameters
            assert list(params) == ["self"], (cls.__name__, list(params))

    def test_no_wheel_under_sim(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in sorted((SRC / "repro" / "sim").rglob("*.py"))
            if re.search(r"wheel", path.read_text(encoding="utf-8"), re.I)
        ]
        assert not offenders, offenders


class TestOneTimerPath:
    """Both runtimes order their timers in one
    :class:`~repro.sim.events.EventQueue`; the asyncio loop holds only
    the dispatcher's wake-up for the head deadline."""

    LOOP_TIMERS = {"call_later", "call_at", "call_soon"}

    def test_only_the_dispatcher_arms_a_loop_timer(self):
        uses = [
            f"{path.relative_to(SRC).as_posix()} {node.attr}"
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and node.attr in self.LOOP_TIMERS
        ]
        assert uses == ["repro/runtime/realtime.py call_at"], uses


class TestOneBackendKnob:
    """A campaign takes one :class:`repro.exec.ExecutionBackend`; the
    rule that picks it lives in :func:`repro.exec.create_backend`."""

    def test_no_experiment_function_takes_jobs_or_chunksize(self):
        offenders = []
        for path in sorted((SRC / "repro" / "experiments").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                args = node.args
                names = {
                    arg.arg
                    for arg in args.posonlyargs + args.args + args.kwonlyargs
                }
                for knob in sorted(names & {"jobs", "chunksize"}):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} "
                        f"{node.name}({knob})"
                    )
        assert not offenders, offenders

    def test_no_second_selection_rule(self):
        offenders = [
            f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in ("parallel_map", "resolve_backend")
        ]
        assert not offenders, offenders


class TestNoNumpy:
    def test_no_source_file_imports_numpy(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if re.search(
                r"^\s*(import|from)\s+numpy\b",
                path.read_text(encoding="utf-8"),
                re.MULTILINE,
            )
        ]
        assert not offenders, offenders

    def test_auditor_import_loads_no_numpy(self):
        """The auditor reaches the Theorem 4/5 arithmetic; every daemon,
        worker and benchmark cycle used to pay ~0.1 s and ~16 MiB for
        the array library behind one branch of it."""
        code = (
            "import sys; import repro.obs.audit, repro.cli; "
            "assert 'numpy' not in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(SRC)},
        )


class TestLazyObs:
    def test_protocol_import_loads_only_the_recording_tier(self):
        """``repro.obs`` re-exports resolve on first use: the protocol
        core reaches ``repro.obs.instrument`` without loading the
        analysis tier or the distributed-telemetry module."""
        code = (
            "import sys; import repro.protocol.join; "
            "heavy = ('audit', 'causality', 'export', 'lifecycle', "
            "'remote', 'report'); "
            "bad = [m for m in heavy if 'repro.obs.' + m in sys.modules]; "
            "assert not bad, bad"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(SRC)},
        )

    def test_worker_and_transport_skip_the_deployment_tier(self):
        """``repro.net`` re-exports nothing: the exec worker and the UDP
        transport load neither the cluster/collector/daemon/top modules
        nor the obs analysis tier through the package ``__init__``."""
        code = (
            "import sys; import repro.exec.worker, repro.net.datagram; "
            "heavy = ['repro.net.' + m for m in "
            "('cluster', 'collect', 'daemon', 'top')] + "
            "['repro.obs.' + m for m in "
            "('causality', 'lifecycle', 'report', 'remote')]; "
            "bad = [m for m in heavy if m in sys.modules]; "
            "assert not bad, bad"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(SRC)},
        )

    def test_node_daemon_loads_telemetry_only_when_enabled(self):
        """``repro.net.daemon`` imports the telemetry bundle (and the
        exporters behind it) where ``--telemetry`` switches it on."""
        code = (
            "import sys; import repro.net.daemon; "
            "bad = [m for m in ('repro.obs.remote', 'repro.obs.export') "
            "if m in sys.modules]; "
            "assert not bad, bad"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(SRC)},
        )


class TestBenchmarkImports:
    def test_workloads_load_neither_claims_nor_baselines(self):
        """The e2e benchmark's ``startup_s`` and ``setup_s`` must not
        pay for the claims manifest or the baseline protocols."""
        code = (
            "import sys; import repro.experiments.workloads, "
            "repro.experiments.parallel, repro.experiments.churn; "
            "bad = [m for m in sys.modules if m == "
            "'repro.experiments.claims' or m.startswith('repro.baselines')]; "
            "assert not bad, bad"
        )
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": str(SRC)})


class TestOneJoinTask:
    """Figure 15(b), ``sweep`` and ``join --seeds`` all map
    :func:`repro.experiments.parallel.run_join_task`, and remote workers
    name tasks only by ``module:function``."""

    GONE = (
        "Fig15bConfig", "Fig15bResult", "run_fig15b", "Fig15bSweep",
        "SweepStats", "sweep_fig15b", "sweep_configs", "churn_seeds",
        "figure15a_all_series", "_series_task", "remote_task",
        "TASK_MODULES", "registered_tasks",
    )

    def test_no_second_join_task_or_task_name_table(self):
        pattern = re.compile(r"\b(" + "|".join(self.GONE) + r")\b")
        offenders = [
            f"{path.relative_to(SRC)}: {match}"
            for path in sorted(SRC.rglob("*.py"))
            for match in pattern.findall(path.read_text(encoding="utf-8"))
        ]
        assert not offenders, offenders


class TestOneRecordOfARun:
    """A run is read through :mod:`repro.obs` and ``route``: the
    protocol trace log, the second mid-run monitor, the Definition 3.7
    wrappers and ``MessageStats``' dict views stay gone."""

    GONE = (
        "TraceLog", "NullTraceLog", "TraceRecord",
        "run_with_monitor", "check_s_node_reachability", "MonitorReport",
        "is_reachable", "reachability_path",
        "count_by_type", "bytes_by_type", "dropped_by_type",
        "retransmitted_by_type", "count_by_sender_type", "_ZeroDict",
        "big_message_count",
    )

    def test_no_second_record_of_a_run(self):
        pattern = re.compile(r"\b(" + "|".join(self.GONE) + r")\b")
        offenders = [
            f"{path.relative_to(SRC)}: {match}"
            for path in sorted(SRC.rglob("*.py"))
            for match in pattern.findall(path.read_text(encoding="utf-8"))
        ]
        assert not offenders, offenders
