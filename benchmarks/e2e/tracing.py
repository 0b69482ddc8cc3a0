"""Outside-in tracing: timing wrappers around each layer's public
entry points, installed from here at class/module level before the
system under test is built.  Nothing under ``src/`` knows about it.

Every wrapped call is a span (name, start, end, parent).  Spans are
aggregated in memory per ``(name, parent)``; raw spans are kept only
for phase-level names.  A span's *self time* is its duration minus
the part its child spans cover, so self times over the whole tree sum
to the traced wall clock -- the layer ledger.

Table cell access inside protocol handlers goes through inlined fast
paths and is deliberately not attributed from outside: it stays in
``protocol.handle.*`` and is covered by the ``routing.*``
microbenchmarks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "harness"

#: Protocol handlers reported by name; every other type is ``other``.
NAMED_HANDLERS = (
    "JoinNotiMsg", "JoinNotiRlyMsg", "CpRlyMsg", "JoinWaitRlyMsg",
    "RvNghNotiMsg",
)


class Tracer:
    """Span recorder with per-(name, parent) aggregation."""

    def __init__(self) -> None:
        # Open spans, innermost last: [name, seconds covered by children].
        self._stack: List[list] = [[ROOT, 0.0]]
        #: (name, parent) -> [count, total seconds, self seconds]
        self.agg: Dict[Tuple[str, str], list] = {}
        #: Raw (name, start, end, parent) for phase-level spans.
        self.raw: List[Tuple[str, float, float, str]] = []
        #: Inputs harvested for the microbenchmarks and counters.
        self.harvest: Dict[str, list] = {}
        #: span name -> items its calls handled (IDs sampled, nodes
        #: checked), the denominators of the per-item layer metrics.
        self.items: Dict[str, int] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self._started = time.perf_counter()
        self.wall = 0.0

    def finish(self) -> None:
        """Close the root span; the ledger is complete after this."""
        self.wall = time.perf_counter() - self._started
        root = self._stack[0]
        self.agg[(ROOT, "")] = [1, self.wall, self.wall - root[1]]

    def _close(self, frame: list, start: float, end: float) -> str:
        duration = end - start
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += duration
        key = (frame[0], parent[0])
        rec = self.agg.get(key)
        if rec is None:
            self.agg[key] = [1, duration, duration - frame[1]]
        else:
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - frame[1]
        return parent[0]

    @contextmanager
    def span(self, name: str):
        """A phase-level span (raw record kept)."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            parent = self._close(frame, start, end)
            self.raw.append((name, start, end, parent))

    def wrap(
        self,
        fn: Callable,
        name: str,
        namer: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name`` (or ``namer(args)``)."""
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name if namer is None else namer(args), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, start, clock())

        return traced

    def patch(self, owner: Any, attr: str, name: str, namer=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, namer))

    def uninstall(self) -> None:
        """Put every patched attribute back (the microbenchmarks that
        follow a traced cycle must time the real functions)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading the ledger ----------------------------------------------

    def total(self, name: str) -> Tuple[int, float, float]:
        """(count, total seconds, self seconds) of ``name`` over all parents."""
        count, total, self_time = 0, 0.0, 0.0
        for (span, _parent), rec in self.agg.items():
            if span == name or span.startswith(name + "."):
                count += rec[0]
                total += rec[1]
                self_time += rec[2]
        return count, total, self_time

    def ledger(self) -> Dict[str, float]:
        """Self seconds per layer (the span name's first component)."""
        out: Dict[str, float] = {}
        for (span, _parent), rec in self.agg.items():
            layer = span.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + rec[2]
        return out

    def to_json(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall,
            "ledger_self_s": self.ledger(),
            "spans": [
                {"name": n, "parent": p, "count": r[0], "total_s": r[1],
                 "self_s": r[2]}
                for (n, p), r in sorted(self.agg.items())
            ],
            "raw": [
                {"name": n, "start": s - self._started,
                 "end": e - self._started, "parent": p}
                for n, s, e, p in self.raw
            ],
        }


def _handler_name(args: tuple) -> str:
    kind = type(args[1]).__name__
    return "protocol.handle." + (kind if kind in NAMED_HANDLERS else "other")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points.  Call before building
    anything: bound methods captured earlier would bypass the wrappers."""
    import repro.consistency as consistency
    import repro.optimize as optimize
    import repro.recovery as recovery
    from repro.consistency.incremental import IncrementalChecker
    from repro.exec import ExecutionBackend
    from repro.experiments import workloads
    from repro.ids import IdSpace
    from repro.net.control import ControlClient
    from repro.net.datagram import DatagramTransport
    from repro.network.node import NetworkNode
    from repro.network.transport import Transport
    from repro.obs.audit import LiveAuditor
    from repro.protocol import join, leave
    from repro.routing import location, router
    from repro.runtime.realtime import AsyncioRuntime
    from repro.sim import Simulator
    from repro.sim.events import EventQueue
    from repro.topology import attachment

    patch = tracer.patch
    harvest = tracer.harvest
    items = tracer.items

    def counting(name: str, size: Callable[[tuple], int]):
        """A namer that also adds the call's input size to ``items``."""

        def namer(args: tuple) -> str:
            items[name] = items.get(name, 0) + size(args)
            return name

        return namer

    patch(NetworkNode, "receive", "protocol.handle", _handler_name)
    patch(Transport, "send", "network.send")
    for push in ("push", "push_fire", "push_many"):
        patch(EventQueue, push, "sim.queue_push")
    patch(EventQueue, "pop_entry", "sim.queue_pop")
    patch(Simulator, "run", "sim.run")
    patch(AsyncioRuntime, "run", "runtime.run")
    for model in ("ConstantLatencyModel", "UniformLatencyModel",
                  "TopologyLatencyModel"):
        patch(getattr(attachment, model), "latency", "topology.latency")

    patch(workloads, "make_workload", "experiments.make_workload")
    patch(workloads, "make_latency_model", "topology.generate")
    patch(IdSpace, "random_unique_ids", "ids.generate",
          counting("ids.generate", lambda args: args[1]))
    patch(join, "build_consistent_tables", "routing.oracle",
          counting("routing.oracle", lambda args: len(args[0])))
    network = join.JoinProtocolNetwork
    patch(network, "add_s_node", "protocol.add_s_node")
    patch(network, "tables", "routing.tables_rebuild")
    patch(network, "route", "routing.route")
    patch(network, "check_consistency", "consistency.check",
          counting("consistency.check", lambda args: len(args[0].nodes)))
    patch(consistency, "check_consistency", "consistency.check",
          counting("consistency.check", lambda args: len(args[0])))

    checkers = harvest.setdefault("incremental_checkers", [])

    def incremental_name(args: tuple) -> str:
        if args[0] not in checkers:
            checkers.append(args[0])
        return "consistency.incremental"

    patch(IncrementalChecker, "check", "consistency.incremental",
          incremental_name)
    patch(LiveAuditor, "sample", "obs.audit_sample")
    patch(LiveAuditor, "finalize", "obs.audit_finalize")

    patch(leave, "leave_sequentially", "protocol.leave")
    patch(recovery, "recover_from_failures", "recovery.recover")
    patch(optimize, "optimize_tables", "optimize.optimize")

    patch(router, "surrogate_route", "routing.surrogate_route")
    patch(location, "surrogate_route", "routing.surrogate_route")
    patch(location.ObjectDirectory, "publish", "routing.directory_op")
    patch(location.ObjectDirectory, "query", "routing.directory_op")

    messages = harvest.setdefault("messages", [])

    def datagram_send_name(args: tuple) -> str:
        if len(messages) < 2000:
            messages.append(args[2])
        return "net.datagram_send"

    patch(DatagramTransport, "open", "net.socket_open")
    patch(DatagramTransport, "send", "net.datagram_send", datagram_send_name)

    patch(ExecutionBackend, "map", "exec.map",
          lambda args: "exec.map." + args[0].name)
    patch(ControlClient, "request", "exec.control_request")
