"""High-level driver: a network of protocol nodes plus its runtime.

:class:`JoinProtocolNetwork` owns the runtime (virtual-time by
default), the transport, and every
:class:`~repro.protocol.node.ProtocolNode`.  It is the main entry
point of the library::

    from repro import IdSpace, JoinProtocolNetwork

    space = IdSpace(base=16, num_digits=8)
    net = JoinProtocolNetwork.from_oracle(space, initial_ids, seed=1)
    for joiner in joining_ids:
        net.start_join(joiner)          # random gateway, t = 0
    net.run()                           # to quiescence
    assert net.check_consistency().consistent

Passing ``runtime=`` swaps the execution substrate without touching
protocol code -- e.g. ``repro.runtime.create_runtime("asyncio")`` runs
the identical protocol over wall-clock asyncio timers.
"""

from __future__ import annotations

import random
import weakref
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ids.digits import NodeId
from repro.ids.idspace import IdSpace
from repro.network.stats import MessageStats
from repro.network.transport import Transport
from repro.obs.instrument import (
    JoinObserver,
    Observability,
    collect_table_metrics,
    publish_runtime,
)
from repro.protocol.node import ProtocolNode
from repro.protocol.sizing import SizingPolicy
from repro.protocol.status import NodeStatus
from repro.routing.oracle import build_consistent_tables
from repro.routing.router import RouteResult, route
from repro.routing.table import NeighborTable
from repro.runtime import create_runtime
from repro.runtime.collector import collector_paused
from repro.runtime.interface import Runtime
from repro.topology.attachment import ConstantLatencyModel, LatencyModel


def _fan_out(listeners, node_id, status, time) -> None:
    """Fan one phase transition out to every registered listener."""
    for listener in listeners:
        listener(node_id, status, time)


def _departed(network_ref, node_id: NodeId) -> None:
    """A node's departure hook: tell its network, if still alive."""
    network = network_ref()
    if network is not None:
        network._on_node_departed(node_id)


class JoinProtocolNetwork:
    """A hypercube-routing network running the join protocol."""

    # Read by __del__, which also runs when __init__ raised before
    # setting them.
    transport = None
    _owns_runtime = False

    def __init__(
        self,
        idspace: IdSpace,
        latency_model: Optional[LatencyModel] = None,
        sizing: SizingPolicy = SizingPolicy.FULL,
        seed: int = 0,
        obs: Optional[Observability] = None,
        runtime: Optional[Runtime] = None,
    ):
        self.idspace = idspace
        #: Execution substrate: clock + timers + event loop.  Defaults
        #: to the deterministic virtual-time runtime.
        self.runtime: Runtime = (
            runtime if runtime is not None else create_runtime("sim")
        )
        self._owns_runtime = runtime is None
        self.obs = obs
        self._join_observer: Optional[JoinObserver] = None
        # Callbacks invoked as ``cb(node_id, status, now)`` on every
        # join phase transition; see add_phase_listener.
        self._phase_listeners: List[Callable[..., None]] = []
        # The hooks every node gets.  Neither holds the network
        # strongly: ownership runs network -> runtime, transport, nodes
        # and never back up (see __del__).
        self._dispatch_phase = partial(_fan_out, self._phase_listeners)
        self._on_departed = partial(_departed, weakref.ref(self))
        if obs is not None:
            # Message accounting shares the run's registry, the
            # runtime's event count and queue depth are read when the
            # registry is (nothing per event), and join phase
            # transitions become spans (no-ops under a NullTracer).
            self.stats = MessageStats(registry=obs.metrics)
            obs.metrics.add_collector(partial(publish_runtime, self.runtime))
            self._join_observer = JoinObserver(obs)
            self._phase_listeners.append(self._join_observer.on_phase)
        else:
            self.stats = MessageStats()
        self.latency_model = (
            latency_model if latency_model is not None else ConstantLatencyModel()
        )
        self.transport = Transport(
            self.runtime,
            self.latency_model,
            self.stats,
            tracer=obs.tracer if obs is not None else None,
        )
        self.sizing = sizing
        self.nodes: Dict[NodeId, ProtocolNode] = {}
        self.departed: Dict[NodeId, ProtocolNode] = {}
        self.initial_ids: List[NodeId] = []
        self.joiner_ids: List[NodeId] = []
        # Cached default-gateway pool (initial members still present);
        # rebuilt only when membership of the pool can change.  Order
        # matches initial_ids, so rng.choice draws are unchanged.
        self._gateway_pool: Optional[List[NodeId]] = None
        self._rng = random.Random(seed)

    def __del__(self) -> None:
        # Every node refers up to the transport and the runtime, and
        # they refer back down through the transport's registry and the
        # runtime's pending events.  Emptying those two when the network
        # is dropped leaves no reference cycle, so reference counting
        # frees the whole simulation at once.  A runtime the caller
        # passed in is the caller's, and its queue is left alone.
        if self.transport is not None:
            self.transport.clear()
        if self._owns_runtime:
            self.runtime.clear()

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_oracle(
        cls,
        idspace: IdSpace,
        initial_ids: Sequence[NodeId],
        latency_model: Optional[LatencyModel] = None,
        sizing: SizingPolicy = SizingPolicy.FULL,
        seed: int = 0,
        randomize_tables: bool = True,
        obs: Optional[Observability] = None,
        runtime: Optional[Runtime] = None,
    ) -> "JoinProtocolNetwork":
        """Create a network whose initial members already have
        consistent tables (built from global knowledge).

        This is how experiments set up the paper's ``<V, N(V)>``
        without paying for a protocol bootstrap; use
        :func:`repro.protocol.network_init.initialize_network` for the
        protocol-pure construction of Section 6.1.
        """
        net = cls(
            idspace,
            latency_model=latency_model,
            sizing=sizing,
            seed=seed,
            obs=obs,
            runtime=runtime,
        )
        table_rng = random.Random(f"{seed}-oracle") if randomize_tables else None
        with collector_paused():
            tables = build_consistent_tables(initial_ids, table_rng)
            for node_id in initial_ids:
                net.add_s_node(node_id, tables[node_id])
        return net

    def add_s_node(self, node_id: NodeId, table: NeighborTable) -> ProtocolNode:
        """Register a node that is already *in_system* with ``table``."""
        node = ProtocolNode(
            node_id,
            self.transport,
            status=NodeStatus.IN_SYSTEM,
            table=table,
            sizing=self.sizing,
        )
        node.on_departed = self._on_departed
        self.nodes[node_id] = node
        self.initial_ids.append(node_id)
        self._gateway_pool = None
        return node

    # ------------------------------------------------------------------
    # joining

    def start_join(
        self,
        node_id: NodeId,
        gateway: Optional[NodeId] = None,
        at: float = 0.0,
    ) -> ProtocolNode:
        """Create a joining node and schedule its join at time ``at``.

        ``gateway`` defaults to a uniformly random *initial* member
        (assumption (ii): each joining node knows some node in ``V``).
        """
        node, gateway = self._prepare_join(node_id, gateway)
        self.runtime.schedule_at(at, node.begin_join, gateway)
        return node

    def start_joins(
        self,
        node_ids: Iterable[NodeId],
        at: float = 0.0,
    ) -> List[ProtocolNode]:
        """Start many joins at the same instant, batched.

        Equivalent to calling :meth:`start_join` per ID (same gateway
        draws, same firing order for the simultaneous begin-join
        timers), but hands the whole batch to the runtime's
        ``schedule_many`` -- one O(n) heapify instead of n sifts when
        an experiment launches 10^5 joins at once.
        """
        prepared = [self._prepare_join(node_id) for node_id in node_ids]
        delay = at - self.runtime.now
        self.runtime.schedule_many(
            (delay, node.begin_join, gateway) for node, gateway in prepared
        )
        return [node for node, _gateway in prepared]

    def _prepare_join(
        self,
        node_id: NodeId,
        gateway: Optional[NodeId] = None,
    ) -> Tuple[ProtocolNode, NodeId]:
        """Create and register a joining node; no scheduling."""
        if node_id in self.nodes:
            raise ValueError(f"{node_id} is already in the network")
        if gateway is None:
            pool = self._gateway_pool
            if pool is None:
                pool = [
                    member
                    for member in self.initial_ids
                    if member in self.nodes
                ]
                self._gateway_pool = pool
            candidates = pool or [
                member
                for member, node in self.nodes.items()
                if node.status.is_s_node
            ]
            if not candidates:
                raise ValueError("no existing node to join through")
            gateway = self._rng.choice(candidates)
        elif gateway not in self.nodes:
            raise ValueError(f"gateway {gateway} is not a current node")
        node = ProtocolNode(
            node_id,
            self.transport,
            status=NodeStatus.COPYING,
            sizing=self.sizing,
        )
        node.on_departed = self._on_departed
        listeners = self._phase_listeners
        if len(listeners) == 1:
            # Single listener (the usual case): call it directly, no
            # dispatch indirection on the phase-transition path.
            node.on_phase = listeners[0]
        elif listeners:
            node.on_phase = self._dispatch_phase
        self.nodes[node_id] = node
        self.joiner_ids.append(node_id)
        return node, gateway

    # ------------------------------------------------------------------
    # observability hooks

    def add_phase_listener(
        self, listener: Callable[..., None]
    ) -> None:
        """Register ``listener(node_id, status, now)`` for join phase
        transitions.  Must be called before the joins it should see are
        started -- nodes pick up the listener set at ``start_join``."""
        self._phase_listeners.append(listener)

    def attach_auditor(self, config=None):
        """Attach a :class:`~repro.obs.audit.LiveAuditor` (created with
        ``config``) to this network's runtime and phase hooks.

        Call before starting joins; after :meth:`run`, call the
        returned auditor's ``finalize()`` for the quiescence gates.
        Keep the auditor: the network's hooks hold it weakly.
        """
        from repro.obs.audit import LiveAuditor

        return LiveAuditor(self, config).attach()

    # ------------------------------------------------------------------
    # leaving (extension protocol; see repro.protocol.leave)

    def start_leave(self, node_id: NodeId, at: float = 0.0) -> ProtocolNode:
        """Schedule ``node_id``'s voluntary departure at time ``at``."""
        node = self.nodes[node_id]
        self.runtime.schedule_at(at, node.begin_leave)
        return node

    def _on_node_departed(self, node_id: NodeId) -> None:
        self._gateway_pool = None
        node = self.nodes.pop(node_id)
        self.departed[node_id] = node
        self.transport.unregister(node_id)

    def has_departed(self, node_id: NodeId) -> bool:
        """True iff ``node_id`` completed a leave (or was failed)."""
        return node_id in self.departed

    # ------------------------------------------------------------------
    # running and inspection

    def run(
        self,
        max_events: Optional[int] = None,
        wall_budget: Optional[float] = None,
    ) -> int:
        """Run the runtime to quiescence; returns events fired.

        ``wall_budget`` (seconds of real time) only applies to
        wall-clock runtimes, which raise
        :class:`~repro.runtime.interface.WallClockBudgetExceeded` if
        the network has not quiesced in time; the virtual-time runtime
        does not accept it (virtual runs never wait).
        """
        if wall_budget is not None:
            return self.runtime.run(
                max_events=max_events, wall_budget=wall_budget
            )
        return self.runtime.run(max_events=max_events)

    def node(self, node_id: NodeId) -> ProtocolNode:
        """The live ProtocolNode for ``node_id``."""
        return self.nodes[node_id]

    def table(self, node_id: NodeId) -> NeighborTable:
        """``node_id``'s current neighbor table."""
        return self.nodes[node_id].table

    def tables(self) -> Dict[NodeId, NeighborTable]:
        """Current tables of all live members, keyed by ID."""
        return {node_id: node.table for node_id, node in self.nodes.items()}

    def statuses(self) -> Dict[NodeId, NodeStatus]:
        """Current status of every live member."""
        return {node_id: node.status for node_id, node in self.nodes.items()}

    def all_in_system(self) -> bool:
        """Theorem 2's claim: every node eventually becomes an S-node."""
        return all(node.status.is_s_node for node in self.nodes.values())

    def member_ids(self) -> List[NodeId]:
        """IDs of all live members (departed nodes excluded)."""
        return list(self.nodes)

    def route(self, source: NodeId, target: NodeId) -> RouteResult:
        """Route a message using the current tables (Section 2.2)."""
        return route(lambda nid: self.nodes[nid].table, source, target)

    def check_consistency(self):
        """Run the Definition 3.8 checker over the current tables."""
        from repro.consistency.checker import check_consistency

        return check_consistency(self.tables())

    def collect_final_metrics(self) -> Dict[str, float]:
        """Fold end-of-run gauges (per-level neighbor-table fill) into
        the registry and return the flat metrics snapshot.

        Requires the network to have been built with ``obs=``.
        """
        if self.obs is None:
            raise ValueError("network was not built with an Observability")
        collect_table_metrics(self.tables(), self.obs.metrics)
        return self.obs.metrics.snapshot()

    # -- cost accounting ------------------------------------------------

    def join_noti_counts(self) -> List[int]:
        """Number of JoinNotiMsg sent by each joiner (Figure 15(b))."""
        return self.stats.sent_by_each(self.joiner_ids, "JoinNotiMsg")

    def theorem3_counts(self) -> List[int]:
        """CpRstMsg + JoinWaitMsg per joiner (bounded by d+1, Thm 3)."""
        return [
            self.stats.theorem3_count(joiner) for joiner in self.joiner_ids
        ]
