"""Exact hierarchical shortest-path latencies on a transit-stub topology.

Because stubs are single-homed (one gateway edge), every path between
routers in different stubs must cross both gateways, so the shortest
path decomposes exactly into

    d(u, gw_u) + gateway_u + core(gwT_u, gwT_v) + gateway_v + d(gw_v, v)

This lets us answer ~8320-router distance queries with a tiny transit
core APSP plus per-stub APSP computed lazily -- no 8320x8320 matrix.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.topology.transit_stub import StubDomain, TransitStubTopology


class HierarchicalLatency:
    """Shortest-path router-to-router latency on a transit-stub topology."""

    def __init__(self, topology: TransitStubTopology):
        self._topology = topology
        # Transit core all-pairs: one Dijkstra per transit router.
        self._core_dist: Dict[int, Dict[int, float]] = {}
        for router in topology.transit_routers:
            self._core_dist[router] = topology.core.dijkstra(router)
        # Per-stub single-source caches, filled on demand.
        self._stub_dist: Dict[int, Dict[int, float]] = {}
        # Router-pair memo: the decomposition below is exact and
        # static, so repeated queries (every message between the same
        # two attachment routers) collapse to one dict hit.
        self._pair_memo: Dict[Tuple[int, int], float] = {}

    def _stub_distances(self, router: int, stub: StubDomain) -> Dict[int, float]:
        cached = self._stub_dist.get(router)
        if cached is None:
            cached = stub.graph.dijkstra(router)
            self._stub_dist[router] = cached
        return cached

    def _to_gateway(self, router: int, stub: StubDomain) -> float:
        """Distance from a stub router to its gateway *transit* router."""
        inside = self._stub_distances(router, stub)[stub.gateway_stub_router]
        return inside + stub.gateway_latency

    def latency(self, u: int, v: int) -> float:
        """Shortest-path latency between any two routers.

        Symmetric only through the pair memo, which stores the first
        direction asked under both keys: computed fresh, ``(v, u)`` can
        sum its legs one ulp away from ``(u, v)``.  A memo-free rewrite
        must compute from a canonical direction, which changes some
        pairs' ulp and hence run fingerprints.
        """
        if u == v:
            return 0.0
        memo = self._pair_memo
        cached = memo.get((u, v))
        if cached is not None:
            return cached
        value = self._compute_latency(u, v)
        memo[(u, v)] = value
        memo[(v, u)] = value
        return value

    def _compute_latency(self, u: int, v: int) -> float:
        topo = self._topology
        u_transit = topo.is_transit(u)
        v_transit = topo.is_transit(v)
        if u_transit and v_transit:
            return self._core_dist[u][v]
        if u_transit:
            return self.latency(v, u)
        # u is a stub router.
        stub_u = topo.stub_of[u]
        if v_transit:
            gw = stub_u.gateway_transit_router
            return self._to_gateway(u, stub_u) + self._core_dist[gw][v]
        stub_v = topo.stub_of[v]
        if stub_u is stub_v:
            return self._stub_distances(u, stub_u)[v]
        core = self._core_dist[stub_u.gateway_transit_router][
            stub_v.gateway_transit_router
        ]
        return (
            self._to_gateway(u, stub_u)
            + core
            + self._to_gateway(v, stub_v)
        )
