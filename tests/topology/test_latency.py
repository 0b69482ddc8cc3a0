"""Unit tests for hierarchical latency computation.

The key property: for single-homed stubs the hierarchical composition
equals true shortest-path distance on the flattened router graph.  We
verify against a brute-force Dijkstra over the full graph.
"""

import random

import pytest

from repro.topology.graph import Graph
from repro.topology.latency import HierarchicalLatency
from repro.topology.transit_stub import (
    TransitStubParams,
    generate_transit_stub,
)

SMALL = TransitStubParams(
    num_transit_domains=2,
    transit_domain_size=3,
    stubs_per_transit_router=2,
    stub_size=4,
)


def flatten(topo) -> Graph:
    """The full router graph: core + stubs + gateway edges."""
    g = Graph()
    for u, v, w in topo.core.edges():
        g.add_edge(u, v, w)
    for stub in topo.stubs:
        for u, v, w in stub.graph.edges():
            g.add_edge(u, v, w)
        g.add_edge(
            stub.gateway_stub_router,
            stub.gateway_transit_router,
            stub.gateway_latency,
        )
    return g


class TestHierarchicalLatency:
    def setup_method(self):
        self.topo = generate_transit_stub(SMALL, random.Random(3))
        self.latency = HierarchicalLatency(self.topo)
        self.flat = flatten(self.topo)

    def test_zero_for_same_router(self):
        assert self.latency.latency(0, 0) == 0.0

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_exact_symmetry_whichever_direction_first(self, reverse_first):
        # Exact, not approximate: the two directions of a pair may sum
        # their legs differently (1 ulp apart), so equality must come
        # from one instance answering both the same way.
        latency = HierarchicalLatency(self.topo)
        routers = sorted(self.topo.stub_routers + self.topo.transit_routers)
        for i, u in enumerate(routers):
            for v in routers[i + 1:]:
                a, b = (v, u) if reverse_first else (u, v)
                assert latency.latency(a, b) == latency.latency(b, a)

    def test_symmetry(self):
        rng = random.Random(1)
        routers = self.topo.stub_routers + self.topo.transit_routers
        for _ in range(30):
            u, v = rng.sample(routers, 2)
            assert self.latency.latency(u, v) == pytest.approx(
                self.latency.latency(v, u), abs=1e-9
            )

    def test_matches_flat_dijkstra_everywhere(self):
        routers = self.topo.transit_routers + self.topo.stub_routers
        for u in routers:
            truth = self.flat.dijkstra(u)
            for v in routers:
                assert abs(self.latency.latency(u, v) - truth[v]) < 1e-9, (
                    f"{u}->{v}"
                )

    def test_positive_between_distinct_routers(self):
        rng = random.Random(2)
        routers = self.topo.stub_routers
        for _ in range(20):
            u, v = rng.sample(routers, 2)
            assert self.latency.latency(u, v) > 0

    def test_intra_stub_cheaper_than_cross_domain(self):
        stub = self.topo.stubs[0]
        far_stub = next(
            s
            for s in self.topo.stubs
            if s.gateway_transit_router != stub.gateway_transit_router
        )
        intra = self.latency.latency(stub.routers[0], stub.routers[1])
        cross = self.latency.latency(stub.routers[0], far_stub.routers[0])
        assert intra < cross
