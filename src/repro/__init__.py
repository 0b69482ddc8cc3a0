"""repro: Liu & Lam (ICDCS 2003), "Neighbor Table Construction and
Update in a Dynamic Peer-to-Peer Network" -- a full reproduction.

The package implements the hypercube (suffix-matching) routing scheme
of PRR/Pastry/Tapestry, the paper's join protocol for constructing and
updating neighbor tables under arbitrary concurrent joins, the C-set
tree machinery used in the consistency proof, the communication-cost
analysis (Theorems 3-5), an event-driven simulator with a transit-stub
topology substrate, a Tapestry-style multicast-join baseline, and a
harness regenerating every figure in the paper's evaluation.

Quickstart::

    import random
    from repro import IdSpace, JoinProtocolNetwork

    space = IdSpace(base=16, num_digits=8)
    rng = random.Random(1)
    ids = space.random_unique_ids(120, rng)
    net = JoinProtocolNetwork.from_oracle(space, ids[:100], seed=1)
    for joiner in ids[100:]:
        net.start_join(joiner)       # all concurrent, t = 0
    net.run()
    assert net.all_in_system()                   # Theorem 2
    assert net.check_consistency().consistent    # Theorem 1
"""

# Re-exports resolve lazily (PEP 562) so that importing any submodule
# -- which executes this package __init__ -- never drags in the rest
# of the library.  In particular the sans-io protocol core
# (repro.protocol) must be importable without repro.sim or asyncio
# appearing in sys.modules; tests/test_architecture.py enforces this.
_EXPORTS = {
    "expected_join_noti": "repro.analysis",
    "expected_join_noti_upper_bound": "repro.analysis",
    "level_distribution": "repro.analysis",
    "theorem3_bound": "repro.analysis",
    "check_consistency": "repro.consistency",
    "verify_reachability": "repro.consistency",
    "build_realized_tree": "repro.csettree",
    "build_template": "repro.csettree",
    "notification_set": "repro.csettree",
    "IdSpace": "repro.ids",
    "NodeId": "repro.ids",
    "MetricsRegistry": "repro.obs",
    "NullTracer": "repro.obs",
    "Observability": "repro.obs",
    "Tracer": "repro.obs",
    "measure_stretch": "repro.optimize",
    "optimize_tables": "repro.optimize",
    "JoinProtocolNetwork": "repro.protocol",
    "NodeStatus": "repro.protocol",
    "ProtocolNode": "repro.protocol",
    "SizingPolicy": "repro.protocol",
    "initialize_network": "repro.protocol",
    "leave_sequentially": "repro.protocol.leave",
    "fail_nodes": "repro.recovery",
    "recover_from_failures": "repro.recovery",
    "NeighborState": "repro.routing",
    "NeighborTable": "repro.routing",
    "build_consistent_tables": "repro.routing",
    "format_table": "repro.routing",
    "route": "repro.routing",
    "create_runtime": "repro.runtime",
    "Simulator": "repro.sim",
}

__version__ = "1.0.0"


def __getattr__(name: str):
    """Resolve a re-exported name or submodule on first use."""
    import importlib

    module_name = _EXPORTS.get(name)
    if module_name is not None:
        value = getattr(importlib.import_module(module_name), name)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    try:
        # `import repro; repro.protocol` keeps working without an
        # explicit submodule import, as with eager package inits.
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
    "IdSpace",
    "JoinProtocolNetwork",
    "MetricsRegistry",
    "NeighborState",
    "NeighborTable",
    "NodeId",
    "NodeStatus",
    "NullTracer",
    "Observability",
    "ProtocolNode",
    "Simulator",
    "SizingPolicy",
    "Tracer",
    "build_consistent_tables",
    "build_realized_tree",
    "build_template",
    "check_consistency",
    "create_runtime",
    "expected_join_noti",
    "expected_join_noti_upper_bound",
    "fail_nodes",
    "format_table",
    "initialize_network",
    "leave_sequentially",
    "level_distribution",
    "measure_stretch",
    "notification_set",
    "optimize_tables",
    "recover_from_failures",
    "route",
    "theorem3_bound",
    "verify_reachability",
    "__version__",
]
