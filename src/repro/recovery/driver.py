"""Crash injection and the round-based recovery driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.ids.digits import NodeId
from repro.protocol.status import NodeStatus


@dataclass
class RecoveryReport:
    """What a recovery run did."""

    rounds: int = 0
    repaired_entries: int = 0
    cleared_entries: int = 0
    initially_suspected: int = 0
    unresolved: int = 0
    consistent: bool = False

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"rounds={self.rounds} repaired={self.repaired_entries} "
            f"cleared={self.cleared_entries} consistent={self.consistent}"
        )


def fail_nodes(network, node_ids: Iterable[NodeId]) -> None:
    """Crash-stop the given nodes: no farewell protocol, later messages
    to them are dropped."""
    for node_id in node_ids:
        node = network.nodes.pop(node_id)
        node.status = NodeStatus.LEFT
        network.departed[node_id] = node
        network.transport.unregister(node_id)


def recover_from_failures(
    network,
    ping_timeout: float = 300.0,
    max_rounds: int = 8,
    max_ttl: int = 2,
) -> RecoveryReport:
    """Run detection/repair sweeps until consistency or a fixpoint.

    ``ping_timeout`` must exceed one round-trip of the latency model in
    use (the default covers the uniform 1..100 model and the default
    transit-stub topology).  When a round makes no progress the search
    radius escalates (neighbors-of-neighbors, up to ``max_ttl`` hops)
    before the driver concludes the remaining classes are extinct.
    """
    report = RecoveryReport()

    def live_nodes() -> List:
        return list(network.nodes.values())

    for node in live_nodes():
        node.repaired_entries = 0
        node.cleared_entries = 0

    previous_suspected = None
    ttl = 0
    for round_index in range(max_rounds):
        for node in live_nodes():
            node.begin_failure_detection(ping_timeout)
        network.run()
        suspected = sum(
            len(node.suspected_positions) for node in live_nodes()
        )
        if round_index == 0:
            report.initially_suspected = suspected
        if suspected == 0:
            report.rounds = round_index + 1
            break
        # Advertise phase: lets nodes that lost every incoming pointer
        # re-introduce themselves before the pull-style search runs.
        for node in live_nodes():
            node.begin_advertise()
        network.run()
        for node in live_nodes():
            node.begin_repair(ttl=ttl)
        network.run()
        remaining = sum(
            len(node.suspected_positions) for node in live_nodes()
        )
        report.rounds = round_index + 1
        if remaining == 0:
            # One more detection pass will confirm and exit.
            continue
        if previous_suspected is not None and remaining >= previous_suspected:
            if ttl >= max_ttl:
                break  # fixpoint even with the widest search
            ttl += 1  # escalate: search neighbors-of-neighbors
        previous_suspected = remaining

    for node in live_nodes():
        node.finalize_repairs()
    network.run()

    report.repaired_entries = sum(
        node.repaired_entries for node in live_nodes()
    )
    report.cleared_entries = sum(
        node.cleared_entries for node in live_nodes()
    )
    report.unresolved = sum(
        len(node.suspected_positions) for node in live_nodes()
    )
    report.consistent = network.check_consistency().consistent
    return report
