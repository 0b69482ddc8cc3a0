"""Property-based churn tests: joins, leaves, failures interleaved.

Dynamic membership (property P4) end to end: starting from a random
consistent network, apply a random sequence of churn phases --
concurrent join batches, serialized leaves, crash batches followed by
recovery -- and require Definition 3.8 consistency after every phase.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.leave import leave_sequentially
from repro.recovery import fail_nodes, recover_from_failures
from repro.topology.attachment import UniformLatencyModel


@st.composite
def churn_scripts(draw):
    base = draw(st.sampled_from([2, 3, 4]))
    num_digits = draw(st.integers(3, 5))
    seed = draw(st.integers(0, 10_000))
    phases = draw(
        st.lists(
            st.sampled_from(["join", "leave", "fail"]),
            min_size=1,
            max_size=4,
        )
    )
    return base, num_digits, seed, phases


def _pointer_graph_connected(net, victims) -> bool:
    """Is the undirected survivor pointer graph connected after
    removing ``victims``?  When it is not, no message from one side
    can ever discover the other, so full recovery is impossible."""
    survivors = [m for m in net.member_ids() if m not in victims]
    if len(survivors) <= 1:
        return True
    adjacency = {node: set() for node in survivors}
    for node in survivors:
        for neighbor in net.node(node).table.distinct_neighbors():
            if neighbor != node and neighbor in adjacency:
                adjacency[node].add(neighbor)
                adjacency[neighbor].add(node)
    seen = {survivors[0]}
    stack = [survivors[0]]
    while stack:
        current = stack.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == len(survivors)


@given(churn_scripts())
@settings(max_examples=15, deadline=None)
def test_consistency_survives_churn(script):
    base, num_digits, seed, phases = script
    space = IdSpace(base, num_digits)
    rng = random.Random(seed)
    capacity = space.size
    initial = space.random_unique_ids(min(15, capacity // 2), rng)
    net = JoinProtocolNetwork.from_oracle(
        space,
        initial,
        latency_model=UniformLatencyModel(random.Random(seed + 1)),
        seed=seed,
    )
    all_ever = set(initial)

    for phase in phases:
        members = net.member_ids()
        if phase == "join":
            room = capacity - len(all_ever)
            count = min(rng.randint(1, 6), room)
            if count <= 0:
                continue
            joiners = space.random_unique_ids(count, rng, exclude=all_ever)
            all_ever.update(joiners)
            for joiner in joiners:
                net.start_join(
                    joiner,
                    gateway=rng.choice(members),
                    at=net.runtime.now,
                )
            net.run(max_events=2_000_000)
        elif phase == "leave":
            if len(members) <= 2:
                continue
            count = rng.randint(1, min(4, len(members) - 1))
            leave_sequentially(net, rng.sample(members, count))
        else:  # fail
            if len(members) <= 3:
                continue
            count = rng.randint(1, min(3, len(members) - 2))
            victims = rng.sample(members, count)
            survivors_connected = _pointer_graph_connected(
                net, set(victims)
            )
            fail_nodes(net, victims)
            report = recover_from_failures(net)
            if survivors_connected:
                assert report.consistent, str(report)
            elif not report.consistent:
                # A partitioned survivor pointer graph is beyond any
                # distributed recovery; the sweep must still leave no
                # dangling pointers (only missing ones).
                kinds = net.check_consistency().by_kind()
                assert set(kinds) <= {"false_negative"}, kinds
                break  # downstream phases would inherit the partition
        assert net.runtime.quiesced()
        report = net.check_consistency()
        assert report.consistent, (
            phase,
            [str(v) for v in report.violations[:3]],
        )
        assert net.all_in_system()
