"""Property-based tests of the join protocol itself.

These are the executable versions of the paper's theorems:

* Theorem 1 -- after an arbitrary batch of (possibly concurrent,
  possibly dependent) joins, the network is consistent.
* Theorem 2 -- every joiner reaches status in_system.
* Theorem 3 -- every joiner sends at most d+1 CpRstMsg + JoinWaitMsg.
* Propositions 5.1-5.3 -- per notification group, the realized C-set
  tree matches the template and conditions (1)-(3) hold.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.expected_cost import theorem3_bound
from repro.csettree.conditions import (
    check_condition1,
    check_condition2,
    check_condition3,
)
from repro.csettree.notification import group_by_notification_suffix
from repro.csettree.realized import build_realized_tree
from repro.csettree.template import CSetTreeTemplate
from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.sizing import SizingPolicy
from repro.topology.attachment import UniformLatencyModel

MAX_EVENTS = 3_000_000


@st.composite
def join_scenarios(draw):
    base = draw(st.sampled_from([2, 3, 4]))
    num_digits = draw(st.integers(3, 6))
    space = IdSpace(base, num_digits)
    total_cap = min(30, space.size)
    n_initial = draw(st.integers(1, max(1, total_cap - 2)))
    n_joiners = draw(st.integers(1, total_cap - n_initial))
    seed = draw(st.integers(0, 100_000))
    # Random start times: mixes simultaneous, overlapping and
    # effectively-sequential joining periods.
    starts = draw(
        st.lists(
            st.floats(0, 500),
            min_size=n_joiners,
            max_size=n_joiners,
        )
    )
    sizing = draw(st.sampled_from(list(SizingPolicy)))
    return space, n_initial, n_joiners, seed, starts, sizing


def run_scenario(space, n_initial, n_joiners, seed, starts, sizing):
    rng = random.Random(seed)
    ids = space.random_unique_ids(n_initial + n_joiners, rng)
    initial, joiners = ids[:n_initial], ids[n_initial:]
    net = JoinProtocolNetwork.from_oracle(
        space,
        initial,
        latency_model=UniformLatencyModel(
            random.Random(seed + 1), 1.0, 100.0
        ),
        sizing=sizing,
        seed=seed,
    )
    for joiner, at in zip(joiners, starts):
        net.start_join(joiner, at=at)
    net.run(max_events=MAX_EVENTS)
    assert net.runtime.quiesced(), "event watchdog hit"
    return net, initial, joiners


class TestProtocolProperties:
    @given(join_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_theorems_1_2_3(self, scenario):
        space, n_initial, n_joiners, seed, starts, sizing = scenario
        net, initial, joiners = run_scenario(
            space, n_initial, n_joiners, seed, starts, sizing
        )
        # Theorem 2: all S-nodes.
        assert net.all_in_system()
        # Theorem 1: consistency (Definition 3.8, incl. final S states).
        report = net.check_consistency()
        assert report.consistent, report.violations[:3]
        # Theorem 3.
        bound = theorem3_bound(space.num_digits)
        assert all(c <= bound for c in net.theorem3_counts())

    @given(join_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_cset_tree_conditions_per_group(self, scenario):
        space, n_initial, n_joiners, seed, starts, sizing = scenario
        net, initial, joiners = run_scenario(
            space, n_initial, n_joiners, seed, starts, sizing
        )
        tables = net.tables()
        groups = group_by_notification_suffix(joiners, initial)
        for omega, members in groups.items():
            template = CSetTreeTemplate(omega, members)
            realized = build_realized_tree(template, initial, tables)
            assert check_condition1(template, realized) == []
            assert check_condition2(template, initial, tables) == []
            assert check_condition3(template, tables) == []

    @given(join_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_reverse_neighbors_mirror_forward_pointers(self, scenario):
        space, n_initial, n_joiners, seed, starts, sizing = scenario
        net, _, _ = run_scenario(
            space, n_initial, n_joiners, seed, starts, sizing
        )
        tables = net.tables()
        for node_id, table in tables.items():
            for entry in table.entries():
                if entry.node == node_id:
                    continue
                assert node_id in tables[entry.node].reverse_neighbors(
                    entry.level, entry.digit
                )
