"""Per-seed pins of the concurrent-join task on Figure 15(b)'s setups.

Figure 15(b) once had its own task (``run_fig15b``) beside
:func:`~repro.experiments.parallel.run_join_task`.  Before the two
were folded into one, these constants were recorded through
``run_fig15b`` (``max_theorem3`` through ``run_join_task``); they are
now asserted through ``run_join_task``.  The configs are seeds 0-7 of
the CI sweep (``repro sweep --n 60 --m 20``) and of the claims
manifest's ``fig15b_sweep`` task (n=300, m=100; it runs seeds 0-4),
both ``b=16, d=8`` on the small transit-stub topology.

Each row is ``(total_messages, max_theorem3, theorem3_violations,
digest)``, where ``digest`` hashes every joiner's JoinNotiMsg count
and the per-type message counts.  Every run is also consistent with
all nodes in the system.
"""

import hashlib
import json

import pytest

from repro.experiments.parallel import JoinTaskConfig, run_join_task

PINS = {
    (60, 20): {
        0: (702, 4, 0, "da01045572b761d3"),
        1: (801, 4, 0, "4311409f0b15588d"),
        2: (739, 4, 0, "8abc9c1d6ba74b43"),
        3: (770, 4, 0, "58280840dc25aae8"),
        4: (723, 5, 0, "1b91fa1bbf2cfa87"),
        5: (1166, 4, 0, "94d2d37918d6187f"),
        6: (1019, 5, 0, "589c632827bdef25"),
        7: (742, 4, 0, "ed52d5474f37ecb5"),
    },
    (300, 100): {
        0: (6159, 5, 0, "9b6e3f5029e3cf7a"),
        1: (5934, 5, 0, "650449750a3993d0"),
        2: (5843, 6, 0, "09ff45fcb778feeb"),
        3: (5953, 5, 0, "5d79c2b7e970e13c"),
        4: (6097, 5, 0, "4b6e95b45977a11e"),
        5: (5632, 5, 0, "bf3ed61a98392691"),
        6: (5660, 6, 0, "7e86ae912464eb30"),
        7: (6713, 5, 0, "78952f204cb02d56"),
    },
}


def digest(result) -> str:
    blob = json.dumps([list(result.join_noti_counts), result.message_counts])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("n, m", sorted(PINS))
def test_pinned_per_seed(n, m):
    for seed, pin in PINS[(n, m)].items():
        result = run_join_task(
            JoinTaskConfig(n=n, m=m, seed=seed, use_topology=True)
        )
        assert (
            result.total_messages,
            result.max_theorem3,
            result.theorem3_violations,
            digest(result),
        ) == pin, seed
        assert result.consistent and result.all_in_system, seed
        assert len(result.join_noti_counts) == m
