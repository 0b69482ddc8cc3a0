"""What one simulated message costs in Python calls.

A count gate, not a clock gate: ``sys.setprofile`` counts every Python
``call`` event (C functions report ``c_call`` and are not counted)
while the protocol runs, and the gate divides by the messages the
transport accounted.  Two runs:

* a small churn lifecycle (``ChurnConfig`` sized below: joins, leaves,
  crashes with recovery, optimization) -- the repair and optimize
  handlers, whose cost is mostly the message path itself;
* a small concurrent join -- the paper's protocol, whose handlers do
  more per message.

Between a handler's ``send`` and the next handler a message passes
``Transport.send`` (the one delivery method, recovery probes
included), ``MessageStats.on_send`` with the message's
``size_bytes``, ``Simulator.schedule_fire``, the drain's inline pop
and ``NetworkNode.receive``.  Before that path was cut to these
frames, these runs cost 22.2 calls per churn message and 29.2 per
join message (CPython 3.9 and 3.11; 21.9 and 29.1 on 3.12, which
inlines comprehensions); after it, 13.9 and 22.4, and 12.9 and 21.3
once ``send`` and its delivery helper became one method.  The bounds
sit a little above the cut path, and the churn bound below 0.65 of
the old cost, so a frame put back on the path fails the gate.

A third gate holds observability's contract, that a run with tracing
off pays per joiner and never per event: the same joins run with
``Observability.metrics_only()`` and with no observability at all,
and the difference is divided by the joiners.  It is flat in the
network's size -- 85.1 calls per joiner at both sizes below (81.1 on
CPython 3.12), all of them the join observer's four phase transitions (a labelled counter,
a null span opened and closed, the node's id as a string) -- where a
per-event hook read 260 and 285 and grew with the run.
"""

import random
import sys

import pytest

from repro.experiments.churn import ChurnConfig
from repro.experiments.workloads import make_workload
from repro.obs.instrument import Observability
from repro.optimize import optimize_tables
from repro.protocol.leave import leave_sequentially
from repro.recovery import fail_nodes, recover_from_failures

CHURN = ChurnConfig(n=30, m=10, leaves=5, failures=3, seed=12)
#: b16 d8, 150 members and 50 concurrent joiners, uniform latency.
JOIN = dict(base=16, num_digits=8, n=150, m=50, seed=5)

CHURN_CALLS_PER_MESSAGE = 14.3
JOIN_CALLS_PER_MESSAGE = 23.0

#: Observability-off runs: the join above, and one 2.6 times its size.
OBS_OFF = [JOIN, dict(base=16, num_digits=8, n=400, m=120, seed=21)]
OBS_OFF_CALLS_PER_JOINER = 90


class _CallCounter:
    def __init__(self) -> None:
        self.calls = 0

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1

    def __enter__(self) -> "_CallCounter":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


def _per_message(net, body) -> float:
    sent = net.stats.total_messages
    with _CallCounter() as counter:
        body()
    return counter.calls / (net.stats.total_messages - sent)


def churn_calls_per_message() -> float:
    config = CHURN
    rng = random.Random(config.seed)
    work = make_workload(
        config.base, config.num_digits, config.n, config.m,
        seed=config.seed, use_topology=config.use_topology,
        topology_params=config.topology_params,
    )
    net = work.network

    def lifecycle() -> None:
        work.start_all_joins(at=0.0)
        work.run()
        leave_sequentially(net, rng.sample(net.member_ids(), config.leaves))
        fail_nodes(net, rng.sample(net.member_ids(), config.failures))
        recover_from_failures(net)
        optimize_tables(net)

    return _per_message(net, lifecycle)


def join_calls_per_message() -> float:
    work = make_workload(**JOIN)
    work.start_all_joins(at=0.0)
    return _per_message(work.network, work.run)


def join_calls(size, obs=None) -> int:
    """Python calls made while ``size``'s joiners join to quiescence."""
    work = make_workload(**size, obs=obs)
    with _CallCounter() as counter:
        work.start_all_joins(at=0.0)
        work.run()
    assert work.network.all_in_system()
    return counter.calls


def obs_off_calls_per_joiner(size) -> float:
    instrumented = join_calls(size, Observability.metrics_only())
    return (instrumented - join_calls(size)) / size["m"]


def test_churn_message_path_cost():
    assert churn_calls_per_message() <= CHURN_CALLS_PER_MESSAGE


def test_join_message_path_cost():
    assert join_calls_per_message() <= JOIN_CALLS_PER_MESSAGE


@pytest.mark.parametrize(
    "size", OBS_OFF, ids=[f"{s['n']}+{s['m']}" for s in OBS_OFF]
)
def test_observability_off_costs_per_joiner(size):
    assert obs_off_calls_per_joiner(size) <= OBS_OFF_CALLS_PER_JOINER
