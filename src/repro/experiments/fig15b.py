"""Figure 15(b): simulated distribution of JoinNotiMsg per joiner.

The paper's setups: a GT-ITM topology with 8320 routers; either 4096
end-hosts (3096 form the initial consistent network, 1000 join) or 8192
end-hosts (7192 initial, 1000 join); ``b = 16``, ``d`` in {8, 40}; all
joins start at the same time.  Reported: the CDF of the number of
JoinNotiMsg sent per joining node, its average (6.117 / 6.051 / 5.026 /
5.399) and the Theorem 5 bound (8.001 / 8.001 / 6.986 / 6.986).

One configuration is one
:func:`~repro.experiments.parallel.run_join_task` with
``use_topology=True``; scaled-down configurations keep the tests
and the claims manifest (:mod:`repro.experiments.claims`) fast, while
``python -m repro fig15b --full`` runs :data:`PAPER_CONFIGS`.
"""

from __future__ import annotations

from repro.experiments.parallel import JoinTaskConfig
from repro.topology.transit_stub import TransitStubParams

#: The paper's four configurations, at full scale (8320-router topology).
PAPER_CONFIGS = tuple(
    JoinTaskConfig(
        n=n,
        m=1000,
        base=16,
        num_digits=d,
        use_topology=True,
        topology_params=TransitStubParams(),
    )
    for n in (3096, 7192)
    for d in (8, 40)
)
