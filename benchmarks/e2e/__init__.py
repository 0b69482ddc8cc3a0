"""The standing end-to-end benchmark for all three tiers.

Six workloads (simulator join / scale / lookup / churn, the UDP tier,
the exec tier), each measured cold in fresh child processes, every
output verified.  ``run.py`` is the single-workload entry the root
``BENCHMARK.json`` names; ``python -m benchmarks.e2e`` runs all six.
See ``README.md`` in this directory.
"""
