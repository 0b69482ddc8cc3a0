"""Public API surface tests: the documented imports must exist and the
README quickstart must run verbatim."""

import importlib

import pytest


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        for module_name in (
            "repro.ids",
            "repro.sim",
            "repro.topology",
            "repro.network",
            "repro.obs",
            "repro.routing",
            "repro.protocol",
            "repro.csettree",
            "repro.consistency",
            "repro.analysis",
            "repro.recovery",
            "repro.optimize",
            "repro.baselines",
            "repro.experiments",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), (module_name, name)

    def test_version(self):
        import repro

        assert repro.__version__


class TestReadmeQuickstart:
    def test_quickstart_verbatim(self):
        import random

        from repro import IdSpace, JoinProtocolNetwork

        space = IdSpace(base=16, num_digits=8)
        ids = space.random_unique_ids(120, random.Random(1))

        net = JoinProtocolNetwork.from_oracle(space, ids[:100], seed=1)
        for joiner in ids[100:]:
            net.start_join(joiner)
        net.run()

        assert net.all_in_system()
        assert net.check_consistency().consistent
        assert net.route(ids[100], ids[119]).success
