"""Fault injector tests: plans, budgets, reproducibility."""

import pytest

from repro.net.faults import FaultInjector, FaultPlan


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate=-0.1)

    def test_active(self):
        assert not FaultPlan().active
        assert FaultPlan(loss=0.1).active
        assert FaultPlan(drop_first={"JoinNotiMsg": 1}).active


class TestFaultInjector:
    def test_clean_plan_passes_everything(self):
        injector = FaultInjector(FaultPlan())
        assert injector.transmissions("JoinNotiMsg") == [0.0]
        assert injector.transmissions(None) == [0.0]
        assert injector.dropped == 0

    def test_drop_first_budget_is_per_type_and_finite(self):
        injector = FaultInjector(FaultPlan(drop_first={"JoinNotiMsg": 2}))
        assert injector.transmissions("JoinNotiMsg") == []
        assert injector.transmissions("CpRstMsg") == [0.0]  # other types pass
        assert injector.transmissions("JoinNotiMsg") == []
        # Budget exhausted: the third one goes through.
        assert injector.transmissions("JoinNotiMsg") == [0.0]
        assert injector.dropped == 2

    def test_acks_bypass_targeted_drops(self):
        injector = FaultInjector(FaultPlan(drop_first={"JoinNotiMsg": 1}))
        assert injector.transmissions(None) == [0.0]

    def test_full_loss_drops_all(self):
        injector = FaultInjector(FaultPlan(loss=1.0))
        for _ in range(10):
            assert injector.transmissions("PingMsg") == []
        assert injector.dropped == 10

    def test_duplicate_produces_two_sends(self):
        injector = FaultInjector(FaultPlan(duplicate=1.0))
        sends = injector.transmissions("PingMsg")
        assert len(sends) == 2
        assert sends[0] == 0.0
        assert injector.duplicated == 1

    def test_reorder_holds_datagram_back(self):
        injector = FaultInjector(FaultPlan(reorder=1.0, reorder_delay=30.0))
        (delay,) = injector.transmissions("PingMsg")
        assert delay > 0.0
        assert injector.reordered == 1

    def test_seed_reproducibility(self):
        plan = FaultPlan(loss=0.4, duplicate=0.2, seed=99)
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            runs.append(
                [tuple(injector.transmissions("M")) for _ in range(50)]
            )
        assert runs[0] == runs[1]
