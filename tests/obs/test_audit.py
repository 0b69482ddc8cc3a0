"""LiveAuditor tests: theorem gates on a healthy run, and mid-run
fault detection when a JoinNotiMsg is dropped via the transport's
drop hook (the acceptance scenario for ``repro join --audit``)."""

import pytest

from repro.experiments.workloads import make_workload
from repro.obs import AuditConfig, Observability


def run_audited(fault=False, heartbeat_until=None, config=None):
    """A fixed-seed concurrent-join workload with a LiveAuditor.

    With ``fault=True`` the first JoinNotiMsg is silently dropped via
    ``Transport.drop_filter``, losing exactly one neighbor-table
    notification.  ``heartbeat_until`` schedules no-op ticks past
    natural quiescence so the auditor keeps sampling while a stalled
    joiner's phase-residence grows beyond any healthy value.
    """
    workload = make_workload(
        base=4, num_digits=4, n=50, m=15, seed=0,
        obs=Observability.metrics_only(),
    )
    net = workload.network
    auditor = net.attach_auditor(config)
    dropped = []
    if fault:
        def drop_first_join_noti(message, dst):
            if message.type_name == "JoinNotiMsg" and not dropped:
                dropped.append((str(message.sender), str(dst)))
                return True
            return False

        net.transport.drop_filter = drop_first_join_noti
    if heartbeat_until is not None:
        for tick in range(0, heartbeat_until + 1, 50):
            net.runtime.schedule_at(float(tick), lambda: None)
    workload.start_all_joins()
    workload.run()
    return net, auditor, dropped


# Tuned for the seed-0 workload above: the longest healthy phase
# residence is ~524 virtual-time units, so 700 never fires on the
# healthy run but catches a joiner wedged by a lost notification.
FAULT_CONFIG = AuditConfig(
    interval=50.0, stall_timeout=700.0, persist_samples=4
)


class TestHealthyRun:
    def test_all_gates_pass(self):
        net, auditor, _ = run_audited(config=FAULT_CONFIG)
        report = auditor.finalize()
        assert report.passed
        assert report.incidents == []
        assert report.final_consistent
        assert report.all_in_system
        assert net.all_in_system()

    def test_theorem3_gate_recorded(self):
        _, auditor, _ = run_audited(config=FAULT_CONFIG)
        report = auditor.finalize()
        assert report.theorem3_bound == 5  # d + 1 with d = 4
        assert 0 < report.theorem3_max <= report.theorem3_bound

    def test_theorem45_gate_recorded(self):
        _, auditor, _ = run_audited(config=FAULT_CONFIG)
        report = auditor.finalize()
        assert report.theorem4_expected > 0
        assert report.theorem5_bound >= report.theorem4_expected
        assert report.measured_mean_join_noti <= report.theorem5_bound

    def test_samples_taken_during_run(self):
        _, auditor, _ = run_audited(config=FAULT_CONFIG)
        report = auditor.finalize()
        assert len(report.samples) > 5
        times = [sample.time for sample in report.samples]
        assert times == sorted(times)
        # Early samples see open joins; by quiescence all are closed.
        assert report.samples[0].open_joins > 0
        assert report.samples[-1].open_joins == 0

    def test_finalize_is_idempotent(self):
        _, auditor, _ = run_audited(config=FAULT_CONFIG)
        first = auditor.finalize()
        second = auditor.finalize()
        assert first is second


class TestFaultInjectedRun:
    """Dropping one JoinNotiMsg must be flagged *during* the run."""

    def run_faulted(self):
        return run_audited(
            fault=True, heartbeat_until=2000, config=FAULT_CONFIG
        )

    def test_fault_fails_the_audit(self):
        _, auditor, dropped = self.run_faulted()
        report = auditor.finalize()
        assert dropped == [("0213", "0113")]
        assert not report.passed
        assert not report.final_consistent

    def test_stall_flagged_mid_run(self):
        net, auditor, _ = self.run_faulted()
        report = auditor.finalize()
        stalls = [i for i in report.incidents if i.kind == "stall"]
        assert stalls, "lost JoinNotiMsg should wedge the joiner"
        # Flagged before the simulation went quiescent, not post hoc.
        assert stalls[0].time < net.runtime.now
        assert "0213" in stalls[0].detail

    def test_inconsistency_flagged_mid_run(self):
        net, auditor, dropped = self.run_faulted()
        report = auditor.finalize()
        mid_run = [
            i for i in report.incidents if i.kind == "consistency"
        ]
        assert mid_run, "missing table entry should surface mid-run"
        assert mid_run[0].time < net.runtime.now
        # The flagged violation is the dropped edge itself: the
        # notified node never installed the joiner.
        receiver = dropped[0][1]
        assert any(
            "false_negative" in i.detail and receiver in i.detail
            for i in mid_run
        )

    def test_quiescence_gates_also_fire(self):
        _, auditor, _ = self.run_faulted()
        report = auditor.finalize()
        kinds = {i.kind for i in report.incidents}
        assert "quiescent_stall" in kinds
        assert "final_consistency" in kinds

    def test_heartbeats_alone_cause_no_incidents(self):
        _, auditor, _ = run_audited(
            fault=False, heartbeat_until=2000, config=FAULT_CONFIG
        )
        report = auditor.finalize()
        assert report.passed
        assert report.incidents == []


class TestAuditConfig:
    def test_defaults_validate(self):
        AuditConfig().validated()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"persist_samples": 0},
            {"stall_timeout": -1.0},
            {"theorem45_tolerance": -0.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AuditConfig(**kwargs).validated()


class TestAuditReportOutput:
    def test_json_dict_shape(self):
        _, auditor, _ = run_audited(config=FAULT_CONFIG)
        data = auditor.finalize().to_json_dict()
        assert data["passed"] is True
        assert data["gates"]["theorem3"]["bound"] == 5
        assert data["samples"][0]["time"] >= 0.0
        assert data["incidents"] == []

    def test_render_text_sections(self):
        _, auditor, _ = run_audited(config=FAULT_CONFIG)
        text = auditor.finalize().render_text()
        assert "audit" in text
        assert "Theorem 3 gate" in text
        assert "Theorem 4/5 gate" in text
        assert "final check" in text


class TestIncrementalAuditor:
    """AuditConfig(incremental=True) must be an invisible speedup:
    same samples, incidents and verdicts as the full checker."""

    def _reports(self, fault):
        full_config = AuditConfig(
            interval=50.0, stall_timeout=700.0, persist_samples=4
        )
        inc_config = AuditConfig(
            interval=50.0, stall_timeout=700.0, persist_samples=4,
            incremental=True,
        )
        _, full_auditor, _ = run_audited(fault=fault, config=full_config)
        _, inc_auditor, _ = run_audited(fault=fault, config=inc_config)
        return full_auditor.finalize(), inc_auditor.finalize()

    def test_healthy_run_identical(self):
        full, incremental = self._reports(fault=False)
        assert incremental.passed and full.passed
        assert len(incremental.samples) == len(full.samples)
        assert incremental.to_json_dict() == full.to_json_dict()

    def test_faulted_run_flags_same_incidents(self):
        full, incremental = self._reports(fault=True)
        assert not incremental.passed and not full.passed
        assert [i.kind for i in incremental.incidents] == [
            "quiescent_stall", "final_consistency",
        ]
        # Every sample, gate and incident detail string.
        assert incremental.to_json_dict() == full.to_json_dict()
