"""Cluster harness smoke tests: real OS processes over real UDP.

These boot actual ``python -m repro node`` / ``repro rendezvous``
subprocesses -- the same path the CI ``cluster-smoke`` job and the
``repro cluster`` CLI take -- so they are the slowest tests in the
suite (a few seconds each).
"""

import pytest

from repro.net.cluster import ClusterConfig, run_cluster


def quiet(_message):
    """Swallow harness progress lines in test output."""


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=1, joins=1)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=4, joins=4)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=4, joins=0)


class TestClusterSmoke:
    def test_multiprocess_concurrent_joins(self):
        report = run_cluster(
            ClusterConfig(
                nodes=4, joins=2, base=4, num_digits=4,
                converge_timeout=30.0,
            ),
            log=quiet,
        )
        assert report["ok"], report
        assert report["consistency"]["consistent"]
        assert report["all_in_system"]
        assert report["theorem3"]["ok"]
        bound = report["theorem3"]["bound"]
        assert bound == 5  # d + 1 with d = 4
        assert all(
            entry["count"] <= bound
            for entry in report["theorem3"]["per_node"]
        )

    def test_multiprocess_telemetry_merge(self, tmp_path):
        out_dir = str(tmp_path / "telemetry")
        report = run_cluster(
            ClusterConfig(
                nodes=4, joins=2, base=4, num_digits=4,
                converge_timeout=30.0, telemetry_dir=out_dir,
            ),
            log=quiet,
        )
        assert report["ok"], report
        telemetry = report["telemetry"]
        assert telemetry["complete"], telemetry
        assert telemetry["daemons_pulled"] == 4
        assert telemetry["causal_ok"], telemetry["causal_problems"]
        assert telemetry["records"] > 0
        # One validated join tree per joining node -- the sequential
        # base-network join plus both concurrent joiners.
        assert len(telemetry["join_trees"]) == 3
        for tree in telemetry["join_trees"].values():
            assert tree["messages"] >= 2
            assert tree["critical_path"][0]["type"] == "CpRstMsg"
        # Per-daemon clock sync converged to sub-second offsets on
        # loopback.
        for clock in telemetry["clocks"]:
            assert abs(clock["offset_ms"]) < 1000.0
        # The merged artifacts exist and the report parses.
        import json
        import os

        assert os.path.exists(telemetry["trace_file"])
        with open(telemetry["report_file"]) as handle:
            run_report = json.load(handle)
        assert run_report["causality"]["problems"] == []
        assert {"summary", "lifecycles", "causality", "theorem3"} <= set(
            run_report
        )
        # Wire counters surfaced through status into the report.
        assert "clean_wire" in report
        assert report["net"]["wire_bytes_received"] > 0
        assert report["net"]["wire_bytes_sent"] > 0

    def test_multiprocess_joins_with_loss(self):
        report = run_cluster(
            ClusterConfig(
                nodes=3, joins=1, base=4, num_digits=4,
                loss=0.05, fault_seed=3, converge_timeout=45.0,
            ),
            log=quiet,
        )
        assert report["ok"], report
        assert report["loss"] == 0.05
