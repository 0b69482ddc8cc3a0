"""Cluster harness smoke tests: real OS processes over real UDP.

These boot actual ``python -m repro node`` / ``repro rendezvous``
subprocesses -- the same path the CI ``cluster-smoke`` job and the
``repro cluster`` CLI take -- so they are the slowest tests in the
suite (a few seconds each).
"""

import random

import pytest

from repro.ids.idspace import IdSpace
from repro.net import cluster as cluster_module
from repro.net.cluster import (
    ClusterConfig,
    ClusterError,
    _ClusterHarness,
    run_cluster,
)
from repro.net.wire import node_id_to_wire, table_to_wire
from repro.routing import build_consistent_tables


def quiet(_message):
    """Swallow harness progress lines in test output."""


class FakeProc:
    def __init__(self, name, port):
        self.name = name
        self.addr = ("127.0.0.1", port)


class ScriptedClient:
    """Answers ``status`` and ``table`` for three in-system daemons;
    the first ``unacked_polls`` status answers report one unacked
    send.  ``log`` records each answer in order."""

    def __init__(self, unacked_polls):
        ids = IdSpace(4, 4).random_unique_ids(3, random.Random(1))
        self.tables = build_consistent_tables(ids)
        self.ids = {("127.0.0.1", 7000 + i): nid for i, nid in enumerate(ids)}
        self.unacked_polls = unacked_polls
        self.log = []

    def try_request(self, addr, op, body=None, timeout=None):
        node_id = self.ids[addr]
        wire_id = node_id_to_wire(node_id)
        if op == "table":
            self.log.append("table")
            table = table_to_wire(self.tables[node_id])
            return {"id": wire_id, "status": "in_system", "table": table}
        unacked = int(self.unacked_polls > 0)
        self.unacked_polls -= 1
        self.log.append(f"unacked={unacked}")
        return {"id": wire_id, "status": "in_system", "net": {},
                "theorem3": 1, "wire": {"unacked": unacked}}


def scripted_harness(monkeypatch, client, converge_timeout=5.0):
    config = ClusterConfig(nodes=3, joins=1, converge_timeout=converge_timeout)
    harness = _ClusterHarness(config, quiet)
    harness.client.close()
    harness.client = client
    monkeypatch.setattr(
        harness, "_spawn_rendezvous", lambda: FakeProc("rendezvous", 9000)
    )

    def spawn(name, seed_node=False):
        proc = FakeProc(name, 7000 + len(harness.daemons))
        harness.daemons.append(proc)
        return proc

    monkeypatch.setattr(harness, "_spawn_node", spawn)
    return harness


class TestWireDrain:
    def test_tables_are_pulled_only_after_the_wire_drains(self, monkeypatch):
        # Three in-system polls, then two more that still see an
        # unacked (retransmitting) send before the wire goes quiet.
        client = ScriptedClient(unacked_polls=5)
        report = scripted_harness(monkeypatch, client).run()
        before = client.log[:client.log.index("table")]
        assert before[-6:] == ["unacked=0"] * 6  # two quiet rounds
        assert report["ok"], report

    def test_a_wire_that_never_drains_names_the_daemons(self, monkeypatch):
        client = ScriptedClient(unacked_polls=10**9)
        harness = scripted_harness(monkeypatch, client, converge_timeout=0.3)
        with pytest.raises(ClusterError, match="node-0, node-1, node-2"):
            harness.run()
        assert "table" not in client.log


class TestDistinctIds:
    def test_spawned_daemons_get_distinct_ids(self, monkeypatch):
        spawned = []

        class RecordingProc(FakeProc):
            def __init__(self, name, argv):
                super().__init__(name, 7000 + len(spawned))
                spawned.append(argv)

            def wait_ready(self):
                return {}

        monkeypatch.setattr(cluster_module, "_Proc", RecordingProc)
        harness = _ClusterHarness(ClusterConfig(nodes=16, joins=8), quiet)
        try:
            harness.rendezvous = FakeProc("rendezvous", 9000)
            for index in range(16):
                harness._spawn_node(f"node-{index}", seed_node=index == 0)
        finally:
            harness.client.close()
        ids = [argv[argv.index("--id") + 1] for argv in spawned]
        space = IdSpace(4, 4)
        assert len({space.from_string(text) for text in ids}) == 16


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
