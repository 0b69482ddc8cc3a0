"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "21233" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "C_61" in out
        assert "consistent: True" in out

    def test_fig15a(self, capsys):
        assert main(["fig15a"]) == 0
        out = capsys.readouterr().out
        assert "m=1000, b=16, d=8" in out

    def test_fig15b_scaled(self, capsys):
        assert main(
            ["fig15b", "--n", "60", "--m", "20", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "bound" in out

    def test_join(self, capsys):
        assert main(
            ["join", "--n", "50", "--m", "15", "--base", "4",
             "--digits", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Theorem 1 (consistent): True" in out

    def test_join_trace_and_metrics(self, capsys, tmp_path):
        trace_path = str(tmp_path / "out.jsonl")
        csv_path = str(tmp_path / "metrics.csv")
        assert main(
            ["join", "--n", "50", "--m", "15", "--base", "4",
             "--digits", "4", "--trace", trace_path, "--metrics",
             "--metrics-csv", csv_path]
        ) == 0
        out = capsys.readouterr().out
        assert "join phase durations" in out
        assert "metrics snapshot:" in out
        from repro.obs import read_trace_jsonl

        spans, events = read_trace_jsonl(trace_path)
        assert any(s["name"] == "phase:copying" for s in spans)
        assert any(e["name"] == "message.send" for e in events)
        with open(csv_path) as handle:
            assert handle.readline().strip() == "metric,value"

    def test_churn(self, capsys):
        assert main(
            ["churn", "--n", "50", "--m", "10", "--leaves", "8",
             "--failures", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "final consistency  : True" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_audit(self, capsys, tmp_path):
        audit_json = str(tmp_path / "audit.json")
        assert main(
            ["join", "--n", "50", "--m", "15", "--base", "4",
             "--digits", "4", "--audit", "--audit-json", audit_json]
        ) == 0
        out = capsys.readouterr().out
        assert "audit" in out and "PASS" in out
        assert "Theorem 3 gate" in out
        assert "Theorem 4/5 gate" in out
        import json

        with open(audit_json) as handle:
            data = json.load(handle)
        assert data["passed"] is True
        assert data["final"]["consistent"] is True
        assert len(data["samples"]) > 0

    def test_join_messages_csv(self, tmp_path):
        csv_path = str(tmp_path / "messages.csv")
        assert main(
            ["join", "--n", "30", "--m", "8", "--base", "4",
             "--digits", "4", "--messages-csv", csv_path]
        ) == 0
        from repro.obs import read_message_type_csv

        rows = read_message_type_csv(csv_path)
        assert rows["CpRstMsg"]["sent"] > 0

    def test_report_text_and_outputs(self, capsys, tmp_path):
        import json
        import os

        trace = os.path.join(
            os.path.dirname(__file__), "obs", "golden", "small_run.jsonl"
        )
        json_path = str(tmp_path / "report.json")
        html_path = str(tmp_path / "report.html")
        assert main(
            ["report", trace, "--json", json_path, "--html", html_path]
        ) == 0
        out = capsys.readouterr().out
        assert "== run summary ==" in out
        assert "== theorem 3 ==" in out
        with open(json_path) as handle:
            data = json.load(handle)
        assert data["lifecycles"]["completed"] == 3
        with open(html_path) as handle:
            assert handle.read().startswith("<!DOCTYPE html>")

    def test_report_flags_stalled_trace(self, capsys, tmp_path):
        # A trace whose join never completes must exit non-zero.
        import json

        trace = tmp_path / "stalled.jsonl"
        records = [
            {"kind": "span", "id": 1, "parent": None, "name": "join",
             "start": 0.0, "end": None, "attrs": {"node": "11"}},
            {"kind": "span", "id": 2, "parent": 1,
             "name": "phase:copying", "start": 0.0, "end": None,
             "attrs": {"node": "11"}},
        ]
        trace.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert main(["report", str(trace)]) == 1
        assert "STALLED" in capsys.readouterr().out


class TestNetCli:
    """Parser and validation paths of the deployment commands (the
    live multi-process path is covered by tests/net/test_cluster.py)."""

    def test_node_parser(self):
        args = build_parser().parse_args([
            "node", "--listen", "127.0.0.1:0",
            "--rendezvous", "127.0.0.1:9000",
            "--base", "4", "--num-digits", "4", "--loss", "0.05",
        ])
        assert args.listen == "127.0.0.1:0"
        assert args.loss == 0.05
        assert not args.seed_node

    def test_node_requires_a_join_path(self, capsys):
        # No --seed-node, no --rendezvous, no --bootstrap: refused.
        assert main(["node", "--listen", "127.0.0.1:0"]) == 2
        assert "rendezvous" in capsys.readouterr().err

    def test_cluster_parser(self):
        args = build_parser().parse_args([
            "cluster", "--nodes", "8", "--joins", "4",
            "--loss", "0.05", "--report", "out.json",
        ])
        assert (args.nodes, args.joins) == (8, 4)
        assert args.report == "out.json"

    def test_cluster_rejects_bad_shape(self, capsys):
        assert main(["cluster", "--nodes", "2", "--joins", "2"]) == 2
        assert "joins" in capsys.readouterr().err

    def test_rendezvous_parser(self):
        args = build_parser().parse_args(
            ["rendezvous", "--listen", ":0", "--ttl", "30"]
        )
        assert args.listen == ":0"
        assert args.ttl == 30.0


class TestExecCli:
    """Execution-engine flags: ``--backend``/``--workers`` on the
    campaign commands, the ``worker`` daemon entry, multi-seed churn."""

    def test_worker_parser(self):
        args = build_parser().parse_args([
            "worker", "--listen", "127.0.0.1:0",
            "--rendezvous", "127.0.0.1:9000",
            "--announce-interval", "5",
        ])
        assert args.listen == "127.0.0.1:0"
        assert args.rendezvous == "127.0.0.1:9000"
        assert args.announce_interval == 5.0

    def test_backend_flags_parse_on_campaign_commands(self):
        for command in ("fig15b", "reproduce", "join", "sweep", "churn"):
            args = build_parser().parse_args(
                [command, "--backend", "pool"]
            )
            assert args.backend == "pool"
        args = build_parser().parse_args(
            ["sweep", "--workers", "127.0.0.1:7001,127.0.0.1:7002"]
        )
        assert args.workers == "127.0.0.1:7001,127.0.0.1:7002"

    def test_backend_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "threads"])

    @pytest.mark.parametrize("argv", [
        ["fig15b", "--jobs", "-1"],
        ["join", "--seeds", "2", "--jobs", "-1"],
        ["sweep", "--jobs", "-3"],
        ["sweep", "--backend", "pool", "--jobs", "-3"],
        ["churn", "--seeds", "2", "--jobs", "-2"],
        ["sweep", "--jobs", "two"],
    ])
    def test_bad_jobs_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "non-negative" in err

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--seeds", "0"], "--seeds"),
        (["join", "--m", "0"], "--m"),
        (["join", "--m", "0", "--seeds", "2"], "--m"),
        (["join", "--seeds", "0"], "--seeds"),
        (["fig15b", "--m", "0"], "--m"),
        (["fig15b", "--n", "-4"], "--n"),
        (["churn", "--seeds", "0"], "--seeds"),
        (["churn", "--n", "many"], "--n"),
    ])
    def test_bad_count_is_a_usage_error(self, argv, flag, capsys):
        """Used to raise ZeroDivisionError / ValueError, or silently
        run one seed."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "positive" in err

    def test_remote_backend_without_workers_is_refused(self, capsys):
        assert main(
            ["sweep", "--seeds", "2", "--n", "40", "--m", "10",
             "--backend", "remote"]
        ) == 2
        assert "rendezvous" in capsys.readouterr().err
        # A --workers flag naming no worker still means remote.
        assert main(
            ["sweep", "--seeds", "2", "--n", "40", "--m", "10",
             "--workers", ","]
        ) == 2
        assert "rendezvous" in capsys.readouterr().err

    def test_sweep_inline_backend_writes_json(self, capsys, tmp_path):
        import json

        out = str(tmp_path / "sweep.json")
        assert main(
            ["sweep", "--seeds", "2", "--n", "40", "--m", "10",
             "--backend", "inline", "--out", out]
        ) == 0
        assert "seeds" in capsys.readouterr().out
        with open(out) as handle:
            data = json.load(handle)
        assert data["seeds"] == [0, 1]
        assert len(data["per_seed"]) == 2
        assert data["all_consistent"] is True

    def test_sweep_report_is_pinned(self, capsys):
        """The sweep's report, recorded when it still came from a
        separate Figure 15(b) task and aggregate class."""
        assert main(
            ["sweep", "--seeds", "3", "--n", "40", "--m", "10",
             "--digits", "4"]
        ) == 0
        assert capsys.readouterr().out == (
            "== n=40, m=10, b=16, d=4; seeds [0, 1, 2] ==\n"
            "mean JoinNotiMsg: 7.167 +/- 4.149 [1.300, 10.200] (3 seeds)\n"
            "Theorem 5 bound    : 6.246\n"
            "bound never exceeded: False\n"
            "all consistent     : True\n"
        )

    def test_churn_multi_seed(self, capsys):
        assert main(
            ["churn", "--n", "40", "--m", "8", "--leaves", "6",
             "--failures", "4", "--seeds", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed" in out
        assert "all consistent" in out


#: The four campaign commands at a size that runs in well under a
#: second inline.
CAMPAIGNS = {
    "fig15b": ["fig15b", "--n", "20", "--m", "5", "--digits", "4"],
    "join": ["join", "--seeds", "2", "--n", "20", "--m", "5",
             "--base", "4", "--digits", "4"],
    "sweep": ["sweep", "--seeds", "2", "--n", "20", "--m", "5",
              "--digits", "4"],
    "churn": ["churn", "--seeds", "2", "--n", "20", "--m", "6",
              "--leaves", "2", "--failures", "2"],
}

#: Engine flags -> (backend class, jobs) that runs the campaign, with
#: ``os.cpu_count()`` pinned to 8.  Recorded before the selection rule
#: moved into ``create_backend``; it must not change.
PARITY = {
    (): ("InlineBackend", None),
    ("--jobs", "1"): ("InlineBackend", None),
    ("--jobs", "2"): ("ProcessPoolBackend", 2),
    ("--jobs", "0"): ("ProcessPoolBackend", 8),
    ("--backend", "inline", "--jobs", "4"): ("InlineBackend", None),
    ("--backend", "pool"): ("ProcessPoolBackend", 8),
    ("--backend", "pool", "--jobs", "1"): ("ProcessPoolBackend", 8),
    ("--backend", "pool", "--jobs", "3"): ("ProcessPoolBackend", 3),
    ("--workers", "a:1,b:2"): ("RemoteBackend", None),
    ("--workers-from", "h:9"): ("RemoteBackend", None),
}


class TestBackendParity:
    """Which backend each flag set selects, observed by a spy on
    ``completions`` that notes the backend and then runs the tasks
    inline (so no pool or socket is ever opened)."""

    @pytest.fixture
    def spy(self, monkeypatch):
        import os

        from repro.exec import InlineBackend
        from repro.exec.pool import ProcessPoolBackend
        from repro.exec.remote import RemoteBackend

        ran = []

        def completions(self, fn, tasks):
            ran.append((type(self).__name__, getattr(self, "jobs", None)))
            for index, task in enumerate(tasks):
                yield index, fn(task)

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for cls in (InlineBackend, ProcessPoolBackend, RemoteBackend):
            monkeypatch.setattr(cls, "completions", completions)
        return ran

    @pytest.mark.parametrize("command", sorted(CAMPAIGNS))
    def test_flags_select_the_recorded_backend(self, command, spy, capsys):
        outputs = {}
        for flags, expected in PARITY.items():
            spy.clear()
            assert main(CAMPAIGNS[command] + list(flags)) == 0, flags
            assert spy == [expected], flags
            outputs[flags] = [
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("remote backend")
            ]
        # Whatever ran the tasks, the command prints the same report.
        reference = outputs[()]
        assert all(lines == reference for lines in outputs.values())
