"""Remote backend and worker-daemon tests.

The in-process classes cover the scheduling/requeue logic against
:class:`~repro.exec.worker.WorkerDaemon` threads; the subprocess class
is the acceptance test -- real ``repro worker`` OS processes, one of
them SIGKILLed mid-sweep, with the merged result still identical to
the inline run.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec.registry import task_name
from repro.exec.remote import (
    RemoteBackend,
    RemoteBackendError,
    RemoteTaskError,
    discover_workers,
)
from repro.exec.taskcodec import decode_task_value, encode_task_value
from repro.exec.worker import WorkerDaemon
from repro.experiments.parallel import (
    JoinTaskConfig,
    run_join_task,
    seeded_configs,
)
from repro.net.control import ControlClient, parse_ready_line
from repro.net.wire import ctl_frame, encode_frame
from tests.exec.task_fns import (
    big_string,
    boom,
    brief_double,
    double,
    sleepy_double,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fleet():
    """Start in-process worker daemons; yields the starter (its
    ``daemons`` attribute lists them in start order), cleans up every
    daemon afterwards."""
    daemons = []

    def start(count=2, rendezvous=None, cls=WorkerDaemon):
        addrs = []
        for _ in range(count):
            daemon = cls(
                ("127.0.0.1", 0),
                rendezvous=rendezvous,
                announce_interval=0.2,
            )
            addr = daemon.open()
            thread = threading.Thread(target=daemon.serve, daemon=True)
            thread.start()
            daemons.append((daemon, thread))
            start.daemons.append(daemon)
            addrs.append(addr)
        return addrs

    start.daemons = []
    yield start
    for daemon, thread in daemons:
        daemon.stop()
        thread.join(timeout=3.0)
        daemon.close()


def dead_address():
    """A loopback address guaranteed to have no listener."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    return (addr[0], addr[1])


class TestWorkerDaemon:
    """Direct ``handle()`` tests against one open daemon."""

    def setup_method(self):
        self.daemon = WorkerDaemon(("127.0.0.1", 0))
        self.daemon.open()

    def teardown_method(self):
        self.daemon.close()

    def submit(self, tid, value, fn="tests.exec.task_fns:double"):
        return self.daemon.handle(
            "submit",
            {"tid": tid, "fn": fn, "task": encode_task_value(value)},
            ("c", 1),
        )

    def poll_until_done(self, tid, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            reply = self.daemon.handle("poll", {"tid": tid}, ("c", 1))
            if reply["state"] != "running":
                return reply
            time.sleep(0.01)
        raise AssertionError(f"task {tid} never finished")

    def test_hello_identifies_a_worker(self):
        hello = self.daemon.handle("hello", {}, ("c", 1))
        assert hello["ok"] and hello["kind"] == "worker"

    def test_submit_run_poll_roundtrip(self):
        assert self.submit("t1", 21)["accepted"]
        reply = self.poll_until_done("t1")
        assert reply["state"] == "done"
        assert decode_task_value(reply["result"]) == 42
        assert self.daemon.tasks_done == 1

    def test_duplicate_submit_is_reacked_not_rerun(self):
        assert self.submit("t1", 10)["accepted"]
        assert self.submit("t1", 10)["accepted"]  # retried datagram
        self.poll_until_done("t1")
        assert self.daemon.tasks_done == 1

    def test_second_task_while_busy_is_refused(self):
        self.submit("slow", 1, fn="tests.exec.task_fns:sleepy_double")
        assert self.submit("other", 2) == {"busy": True}
        self.poll_until_done("slow")

    def test_unknown_tid_polls_unknown(self):
        assert self.daemon.handle("poll", {"tid": "nope"}, ("c", 1)) == {
            "state": "unknown"
        }

    def test_task_error_is_reported_not_fatal(self):
        self.submit("bad", 3, fn="tests.exec.task_fns:boom")
        reply = self.poll_until_done("bad")
        assert reply["state"] == "error"
        assert "ValueError" in reply["error"]
        assert self.daemon.tasks_failed == 1
        # The worker survives and takes the next task.
        assert self.submit("good", 4)["accepted"]
        assert decode_task_value(self.poll_until_done("good")["result"]) == 8

    def test_a_bare_task_name_is_a_task_error(self):
        """Tasks are named only by ``module:function``; the old curated
        names ("join", "churn", "fig15b") resolve to nothing."""
        assert self.submit("bare", 1, fn="join")["accepted"]
        reply = self.poll_until_done("bare")
        assert reply["state"] == "error"
        assert "TaskNotRegisteredError" in reply["error"]

    def test_status_row_shape(self):
        status = self.daemon.handle("status", {}, ("c", 1))
        assert status["kind"] == "worker"
        assert status["status"] == "wrk-idle"
        assert status["s"] is False
        assert status["pushes_sent"] == 0

    def test_made_up_origin_is_never_pushed_to(self):
        """``("c", 1)`` did not come from ``recvfrom``: pushing to it
        would resolve the name "c" on the task thread."""
        pushed = []
        self.daemon._push = lambda data, origin: pushed.append(origin)
        assert self.submit("t1", 1)["accepted"]
        assert self.poll_until_done("t1")["state"] == "done"
        assert pushed == []

    def test_oversized_result_is_a_task_error_not_a_crash(self):
        self.submit("big", 70_000, fn="tests.exec.task_fns:big_string")
        reply = self.poll_until_done("big")
        assert reply["state"] == "error"
        assert reply["error"].startswith("OversizedMessageError")
        assert self.daemon.tasks_failed == 1
        assert self.submit("next", 4)["accepted"]

    def test_overlong_tid_is_refused(self):
        assert "error" in self.submit("t" * 1000, 1)


class TestRemoteBackendInProcess:
    def test_requires_workers_or_rendezvous(self):
        with pytest.raises(ValueError, match="rendezvous"):
            RemoteBackend()

    def test_matches_inline_and_survives_busy_workers(self, fleet):
        addrs = fleet(count=2)
        tasks = list(range(7))
        with RemoteBackend(workers=addrs, poll_interval=0.02) as backend:
            assert backend.map(double, tasks) == [2 * t for t in tasks]

    def test_join_task_travels_by_its_dotted_name(self, fleet):
        """The concurrent-join task reaches workers as
        ``repro.experiments.parallel:run_join_task`` and its results
        equal the inline run's."""
        configs = seeded_configs(
            JoinTaskConfig(base=4, num_digits=4, n=20, m=5), [0, 1]
        )
        assert task_name(run_join_task) == (
            "repro.experiments.parallel:run_join_task"
        )
        with RemoteBackend(workers=fleet(count=2), poll_interval=0.02) as b:
            assert b.map(run_join_task, configs) == [
                run_join_task(c) for c in configs
            ]

    def test_task_error_raises_remote_task_error(self, fleet):
        addrs = fleet(count=1)
        with RemoteBackend(workers=addrs, poll_interval=0.02) as backend:
            with pytest.raises(RemoteTaskError, match="ValueError"):
                backend.map(boom, [1, 2, 3])

    def test_no_live_workers_fails_loudly(self):
        backend = RemoteBackend(
            workers=[dead_address()],
            request_timeout=0.05,
            request_retries=1,
            poll_interval=0.01,
        )
        with backend:
            with pytest.raises(RemoteBackendError, match="no live workers"):
                backend.map(double, [1, 2])

    def test_discovery_via_rendezvous(self, fleet):
        from repro.net.rendezvous import RendezvousServer

        server = RendezvousServer(("127.0.0.1", 0), ttl=60.0)
        rendezvous = server.open()
        server_thread = threading.Thread(target=server.serve, daemon=True)
        server_thread.start()
        try:
            addrs = fleet(count=2, rendezvous=rendezvous)
            backend = RemoteBackend(
                rendezvous=rendezvous, poll_interval=0.02
            )
            with backend:
                deadline = time.monotonic() + 5.0
                roster = []
                while time.monotonic() < deadline and len(roster) < 2:
                    roster = backend.roster()
                    time.sleep(0.05)
                assert sorted(roster) == sorted(addrs)
                assert backend.map(double, [1, 2, 3]) == [2, 4, 6]
        finally:
            server.stop()
            server_thread.join(timeout=5.0)
            server.close()

    def test_discover_workers_ignores_nodes_and_old_rows(self):
        class FakeClient:
            """Canned ``directory`` response."""

            def try_request(self, addr, op, body=None):
                """Return the canned body."""
                return {
                    "nodes": [
                        ["a", ["127.0.0.1", 1], True],  # pre-kind row
                        ["b", ["127.0.0.1", 2], False, "node"],
                        ["c", ["127.0.0.1", 3], False, "worker"],
                    ]
                }

        assert discover_workers(FakeClient(), ("127.0.0.1", 9)) == [
            ("127.0.0.1", 3)
        ]


class BlackHole(WorkerDaemon):
    """Accepts one ``submit``, answers it, then never speaks again:
    the serve loop exits but the socket stays bound, so datagrams are
    swallowed rather than refused."""

    def handle(self, op, body, addr, reachable=False):
        """Like a worker whose host froze right after the accept."""
        reply = super().handle(op, body, addr, reachable=False)
        if op == "submit":
            self.stop()
        return reply


class TestPushPath:
    """Completions are pushed; ``poll`` is the liveness fallback."""

    def test_progress_is_push_driven(self, fleet):
        addrs = fleet(count=2)
        tasks = list(range(8))
        with RemoteBackend(workers=addrs, poll_interval=5.0) as backend:
            started = time.monotonic()
            assert backend.map(brief_double, tasks) == [2 * t for t in tasks]
            # Four rounds of 20 ms; one poll sweep alone would be 5 s.
            assert time.monotonic() - started < 1.5
            metrics = backend.metrics
            assert metrics.value("exec.remote.completions", via="push") == 8
            assert metrics.value("exec.remote.completions", via="poll") == 0
            assert metrics.histogram(
                "exec.remote.dispatch_latency_s"
            ).count == 6  # every refill after a completion
            assert "8 pushed, 0 polled" in backend.summary()
        with ControlClient(timeout=1.0, retries=1) as client:
            # A worker counts a push just after sending it, so the
            # last one may still be uncounted when its result is here.
            deadline = time.monotonic() + 2.0
            sent = 0
            while sent != 8 and time.monotonic() < deadline:
                sent = sum(
                    client.request(addr, "status")["pushes_sent"]
                    for addr in addrs
                )
        assert sent == 8

    def test_push_during_a_submit_round_trip_is_not_lost(self, fleet):
        """Instant tasks: a worker's ``done`` reaches the coordinator
        while it is still mid-``submit`` with the other worker."""
        addrs = fleet(count=2)
        tasks = list(range(40))
        with RemoteBackend(workers=addrs, poll_interval=5.0) as backend:
            started = time.monotonic()
            assert backend.map(double, tasks) == [2 * t for t in tasks]
            assert time.monotonic() - started < 2.0
            assert (
                backend.metrics.value("exec.remote.completions", via="poll")
                == 0
            )

    def test_lost_pushes_fall_back_to_poll(self, fleet):
        addrs = fleet(count=2)
        fleet.daemons[0]._push = lambda data, origin: None
        tasks = list(range(8))
        with RemoteBackend(workers=addrs, poll_interval=0.03) as backend:
            assert backend.map(brief_double, tasks) == [2 * t for t in tasks]
            metrics = backend.metrics
            pushed = metrics.value("exec.remote.completions", via="push")
            polled = metrics.value("exec.remote.completions", via="poll")
        assert pushed > 0 and polled > 0 and pushed + polled == 8

    def test_forged_stale_and_replayed_done_frames_are_ignored(
        self, fleet, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.exec.remote.os.urandom", lambda n: b"\x00" * n
        )
        addrs = fleet(count=1)
        worker = fleet.daemons[0]._sock
        stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        stranger.bind(("127.0.0.1", 0))

        def done(tid, value):
            return encode_frame(
                ctl_frame(
                    0,
                    "done",
                    {
                        "tid": tid,
                        "state": "done",
                        "result": encode_task_value(value),
                    },
                )
            )

        tasks = [1, 2, 3]
        try:
            with RemoteBackend(workers=addrs, poll_interval=0.05) as backend:
                coordinator = backend._control()._sock.getsockname()
                # Queued before the campaign starts: the right task id
                # from an unassigned source, and a stale campaign's id.
                stranger.sendto(done("00000000-0", 999), coordinator)
                stranger.sendto(done("deadbeef-0", 999), coordinator)
                seen = []
                for index, result in backend.completions(
                    brief_double, tasks
                ):
                    seen.append((index, result))
                    # From the assigned worker's own socket: a replay
                    # of what just completed, and a stale campaign.
                    worker.sendto(done(f"00000000-{index}", 777), coordinator)
                    worker.sendto(done(f"deadbeef-{index}", 777), coordinator)
            assert seen == [(0, 2), (1, 4), (2, 6)]
        finally:
            stranger.close()

    def test_pushes_do_not_starve_liveness(self, fleet):
        """One black-holed worker, two pushing every 20 ms: the poll
        deadline is per worker, so the dead one is found on time and
        its task goes back to the *front* of the queue."""
        dead = fleet(count=1, cls=BlackHole)
        live = fleet(count=2)
        tasks = list(range(60))  # ~0.6 s of pushes from the live two
        poll_interval = 0.1
        backend = RemoteBackend(
            workers=dead + live,
            poll_interval=poll_interval,
            request_timeout=0.05,
            request_retries=0,
        )
        finished = {}
        with backend:
            started = time.monotonic()
            order = []
            for index, result in backend.completions(brief_double, tasks):
                assert result == 2 * index
                order.append(index)
                finished[index] = time.monotonic() - started
            metrics = backend.metrics
            assert metrics.value("exec.remote.buried") == 1
            assert metrics.value("exec.remote.requeued") == 1
        assert sorted(order) == tasks
        # Task 0 went to the black hole.  Found dead at one interval
        # plus one request timeout, rerun next: long before the live
        # workers' pushes dry up (when a starved poll would fire).
        assert finished[0] < 2 * poll_interval + 0.2
        assert order.index(0) < len(order) - 20

    def test_status_counts_every_push_that_arrived(self):
        """A ``status`` read after a push arrived counts that push."""
        daemon, arrived = WorkerDaemon(("127.0.0.1", 0)), []

        def sendto(data, addr):
            arrived.append(data)
            time.sleep(0)  # the datagram is out; let the reader run
            return True

        daemon.sendto = sendto
        pusher = threading.Thread(target=lambda: [
            daemon._push(b"", ("127.0.0.1", 9)) for _ in range(500)])
        interval, behind = sys.getswitchinterval(), 0
        sys.setswitchinterval(1e-6)
        try:
            pusher.start()
            while pusher.is_alive():
                seen = len(arrived)
                behind += daemon._status_body()["pushes_sent"] < seen
            pusher.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not pusher.is_alive() and behind == 0
        assert daemon._status_body()["pushes_sent"] == 500


class TestSweepCli:
    def test_remote_sweep_prints_the_scheduling_summary(
        self, fleet, capsys, tmp_path
    ):
        """...and the archived JSON stays what the inline sweep writes."""
        from repro.cli import main

        addrs = fleet(count=2)
        sweep = ["sweep", "--seeds", "3", "--n", "40", "--m", "10"]
        remote_out = str(tmp_path / "remote.json")
        inline_out = str(tmp_path / "inline.json")
        workers = ",".join(f"{host}:{port}" for host, port in addrs)
        assert main(sweep + ["--workers", workers, "--out", remote_out]) == 0
        out = capsys.readouterr().out
        assert "remote backend     : 3 completions (" in out
        assert main(sweep + ["--backend", "inline", "--out", inline_out]) == 0
        assert "remote backend" not in capsys.readouterr().out
        assert Path(remote_out).read_bytes() == Path(inline_out).read_bytes()


class TestOversizedResult:
    def test_fleet_survives_a_result_no_datagram_can_carry(self, fleet):
        """Used to kill each worker in turn on its first ``poll``."""
        addrs = fleet(count=2)
        with RemoteBackend(workers=addrs, poll_interval=0.02) as backend:
            with pytest.raises(RemoteTaskError, match="OversizedMessageError"):
                backend.map(big_string, [70_000])
            assert backend.metrics.value("exec.remote.buried") == 0
        with ControlClient(timeout=1.0, retries=1) as client:
            for addr in addrs:
                assert client.request(addr, "ping") == {"ok": True}


class TestRemoteAcceptance:
    """Real ``repro worker`` subprocesses, including a SIGKILL."""

    def spawn_worker(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=str(REPO_ROOT),
            env=env,
            text=True,
        )
        line = proc.stdout.readline()
        ready = parse_ready_line(line)
        assert ready is not None and ready["kind"] == "worker", line
        return proc, ("127.0.0.1", int(ready["port"]))

    def test_kill_dash_nine_mid_sweep_preserves_the_result(self):
        procs, addrs = [], []
        for _ in range(2):
            proc, addr = self.spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        try:
            tasks = list(range(6))
            backend = RemoteBackend(
                workers=addrs,
                request_timeout=0.3,
                request_retries=1,
                poll_interval=0.05,
            )
            killer = threading.Timer(
                0.45, lambda: os.kill(procs[0].pid, signal.SIGKILL)
            )
            killer.start()
            try:
                with backend:
                    results = backend.map(sleepy_double, tasks)
            finally:
                killer.cancel()
            # The kill moved tasks between sockets, never changed the
            # merged result: the engine's cross-backend guarantee.
            assert results == [2 * t for t in tasks]
            assert procs[0].wait(timeout=5.0) != 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=5.0)
                proc.stdout.close()
