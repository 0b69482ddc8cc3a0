"""Pins of the two control-only servers as ``repro`` starts them.

``repro rendezvous`` and ``repro worker`` run as real subprocesses.
Each one's first stdout line must be its exact READY line, and a
scripted :class:`~repro.net.control.ControlClient` conversation must
get exactly the response bodies below.  Hosts, ports and the worker's
id are normalised; everything else is compared as it came off the
wire.  The transcripts were recorded before the two servers shared one
serve loop, so they pin that the refactor moved nothing observable.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.exec.registry import task_name
from repro.exec.taskcodec import encode_task_value
from repro.ids.idspace import IdSpace
from repro.net.control import ControlClient
from repro.net.wire import node_id_from_wire, node_id_to_wire
from tests.exec.task_fns import double

REPO_ROOT = Path(__file__).resolve().parents[2]

SPACE = IdSpace(4, 4)

RENDEZVOUS_READY = re.compile(
    r"REPRO-NET READY kind=rendezvous host=(\S+) port=(\d+)"
)
WORKER_READY = re.compile(
    r"REPRO-NET READY kind=worker id=(\S+) host=(\S+) port=(\d+)"
)

ID_A = node_id_to_wire(SPACE.from_string("0123"))
ID_B = node_id_to_wire(SPACE.from_string("3210"))

RENDEZVOUS_SCRIPT = [
    ("announce", {"id": ID_A, "s": True}),
    ("announce", {"id": ID_B, "s": True, "kind": "node"}),
    ("peers", {}),
    ("resolve", {"id": ID_A}),
    ("resolve", {"id": node_id_to_wire(SPACE.from_string("2222"))}),
    ("directory", {}),
    ("remove", {"id": ID_A}),
    ("ping", {}),
    ("wat", {}),
    ("stop", {}),
]

RENDEZVOUS_TRANSCRIPT = [
    {"ok": True, "peers": []},
    {"ok": True, "peers": [[ID_A, "<client>"]]},
    {"peers": [[ID_A, "<client>"], [ID_B, "<client>"]]},
    {"addr": "<client>"},
    {"addr": None},
    {"nodes": [[ID_A, "<client>", True, "node"],
               [ID_B, "<client>", True, "node"]]},
    {"ok": True},
    {"ok": True, "nodes": 1},
    {"error": "unknown op: wat"},
    {"ok": True},
]

WORKER_TRANSCRIPT = [
    ("hello", {"ok": True, "kind": "worker", "id": "<id>", "busy": False}),
    ("submit", {"accepted": True}),
    ("done", {"tid": "t1", "state": "done", "result": 42}),
    ("poll", {"state": "done", "result": 42}),
    ("status", {
        "kind": "worker",
        "id": "<id>",
        "status": "wrk-idle",
        "s": False,
        "now": "<now>",
        "tasks_done": 1,
        "tasks_failed": 0,
        "pushes_sent": 1,
        "telemetry": False,
    }),
    ("ping", {"ok": True}),
    ("stop", {"ok": True}),
]


def spawn(*argv):
    """Start ``python -m repro ARGV``; returns the process and its
    first stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=str(REPO_ROOT),
        env=env,
        text=True,
    )
    return proc, proc.stdout.readline().rstrip("\n")


def normalise(value, replacements):
    """``value`` with every sub-value found in ``replacements`` (a list
    of ``(value, placeholder)`` pairs) swapped for its placeholder."""
    for original, placeholder in replacements:
        if value == original:
            return placeholder
    if isinstance(value, dict):
        return {k: normalise(v, replacements) for k, v in value.items()}
    if isinstance(value, list):
        return [normalise(v, replacements) for v in value]
    return value


def finish(proc):
    """The exit code of a server told to ``stop``."""
    try:
        return proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_rendezvous_ready_line_and_transcript():
    proc, ready = spawn("rendezvous", "--listen", "127.0.0.1:0")
    try:
        match = RENDEZVOUS_READY.fullmatch(ready)
        assert match, ready
        addr = (match.group(1), int(match.group(2)))
        with ControlClient(timeout=2.0, retries=2) as client:
            client_addr = list(client._sock.getsockname()[:2])
            transcript = [
                normalise(
                    client.request(addr, op, body),
                    [(client_addr, "<client>")],
                )
                for op, body in RENDEZVOUS_SCRIPT
            ]
    finally:
        code = finish(proc)
    assert transcript == RENDEZVOUS_TRANSCRIPT
    assert code == 0


def test_worker_ready_line_and_transcript():
    proc, ready = spawn("worker", "--listen", "127.0.0.1:0")
    try:
        match = WORKER_READY.fullmatch(ready)
        assert match, ready
        addr = (match.group(2), int(match.group(3)))
        transcript = []
        with ControlClient(timeout=2.0, retries=2) as client:
            hello = client.request(addr, "hello")
            assert str(node_id_from_wire(hello["id"])) == match.group(1)
            replacements = [(hello["id"], "<id>")]
            transcript.append(("hello", hello))
            transcript.append(("submit", client.request(
                addr,
                "submit",
                {
                    "tid": "t1",
                    "fn": task_name(double),
                    "task": encode_task_value(21),
                },
            )))
            op, body, _ = client.wait(timeout=10.0)
            transcript.append((op, body))
            transcript.append(("poll", client.request(
                addr, "poll", {"tid": "t1"}
            )))
            status = client.request(addr, "status")
            assert isinstance(status.pop("now"), float)
            transcript.append(("status", {**status, "now": "<now>"}))
            for op in ("ping", "stop"):
                transcript.append((op, client.request(addr, op)))
            transcript = [
                (op, normalise(body, replacements))
                for op, body in transcript
            ]
    finally:
        code = finish(proc)
    assert transcript == WORKER_TRANSCRIPT
    assert code == 0
