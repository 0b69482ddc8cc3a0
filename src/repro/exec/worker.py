"""``repro worker``: one sweep executor daemon per OS process.

The distributed counterpart of a process-pool worker: a small UDP
server that accepts one task at a time from a
:class:`~repro.exec.remote.RemoteBackend`, runs it on a dedicated
thread, and serves the result back -- all over the ``c``/``r`` control
frames of :mod:`repro.net.wire`, the same out-of-band protocol the
node daemons and the rendezvous service speak.

=========  ==========================================  ================
op         body                                        response
=========  ==========================================  ================
hello      --                                          ``kind=worker``
submit     ``tid``, ``fn`` (task name), ``task``       ``accepted`` |
                                                       ``busy``
poll       ``tid``                                     ``state`` =
                                                       running/done/
                                                       error/unknown
status     --                                          roster row
ping       --                                          ``ok``
stop       --                                          ``ok`` (exits)
*done*     ``tid`` + a ``poll`` response's fields      none: worker ->
                                                       coordinator
=========  ==========================================  ================

``done`` is the one frame a worker sends unasked: once, when a task
finishes, to the address its ``submit`` came from -- *after* the
result is cached and the slot is free, so the coordinator's refill
``submit`` cannot bounce ``busy``.  The push is an optimisation, never
the protocol: nobody acknowledges or retransmits it, and a lost one
costs the coordinator one ``poll``.

Determinism and loss tolerance come from idempotence, not ordering:
``submit`` dedupes by task id (a retried datagram is re-acknowledged,
never re-run), finished results are kept in a bounded cache so a lost
``poll`` response costs one retry, and tasks are self-seeding so a
coordinator that re-queues an in-flight task to another worker gets
the byte-identical result.  A result too large for one datagram is
stored as a task *error* (``OversizedMessageError``): the coordinator
fails the campaign deterministically and the worker lives.

The socket side is the :class:`~repro.net.control.ControlServer` loop
the rendezvous directory also runs; its ``tick`` hook is the
heartbeat.  With ``--rendezvous`` the worker announces itself
(``kind="worker"``, never an S-node) as the loop starts and every
``--announce-interval`` seconds, which is how backends discover
rosters and how ``repro top`` lists workers alongside cluster daemons.
On startup the daemon prints::

    REPRO-NET READY kind=worker id=<id> host=<host> port=<port>
"""

from __future__ import annotations

import collections
import functools
import queue
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.exec.registry import resolve_task
from repro.exec.taskcodec import decode_task_value, encode_task_value
from repro.ids.idspace import IdSpace
from repro.net.control import ControlHandler, ControlServer, ready_line
from repro.net.wire import Address, ctl_frame, encode_frame, node_id_to_wire

#: Finished results kept for re-polls (bounded; oldest evicted).
MAX_CACHED_RESULTS = 128

#: A task error's message is cut, and a task id refused, past these:
#: an error entry must itself fit a datagram.
MAX_ERROR_CHARS = 2000
MAX_TID_CHARS = 200

#: Seconds between rendezvous re-announcements.
DEFAULT_ANNOUNCE_INTERVAL = 15.0


class WorkerDaemon(ControlServer):
    """One sweep worker: the control server's loop plus a task thread;
    :meth:`handle` is unit-testable without a socket."""

    kind = "worker"

    def __init__(
        self,
        listen: Address,
        rendezvous: Optional[Address] = None,
        announce_interval: float = DEFAULT_ANNOUNCE_INTERVAL,
    ):
        super().__init__(listen)
        self.rendezvous = rendezvous
        self.announce_interval = announce_interval
        self.worker_id = None
        self.tasks_done = 0
        self.tasks_failed = 0
        self.pushes_sent = 0
        # (tid, fn name, encoded task, where to push ``done``).
        self._queue: (
            "queue.Queue[Optional[Tuple[str, str, Any, Optional[Address]]]]"
        ) = queue.Queue()
        self._results: "collections.OrderedDict[str, Dict[str, Any]]" = (
            collections.OrderedDict()
        )
        self._current: Optional[str] = None
        self._lock = threading.Lock()
        self._runner: Optional[threading.Thread] = None
        self._started_at = time.monotonic()
        self._last_announce = float("-inf")
        self._next_rid = 0

    # -- lifecycle ------------------------------------------------------

    def open(self) -> Address:
        """Bind the socket, derive the worker id, start the task
        thread; returns the bound address."""
        host, port = super().open()
        # A worker is not a protocol node, but the rendezvous directory
        # keys registrations by NodeId -- hash the address into the
        # default id space so every worker has a distinct, stable row.
        self.worker_id = IdSpace(16, 8).hash_name(f"worker:{host}:{port}")
        self._runner = threading.Thread(
            target=self._run_tasks, name="repro-worker-tasks", daemon=True
        )
        self._runner.start()
        return self.listen

    def ready_line(self) -> str:
        """The READY line, with the worker id."""
        return ready_line(self.kind, self.listen, self.worker_id)

    def handler(self) -> ControlHandler:
        """:meth:`handle` with every source marked ``reachable``."""
        return functools.partial(self.handle, reachable=True)

    def tick(self) -> None:
        """Heartbeat the rendezvous every ``announce_interval``."""
        now = time.monotonic()
        if now - self._last_announce >= self.announce_interval:
            self._send_control("announce", s=False, kind="worker")
            self._last_announce = now

    def close(self) -> None:
        """Stop serving, retire the task thread, release the socket."""
        self.stop()
        self._queue.put(None)
        if self._runner is not None:
            self._runner.join(timeout=2.0)
            self._runner = None
        self._send_control("remove")
        super().close()

    # -- control ops ----------------------------------------------------

    def handle(
        self,
        op: str,
        body: Dict[str, Any],
        addr: Address,
        reachable: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """Process one control op; returns the response body.

        ``reachable`` says ``addr`` is a datagram's source as the
        socket reported it (only :meth:`handler` sets it): a
        ``submit`` remembers just such addresses for its ``done``
        push, so a made-up one is never resolved on the task thread.
        """
        if op == "hello":
            return {
                "ok": True,
                "kind": "worker",
                "id": node_id_to_wire(self.worker_id),
                "busy": self._current is not None,
            }
        if op == "submit":
            return self._handle_submit(body, addr if reachable else None)
        if op == "poll":
            return self._handle_poll(body)
        if op == "status":
            return self._status_body()
        if op == "ping":
            return {"ok": True}
        if op == "stop":
            self.stop()
            return {"ok": True}
        return {"error": f"unknown op: {op}"}

    def _handle_submit(
        self, body: Dict[str, Any], origin: Optional[Address]
    ) -> Dict[str, Any]:
        tid = str(body["tid"])
        if len(tid) > MAX_TID_CHARS:
            return {"error": "tid too long"}  # it rides in every reply
        with self._lock:
            if tid == self._current or tid in self._results:
                return {"accepted": True}  # duplicate datagram: re-ack
            if self._current is not None:
                return {"busy": True}
            self._current = tid
        self._queue.put((tid, str(body["fn"]), body.get("task"), origin))
        return {"accepted": True}

    def _handle_poll(self, body: Dict[str, Any]) -> Dict[str, Any]:
        tid = str(body["tid"])
        with self._lock:
            entry = self._results.get(tid)
            if entry is not None:
                return dict(entry)
            if tid == self._current:
                return {"state": "running"}
        return {"state": "unknown"}

    def _status_body(self) -> Dict[str, Any]:
        busy = self._current is not None
        with self._lock:
            pushes_sent = self.pushes_sent
        return {
            "kind": "worker",
            "id": node_id_to_wire(self.worker_id),
            "status": "wrk-busy" if busy else "wrk-idle",
            "s": False,
            "now": round(time.monotonic() - self._started_at, 3),
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
            "pushes_sent": pushes_sent,
            "telemetry": False,
        }

    # -- task execution -------------------------------------------------

    def _run_tasks(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            tid, fn_name, task_obj, origin = item
            try:
                fn = resolve_task(fn_name)
                task = decode_task_value(task_obj)
                entry = {
                    "state": "done",
                    "result": encode_task_value(fn(task)),
                }
                # Encoded once: the bytes of the push, and the size
                # check every later ``poll`` response relies on (an
                # OversizedMessageError here is reported like any
                # other task failure).
                push = self._done_frame(tid, entry)
            except Exception as exc:  # noqa: BLE001 - reported to coordinator
                entry = {
                    "state": "error",
                    "error": f"{type(exc).__name__}: {exc}"[
                        :MAX_ERROR_CHARS
                    ],
                }
                push = self._done_frame(tid, entry)
            with self._lock:
                self._results[tid] = entry
                while len(self._results) > MAX_CACHED_RESULTS:
                    self._results.popitem(last=False)
                if entry["state"] == "done":
                    self.tasks_done += 1
                else:
                    self.tasks_failed += 1
                self._current = None
            if origin is not None:
                self._push(push, origin)

    @staticmethod
    def _done_frame(tid: str, entry: Dict[str, Any]) -> bytes:
        """The ``done`` push for a finished task (request id 0: no
        response is expected).  Raises ``OversizedMessageError`` for a
        result no datagram can carry; a ``poll`` response is the same
        entry under a smaller envelope, so what fits here fits there."""
        return encode_frame(ctl_frame(0, "done", {"tid": tid, **entry}))

    def _push(self, data: bytes, origin: Address) -> None:
        """Fire-and-forget: the result is already cached for ``poll``.
        The send and its count are one step under ``_lock``, so a
        ``status`` answered after the push arrived counts it."""
        with self._lock:
            if self.sendto(data, origin):
                self.pushes_sent += 1

    # -- rendezvous -----------------------------------------------------

    def _send_control(self, op: str, **extra: Any) -> None:
        """Fire-and-forget a control request about this worker to the
        rendezvous (the response lands on our socket and is ignored)."""
        if self.rendezvous is None or self._sock is None:
            return
        self._next_rid += 1
        body = {"id": node_id_to_wire(self.worker_id), **extra}
        frame = ctl_frame(self._next_rid, op, body)
        self.sendto(encode_frame(frame), self.rendezvous)


__all__ = [
    "DEFAULT_ANNOUNCE_INTERVAL",
    "MAX_CACHED_RESULTS",
    "WorkerDaemon",
]
