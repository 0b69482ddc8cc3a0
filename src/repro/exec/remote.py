"""Multi-host backend: sweeps over ``repro worker`` daemons.

:class:`RemoteBackend` is the distributed implementation of the
:class:`~repro.exec.backend.ExecutionBackend` contract.  The
coordinator keeps the whole campaign state -- a FIFO of unassigned
task indices, one in-flight task per worker, per-task attempt counts
-- and drives it with idempotent control ops against each worker
(:mod:`repro.exec.worker`): ``submit`` a named task config (serialized
by :mod:`repro.exec.taskcodec` over the PR-4 tagged-JSON codec), then
block on the control socket until the worker *pushes* ``done`` with
the result, and refill that worker at once.

The push is an optimisation over an unchanged poll protocol.  A worker
not heard from for ``poll_interval`` seconds -- its push was lost, its
task is long, or it died -- is sent a ``poll``; the deadline is kept
**per worker**, so pushes streaming in from healthy workers never
postpone the poll that finds a dead one.  A ``done`` is believed only
from the address a task is assigned to and only for this campaign's
``nonce-index`` task id; anything else (a replay, a stale campaign, a
stranger) is dropped.  One task in flight per worker and one task per
datagram: a loopback control round trip is 0.1-0.2 ms against tasks of
tens of milliseconds, so neither a deeper pipeline nor batching has
anything left to hide (``docs/distributed.md``).

Workers come from an explicit roster (``--workers host:port,...``),
from the PR-6 rendezvous directory (registrations with
``kind="worker"``), or both.  **Worker death is survived, not
avoided**: a worker that stops answering is dropped from the roster
and its in-flight task is requeued at the *front* of the FIFO
(bounded by ``max_attempts``), so a kill -9 mid-sweep changes which
socket computed a task but never the merged result -- tasks are
self-seeding and the shared merge is by task index.

Task *errors* are different from worker *deaths*: a task that raises
on a live worker raises :class:`RemoteTaskError` at the coordinator
immediately (retrying a deterministic failure is pointless), exactly
as an exception aborts the pool backend.

``RemoteBackend.metrics`` counts what the loop did:
``exec.remote.completions{via=push|poll}``, ``exec.remote.requeued``,
``exec.remote.buried`` and the ``exec.remote.dispatch_latency_s``
histogram (completion seen -> that worker's next ``submit`` accepted).
"""

from __future__ import annotations

import collections
import os
import time
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.exec.backend import ExecutionBackend, ExecutionError
from repro.exec.registry import task_name
from repro.exec.taskcodec import decode_task_value, encode_task_value
from repro.net.control import ControlClient
from repro.net.rendezvous import read_directory
from repro.net.wire import Address, parse_hostport
from repro.obs.metrics import MetricsRegistry

T = TypeVar("T")
R = TypeVar("R")

#: Seconds a busy worker may stay silent before it is polled.
DEFAULT_POLL_INTERVAL = 0.15

#: Default bound on per-task attempts across worker deaths.
DEFAULT_MAX_ATTEMPTS = 3


class RemoteBackendError(ExecutionError):
    """The worker fleet cannot finish the campaign (no live workers
    left, or a task exhausted its attempts across worker deaths)."""


class RemoteTaskError(ExecutionError):
    """A task raised on a live worker (deterministic failure; not
    retried)."""


def _as_address(worker: Union[str, Address]) -> Address:
    if isinstance(worker, str):
        return parse_hostport(worker)
    return (worker[0], worker[1])


def discover_workers(
    client: ControlClient, rendezvous: Address
) -> List[Address]:
    """Live ``kind="worker"`` registrations in the rendezvous
    directory, sorted by id for a deterministic dispatch order."""
    rows = [
        (str(id_wire), addr)
        for id_wire, addr, kind in read_directory(client, rendezvous)
        if kind == "worker"
    ]
    rows.sort(key=lambda row: row[0])
    return [addr for _, addr in rows]


class RemoteBackend(ExecutionBackend):
    """Fan a campaign over ``repro worker`` daemons on real sockets."""

    name = "remote"

    def __init__(
        self,
        workers: Optional[Sequence[Union[str, Address]]] = None,
        rendezvous: Optional[Union[str, Address]] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        request_timeout: float = 1.0,
        request_retries: int = 2,
    ):
        self.workers = [_as_address(w) for w in (workers or [])]
        self.rendezvous = (
            _as_address(rendezvous) if rendezvous is not None else None
        )
        if not self.workers and self.rendezvous is None:
            raise ValueError(
                "RemoteBackend needs an explicit worker list and/or a "
                "rendezvous address to discover one"
            )
        self.max_attempts = max(1, max_attempts)
        self.poll_interval = poll_interval
        self.request_timeout = request_timeout
        self.request_retries = request_retries
        self._client: Optional[ControlClient] = None
        self.metrics = MetricsRegistry()
        self._m_done = {
            via: self.metrics.counter("exec.remote.completions", via=via)
            for via in ("push", "poll")
        }
        self._m_requeued = self.metrics.counter("exec.remote.requeued")
        self._m_buried = self.metrics.counter("exec.remote.buried")
        self._m_dispatch = self.metrics.histogram(
            "exec.remote.dispatch_latency_s"
        )

    # -- plumbing -------------------------------------------------------

    def _control(self) -> ControlClient:
        if self._client is None:
            self._client = ControlClient(
                timeout=self.request_timeout, retries=self.request_retries
            )
        return self._client

    def close(self) -> None:
        """Release the control socket."""
        if self._client is not None:
            self._client.close()
            self._client = None

    def roster(self) -> List[Address]:
        """The current worker roster: the explicit list plus any
        rendezvous-discovered workers (deduplicated, stable order)."""
        seen = list(self.workers)
        if self.rendezvous is not None:
            for addr in discover_workers(self._control(), self.rendezvous):
                if addr not in seen:
                    seen.append(addr)
        return seen

    # -- the scheduling loop --------------------------------------------

    def completions(
        self, fn: Callable[[T], R], tasks: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        """Dispatch every task to some live worker, yielding results
        as ``done`` pushes (or fallback polls) come back; requeue
        in-flight tasks of dead workers."""
        total = len(tasks)
        if total == 0:
            return
        name = task_name(fn)
        client = self._control()
        # Task ids are namespaced by a per-campaign nonce so a worker
        # still caching results from an earlier (aborted) run never
        # answers for this one.
        nonce = os.urandom(4).hex()
        pending: "collections.deque[int]" = collections.deque(range(total))
        assigned: Dict[Address, int] = {}
        #: When each assigned worker last answered anything.
        heard: Dict[Address, float] = {}
        #: Completion seen, refill not yet accepted (dispatch latency).
        freed: Dict[Address, float] = {}
        attempts = [0] * total
        dead: List[Address] = []
        roster = self._live_roster(dead)
        while pending or assigned:
            # Fill every idle worker (one in-flight task each).
            for worker in list(roster):
                if not pending:
                    break
                if worker in assigned:
                    continue
                index = pending.popleft()
                reply = client.try_request(
                    worker,
                    "submit",
                    {
                        "tid": f"{nonce}-{index}",
                        "fn": name,
                        "task": encode_task_value(tasks[index]),
                    },
                )
                if reply is None:
                    self._bury(worker, roster, dead)
                    pending.appendleft(index)
                elif reply.get("accepted"):
                    assigned[worker] = index
                    heard[worker] = time.monotonic()
                    if worker in freed:
                        self._m_dispatch.observe(
                            heard[worker] - freed.pop(worker)
                        )
                elif reply.get("busy"):
                    # Finishing someone else's task (or a stale one):
                    # leave it in the roster, try again next round.
                    pending.appendleft(index)
                elif reply.get("error"):
                    raise RemoteBackendError(
                        f"worker {worker[0]}:{worker[1]} rejected task "
                        f"{index}: {reply['error']}"
                    )
                else:
                    pending.appendleft(index)
            if not assigned:
                # Nothing in flight: either the fleet is empty or every
                # submit bounced.  Re-discover before giving up.
                roster = self._live_roster(dead)
                if not roster and (pending or assigned):
                    raise RemoteBackendError(
                        f"no live workers left with {len(pending)} "
                        f"task(s) unfinished (dead: "
                        f"{[f'{h}:{p}' for h, p in dead]})"
                    )
                time.sleep(self.poll_interval)
                continue
            # Block for a push, but only until the quietest assigned
            # worker is due its liveness poll (already due: wait() just
            # drains the inbox).
            due = min(heard[w] for w in assigned) + self.poll_interval
            push = client.wait(due - time.monotonic())
            if push is None:
                now = time.monotonic()
                arrivals = [
                    (worker, None)
                    for worker in assigned
                    if heard[worker] + self.poll_interval <= now
                ]
            else:
                op, body, worker = push
                index = assigned.get(worker)
                if (
                    op != "done"
                    or index is None
                    or body.get("tid") != f"{nonce}-{index}"
                ):
                    continue  # a replay, a stale campaign, a stranger
                arrivals = [(worker, body)]
            for worker, reply in arrivals:
                index = assigned[worker]
                via = "push"
                if reply is None:  # overdue, not pushed: ask
                    via = "poll"
                    reply = client.try_request(
                        worker, "poll", {"tid": f"{nonce}-{index}"}
                    )
                if reply is None:
                    # Worker death: requeue at the front so recovery
                    # happens before new work is taken on.
                    del assigned[worker]
                    self._bury(worker, roster, dead)
                    self._requeue(index, attempts, pending, worker)
                    continue
                heard[worker] = time.monotonic()
                state = reply.get("state")
                if state == "done":
                    del assigned[worker]
                    freed[worker] = heard[worker]
                    self._m_done[via].inc()
                    yield index, decode_task_value(reply.get("result"))
                elif state == "error":
                    raise RemoteTaskError(
                        f"task {index} failed on worker "
                        f"{worker[0]}:{worker[1]}: {reply.get('error')}"
                    )
                elif state == "unknown":
                    # The worker restarted (fresh cache) or never saw
                    # the submit: treat like a death of the assignment.
                    del assigned[worker]
                    self._requeue(index, attempts, pending, worker)
                # else "running": keep waiting.

    def summary(self) -> str:
        """One line on what the scheduling loop did so far."""
        pushed = self._m_done["push"].value
        polled = self._m_done["poll"].value
        line = (
            f"{pushed + polled} completions ({pushed} pushed, "
            f"{polled} polled), {self._m_requeued.value} requeued, "
            f"{self._m_buried.value} buried"
        )
        if self._m_dispatch.count:
            line += (
                f", dispatch p50 "
                f"{self._m_dispatch.quantile(0.5) * 1000.0:.2f} ms"
            )
        return line

    # -- helpers --------------------------------------------------------

    def _live_roster(self, dead: List[Address]) -> List[Address]:
        return [w for w in self.roster() if w not in dead]

    def _bury(
        self, worker: Address, roster: List[Address], dead: List[Address]
    ) -> None:
        if worker in roster:
            roster.remove(worker)
        if worker not in dead:
            dead.append(worker)
            self._m_buried.inc()

    def _requeue(
        self,
        index: int,
        attempts: List[int],
        pending: "collections.deque[int]",
        worker: Address,
    ) -> None:
        attempts[index] += 1
        if attempts[index] >= self.max_attempts:
            raise RemoteBackendError(
                f"task {index} lost {attempts[index]} worker(s) "
                f"(last: {worker[0]}:{worker[1]}; max_attempts="
                f"{self.max_attempts})"
            )
        self._m_requeued.inc()
        pending.appendleft(index)


__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_POLL_INTERVAL",
    "RemoteBackend",
    "RemoteBackendError",
    "RemoteTaskError",
    "discover_workers",
]
