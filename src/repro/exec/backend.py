"""The execution-backend contract of the sweep engine.

Every evaluation artifact in this repository is a ``seed x config``
simulation campaign: a list of self-seeding, picklable task configs
mapped through a pure task function.  This module defines the contract
that lets any campaign run on any substrate:

* :class:`ExecutionBackend` -- submit tasks, **stream completions**
  (arbitrary order, tagged with the task index), and let the shared
  :meth:`ExecutionBackend.map` reassemble them **deterministically in
  task order**.  Because tasks are self-seeding and the merge is
  order-stable, ``backend.map(fn, tasks)`` equals ``[fn(t) for t in
  tasks]`` for *every* backend -- the cross-backend equality property
  the backend tests and the ``campaign`` benchmark assert.
* :class:`InlineBackend` -- the serial in-process path: no executor,
  no pickling, byte-for-byte the plain loop.  Every campaign function
  runs on it unless handed another backend.
* :func:`create_backend` -- the one place the backend-selection rule
  lives; the CLI (``--backend``/``--jobs``/``--workers``, also on
  ``repro reproduce``, the claims manifest) only parses its settings
  and calls it.

The other implementations live next door:
:class:`~repro.exec.pool.ProcessPoolBackend` (single host, one worker
per core) and :class:`~repro.exec.remote.RemoteBackend` (a cluster of
``repro worker`` daemons over UDP).
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Progress callback: called as ``progress(done, total)`` from the
#: coordinating process after every completed task.
ProgressFn = Callable[[int, int], None]


class ExecutionError(RuntimeError):
    """A backend could not produce a complete, merged result set."""


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None or 0 means one worker per
    available CPU; negative values are rejected."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def default_chunksize(num_tasks: int, jobs: int) -> int:
    """Chunk so each worker sees a handful of submissions (4 per worker
    when tasks allow), balancing dispatch overhead against stragglers."""
    if num_tasks <= 0:
        return 1
    return max(1, num_tasks // (jobs * 4))


class ExecutionBackend:
    """Contract every execution substrate implements.

    Subclasses implement :meth:`completions` -- a generator yielding
    ``(task_index, result)`` pairs in *whatever order tasks finish* --
    and inherit :meth:`map`, which merges the stream back into task
    order and enforces the exactly-once invariant.  Keeping the merge
    in one place is what makes the determinism guarantee a property of
    the *engine* rather than of each backend.
    """

    #: Short name (the ``--backend`` spelling).
    name = "abstract"

    def completions(
        self, fn: Callable[[T], R], tasks: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        """Yield ``(index, fn(tasks[index]))`` for every task, in any
        completion order.  Each index must be yielded exactly once."""
        raise NotImplementedError

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        progress: Optional[ProgressFn] = None,
    ) -> List[R]:
        """``[fn(t) for t in tasks]`` computed on this backend.

        Streams :meth:`completions` and merges strictly by task index,
        so the output is independent of scheduling, chunking, worker
        count and completion order.  ``progress`` is invoked in the
        coordinating process after each completed task.
        """
        total = len(tasks)
        if total == 0:
            return []
        slots: List[object] = [_PENDING] * total
        done = 0
        for index, result in self.completions(fn, tasks):
            if not 0 <= index < total or slots[index] is not _PENDING:
                raise ExecutionError(
                    f"{self.name} backend completed task {index} twice "
                    f"(or out of range 0..{total - 1})"
                )
            slots[index] = result
            done += 1
            if progress is not None:
                progress(done, total)
        if done != total:
            missing = [i for i, slot in enumerate(slots) if slot is _PENDING]
            raise ExecutionError(
                f"{self.name} backend finished {done}/{total} tasks "
                f"(missing {missing})"
            )
        return slots  # type: ignore[return-value]

    def close(self) -> None:
        """Release any resources (sockets, executors).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Pending:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug sugar
        return "<pending>"


_PENDING = _Pending()


class InlineBackend(ExecutionBackend):
    """The serial in-process path: a plain loop, no executor, no
    pickling.  The reference every other backend must match."""

    name = "inline"

    def completions(
        self, fn: Callable[[T], R], tasks: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        """Run tasks one by one, in order, in this process."""
        for index, task in enumerate(tasks):
            yield index, fn(task)


#: ``--backend`` spellings accepted by :func:`create_backend`.
BACKEND_NAMES = ("inline", "pool", "remote")


def create_backend(
    spec: Optional[str] = None,
    jobs: Optional[int] = None,
    workers: Optional[Sequence] = None,
    rendezvous=None,
) -> ExecutionBackend:
    """The backend a campaign runs on.

    ``spec`` names it (``inline``, ``pool`` or ``remote``; an
    :class:`ExecutionBackend` passes through).  With no name the
    settings choose:

    * remote when a ``workers`` list (``(host, port)`` pairs or
      ``"host:port"`` strings) or a ``rendezvous`` is given, even an
      empty list (which the remote backend then refuses);
    * else inline for one job;
    * else the process pool with ``jobs`` workers (None or 0: one per
      CPU).

    The caller owns the result: close it, or use it as a context
    manager.  Negative ``jobs`` and a remote backend with neither
    workers nor a rendezvous raise :class:`ValueError`.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        if workers is not None or rendezvous is not None:
            spec = "remote"
        elif resolve_jobs(jobs) <= 1:
            spec = "inline"
        else:
            spec = "pool"
    if spec == "inline":
        return InlineBackend()
    if spec == "pool":
        from repro.exec.pool import ProcessPoolBackend

        return ProcessPoolBackend(jobs=jobs)
    if spec == "remote":
        from repro.exec.remote import RemoteBackend

        return RemoteBackend(workers=workers, rendezvous=rendezvous)
    raise ValueError(
        f"unknown backend {spec!r} (expected one of {BACKEND_NAMES})"
    )


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ExecutionError",
    "InlineBackend",
    "ProgressFn",
    "create_backend",
    "default_chunksize",
    "resolve_jobs",
]
