"""Single-host process-pool backend (one worker per core).

The :class:`~repro.exec.backend.ExecutionBackend` for one host, with
three load-bearing properties:

* **Chunked dispatch** -- tasks are submitted in contiguous chunks to
  amortize pickling and inter-process latency; chunking never changes
  results, only scheduling granularity.
* **Pool-initializer pinning** -- the task function (and anything a
  ``functools.partial`` closes over) is pickled once per *worker*
  through the pool initializer instead of once per *chunk*.
* **Crash resilience** -- a worker segfaulting or being OOM-killed
  breaks the pool (:class:`BrokenProcessPool`); the backend rebuilds
  it and requeues every task that was in flight, as singleton chunks
  so a poison task only burns its own retry budget.  Results stay
  merged deterministically by index, and :class:`WorkerCrashError` is
  raised only once some task has crashed the pool ``max_attempts``
  times.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.exec.backend import (
    ExecutionBackend,
    ExecutionError,
    default_chunksize,
    resolve_jobs,
)

T = TypeVar("T")
R = TypeVar("R")

#: Default bound on per-task attempts (1 initial + 2 retries).
DEFAULT_MAX_ATTEMPTS = 3


class WorkerCrashError(ExecutionError):
    """A task crashed its worker process on every allowed attempt."""


#: Worker-global task function, installed once per worker process by
#: :func:`_init_worker` so chunk submissions carry only the task list
#: -- the function (and anything closed over by a partial) is pickled
#: once per *worker* instead of once per *chunk*.
_worker_fn: Optional[Callable[..., Any]] = None


def _init_worker(fn: Callable[[T], R]) -> None:
    """Pool initializer: pin the task function in this worker."""
    global _worker_fn
    _worker_fn = fn


def _run_chunk_initialized(chunk: Sequence[T]) -> List[R]:
    """Worker-side body using the function installed by
    :func:`_init_worker`."""
    fn = _worker_fn
    assert fn is not None, "worker used before initializer ran"
    return [fn(task) for task in chunk]


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``jobs`` of None/0 means one worker per CPU; ``chunksize`` of None
    picks :func:`~repro.exec.backend.default_chunksize`.  ``jobs <= 1``
    (or a single task) short-circuits to the inline loop so trivial
    campaigns never pay for an executor.
    """

    name = "pool"

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunksize: Optional[int] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        self.jobs = resolve_jobs(jobs)
        self.chunksize = chunksize
        self.max_attempts = max(1, max_attempts)

    def completions(
        self, fn: Callable[[T], R], tasks: Sequence[T]
    ) -> Iterator[Tuple[int, R]]:
        """Dispatch chunks to the pool, yielding per-task completions
        as their chunk finishes; rebuild the pool and requeue on a
        worker crash."""
        total = len(tasks)
        if self.jobs <= 1 or total <= 1:
            for index, task in enumerate(tasks):
                yield index, fn(task)
            return
        chunksize = (
            self.chunksize
            if self.chunksize is not None
            else default_chunksize(total, self.jobs)
        )
        queue: List[List[int]] = [
            list(range(start, min(start + chunksize, total)))
            for start in range(0, total, chunksize)
        ]
        attempts: Dict[int, int] = {}
        while queue:
            crashed: List[List[int]] = []
            for index, result in self._one_pool_round(
                fn, tasks, queue, crashed
            ):
                yield index, result
            queue = self._requeue_crashed(crashed, attempts)

    def _one_pool_round(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        chunks: List[List[int]],
        crashed: List[List[int]],
    ) -> Iterator[Tuple[int, R]]:
        """Run ``chunks`` on one fresh pool; completed tasks are
        yielded, chunks lost to a broken pool collect in ``crashed``."""
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)),
            initializer=_init_worker,
            initargs=(fn,),
        )
        try:
            futures = {}
            for indices in chunks:
                try:
                    future = pool.submit(
                        _run_chunk_initialized,
                        [tasks[i] for i in indices],
                    )
                except BrokenProcessPool:
                    # Pool died while we were still submitting: the
                    # rest of the round goes straight to the requeue.
                    crashed.append(indices)
                    continue
                futures[future] = indices
            pending = set(futures)
            while pending:
                finished, pending = wait(
                    pending, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    indices = futures[future]
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        crashed.append(indices)
                        continue
                    for index, result in zip(indices, results):
                        yield index, result
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _requeue_crashed(
        self,
        crashed: List[List[int]],
        attempts: Dict[int, int],
    ) -> List[List[int]]:
        """The next round's chunk list: every crashed task as its own
        singleton chunk (isolating a poison task from its chunk mates),
        or :class:`WorkerCrashError` once one is out of attempts."""
        queue: List[List[int]] = []
        for indices in crashed:
            for index in sorted(indices):
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] >= self.max_attempts:
                    raise WorkerCrashError(
                        f"task {index} crashed its worker process on "
                        f"{attempts[index]} attempts (max_attempts="
                        f"{self.max_attempts})"
                    )
                queue.append([index])
        return queue


__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "ProcessPoolBackend",
    "WorkerCrashError",
]
