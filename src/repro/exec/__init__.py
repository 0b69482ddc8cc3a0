"""Backend-pluggable execution engine for simulation campaigns.

The paper's evaluation -- and every bench derived from it -- is a
``seed x config`` campaign: self-seeding, picklable task configs
mapped through a pure task function, merged deterministically in task
order.  This package makes *where* those tasks run a plug:

* :mod:`repro.exec.backend` -- the :class:`ExecutionBackend` contract,
  the serial :class:`InlineBackend`, and :func:`create_backend`, the
  one backend-selection rule.
* :mod:`repro.exec.pool` -- :class:`ProcessPoolBackend`: one worker
  per core on this host, chunked dispatch, initializer-pinned task
  function, crash-requeue with bounded per-task retries.
* :mod:`repro.exec.remote` -- :class:`RemoteBackend`: a fleet of
  ``repro worker`` daemons over UDP, discovered explicitly or via the
  rendezvous directory, surviving worker death by requeueing.
* :mod:`repro.exec.worker` -- the ``repro worker`` daemon itself.
* :mod:`repro.exec.taskcodec` / :mod:`repro.exec.registry` -- how
  configs, results and task functions cross the wire.

A campaign takes one backend and calls ``backend.map(fn, tasks)``;
the engine's invariant, asserted by the cross-backend tests and the
``campaign`` benchmark: for any backend ``b``,
``b.map(fn, tasks) == [fn(t) for t in tasks]``.

Names are resolved lazily (PEP 562) so importing the engine's contract
never drags in sockets or the experiment modules.
"""

from typing import TYPE_CHECKING

from repro.exec.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ExecutionError,
    InlineBackend,
    ProgressFn,
    create_backend,
    default_chunksize,
    resolve_jobs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.pool import ProcessPoolBackend, WorkerCrashError
    from repro.exec.registry import resolve_task, task_name
    from repro.exec.remote import (
        RemoteBackend,
        RemoteBackendError,
        RemoteTaskError,
        discover_workers,
    )
    from repro.exec.taskcodec import (
        TaskCodecError,
        decode_task_value,
        encode_task_value,
    )
    from repro.exec.worker import WorkerDaemon

_LAZY = {
    "ProcessPoolBackend": "repro.exec.pool",
    "WorkerCrashError": "repro.exec.pool",
    "resolve_task": "repro.exec.registry",
    "task_name": "repro.exec.registry",
    "TaskNotRegisteredError": "repro.exec.registry",
    "RemoteBackend": "repro.exec.remote",
    "RemoteBackendError": "repro.exec.remote",
    "RemoteTaskError": "repro.exec.remote",
    "discover_workers": "repro.exec.remote",
    "TaskCodecError": "repro.exec.taskcodec",
    "decode_task_value": "repro.exec.taskcodec",
    "encode_task_value": "repro.exec.taskcodec",
    "WorkerDaemon": "repro.exec.worker",
}

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ExecutionError",
    "InlineBackend",
    "ProcessPoolBackend",
    "ProgressFn",
    "RemoteBackend",
    "RemoteBackendError",
    "RemoteTaskError",
    "TaskCodecError",
    "TaskNotRegisteredError",
    "WorkerCrashError",
    "WorkerDaemon",
    "create_backend",
    "decode_task_value",
    "default_chunksize",
    "discover_workers",
    "encode_task_value",
    "resolve_jobs",
    "resolve_task",
    "task_name",
]


def __getattr__(name: str):
    """PEP 562 lazy resolution of the heavier submodules."""
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.exec' has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    """Advertise lazy names alongside the eager ones."""
    return sorted(set(globals()) | set(_LAZY))
