"""Wire names for task functions in the distributed sweep tier.

A :class:`~repro.exec.remote.RemoteBackend` cannot pickle a function
to a ``repro worker`` daemon the way a process pool can; it sends a
*name* and the worker resolves it locally.  The name is the function's
dotted spec, ``"package.module:function"``: any importable top-level
function, the same trust model as the process pool's
pickle-by-reference.  Workers execute whatever the coordinator names,
so -- exactly like a process pool or an SSH loop -- the sweep cluster
must only span machines you already control.

:func:`task_name` is the coordinator side and :func:`resolve_task`
the worker side.  Unresolvable callables (lambdas, closures, instance
methods) raise :class:`TaskNotRegisteredError` -- the same functions
pickle would reject for the pool backend.
"""

from __future__ import annotations

import importlib
from typing import Callable


class TaskNotRegisteredError(LookupError):
    """A task function/name the registry cannot map for the wire."""


def task_name(fn: Callable) -> str:
    """The wire name for ``fn``: its ``module:qualname`` dotted spec."""
    qualname = getattr(fn, "__qualname__", "")
    module = getattr(fn, "__module__", None)
    if module and qualname and "." not in qualname:
        return f"{module}:{qualname}"
    raise TaskNotRegisteredError(
        f"cannot name task function {fn!r} for the wire: use a "
        f"module-level function"
    )


def resolve_task(name: str) -> Callable:
    """The task function behind a wire name (worker side)."""
    if ":" not in name:
        raise TaskNotRegisteredError(
            f"unknown task name {name!r} (expected 'module:function')"
        )
    module_name, _, attr = name.partition(":")
    try:
        fn = getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise TaskNotRegisteredError(
            f"cannot resolve task spec {name!r}: {exc}"
        ) from None
    if not callable(fn):
        raise TaskNotRegisteredError(
            f"task spec {name!r} does not name a callable"
        )
    return fn


__all__ = [
    "TaskNotRegisteredError",
    "resolve_task",
    "task_name",
]
