"""Module-level task functions for the execution-engine tests.

They live in their own importable module (not in a test file) because
every backend except the inline one must move the function across a
process boundary -- the pool by pickling it, the remote backend by
naming it on the wire (``tests.exec.task_fns:double``) for workers to
re-import.
"""

import os
import time


def double(x):
    """The canonical pure task: ``2 * x``."""
    return 2 * x


def boom(x):
    """Raises on ``x == 3`` -- a deterministic task *error* (as opposed
    to a worker *death*), which no backend should retry."""
    if x == 3:
        raise ValueError("task 3 always fails")
    return 2 * x


def crash_once(task):
    """Kill the hosting worker process the first time the sentinel
    task runs; succeed on retry.

    ``task`` is ``(value, sentinel_path)``; an empty sentinel path
    marks a well-behaved task.  The sentinel file is created *before*
    dying so the retried attempt (and the inline reference run) sees
    it and returns normally.
    """
    value, sentinel = task
    if sentinel and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("crashed")
        os._exit(1)
    return 2 * value


def always_crash(x):
    """Kill the hosting worker process unconditionally (a poison task
    that must exhaust ``max_attempts``)."""
    os._exit(1)


def sleepy_double(x):
    """``2 * x`` after a wall-clock pause -- long enough for a test to
    kill the hosting worker mid-task."""
    time.sleep(0.3)
    return 2 * x


def brief_double(x):
    """``2 * x`` after 20 ms -- a task short against every poll
    interval the push-path tests use, long against a datagram."""
    time.sleep(0.02)
    return 2 * x


def big_string(n):
    """``n`` characters -- past 65507 it cannot ride in one datagram."""
    return "x" * n
