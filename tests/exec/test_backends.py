"""Execution-backend contract tests: the merge invariant, the
factories, and the pool backend's crash-requeue path."""

import pytest

from repro.exec import (
    BACKEND_NAMES,
    ExecutionBackend,
    ExecutionError,
    InlineBackend,
    create_backend,
)
from repro.exec.pool import ProcessPoolBackend, WorkerCrashError
from tests.exec.task_fns import always_crash, boom, crash_once, double


class TestContract:
    def test_inline_map_is_the_plain_loop(self):
        backend = InlineBackend()
        assert backend.map(double, [1, 2, 3]) == [2, 4, 6]
        assert backend.map(double, []) == []

    def test_progress_reports_every_completion(self):
        calls = []
        InlineBackend().map(
            double, [5, 6], progress=lambda done, total: calls.append(
                (done, total)
            )
        )
        assert calls == [(1, 2), (2, 2)]

    def test_merge_rejects_duplicate_completions(self):
        class DoubleYield(ExecutionBackend):
            """Broken backend: completes task 0 twice."""

            name = "broken"

            def completions(self, fn, tasks):
                """Yield index 0 twice."""
                yield 0, fn(tasks[0])
                yield 0, fn(tasks[0])

        with pytest.raises(ExecutionError, match="twice"):
            DoubleYield().map(double, [1, 2])

    def test_merge_rejects_missing_completions(self):
        class Lossy(ExecutionBackend):
            """Broken backend: silently drops every task but the first."""

            name = "lossy"

            def completions(self, fn, tasks):
                """Yield only index 0."""
                yield 0, fn(tasks[0])

        with pytest.raises(ExecutionError, match="missing"):
            Lossy().map(double, [1, 2, 3])

    def test_context_manager_closes(self):
        closed = []

        class Tracked(InlineBackend):
            """Inline backend that records close() calls."""

            def close(self):
                """Record the close."""
                closed.append(True)

        with Tracked() as backend:
            backend.map(double, [1])
        assert closed == [True]


class TestFactories:
    def test_create_backend_names(self):
        assert isinstance(create_backend("inline"), InlineBackend)
        pool = create_backend("pool", jobs=2)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.jobs == 2
        assert set(BACKEND_NAMES) == {"inline", "pool", "remote"}

    def test_create_backend_passthrough_and_unknown(self):
        backend = InlineBackend()
        assert create_backend(backend) is backend
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("threads")

    def test_create_backend_selection_rule(self, monkeypatch):
        import os

        from repro.exec.remote import RemoteBackend

        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        # Workers or a rendezvous mean remote, whatever jobs says.
        remote = create_backend(jobs=1, workers=["127.0.0.1:7001"])
        assert isinstance(remote, RemoteBackend)
        assert isinstance(
            create_backend(jobs=4, rendezvous="127.0.0.1:9000"),
            RemoteBackend,
        )
        # Else one job runs inline, more (or 0/None: every CPU) pool.
        assert isinstance(create_backend(jobs=1), InlineBackend)
        for jobs, expected in ((3, 3), (0, 6), (None, 6)):
            pool = create_backend(jobs=jobs)
            assert isinstance(pool, ProcessPoolBackend)
            assert pool.jobs == expected
        # A name wins over the settings.
        assert isinstance(create_backend("inline", jobs=4), InlineBackend)
        assert create_backend("pool", jobs=1).jobs == 1
        with pytest.raises(ValueError, match="jobs"):
            create_backend(jobs=-1)
        with pytest.raises(ValueError, match="rendezvous"):
            create_backend("remote")
        # An empty roster is still a roster: remote, which refuses it.
        with pytest.raises(ValueError, match="rendezvous"):
            create_backend(jobs=4, workers=[])


class TestPoolBackend:
    def test_matches_inline_with_chunking(self):
        tasks = list(range(11))
        with ProcessPoolBackend(jobs=3, chunksize=2) as pool:
            assert pool.map(double, tasks) == [double(t) for t in tasks]

    def test_single_task_short_circuits_inline(self):
        with ProcessPoolBackend(jobs=4) as pool:
            assert pool.map(double, [21]) == [42]

    def test_task_exception_propagates(self):
        with ProcessPoolBackend(jobs=2, chunksize=1) as pool:
            with pytest.raises(ValueError, match="task 3"):
                pool.map(boom, [1, 2, 3, 4])

    def test_worker_crash_is_retried_to_the_correct_result(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        tasks = [(value, sentinel if value == 2 else "")
                 for value in range(6)]
        with ProcessPoolBackend(jobs=2, chunksize=2) as pool:
            results = pool.map(crash_once, tasks)
        # The crash changed scheduling, never the merged result.
        assert results == [2 * value for value in range(6)]

    def test_poison_task_exhausts_attempts(self):
        with ProcessPoolBackend(jobs=2, max_attempts=2) as pool:
            with pytest.raises(WorkerCrashError, match="attempts"):
                pool.map(always_crash, [1, 2, 3, 4])
