"""Runtime contract conformance: both adapters, one test suite."""

import pytest

from repro.runtime import RUNTIME_KINDS, create_runtime
from repro.runtime.interface import Runtime, SchedulingError, TimerHandle


@pytest.fixture(params=RUNTIME_KINDS)
def runtime(request):
    rt = create_runtime(
        request.param,
        # Fast wall clock for the asyncio adapter; "sim" takes no options.
        **({"time_scale": 0.0001} if request.param == "asyncio" else {}),
    )
    yield rt
    close = getattr(rt, "close", None)
    if close is not None:
        close()


class TestFactory:
    def test_kinds(self):
        assert create_runtime("sim").name == "sim"
        with create_runtime("asyncio") as rt:
            assert rt.name == "asyncio"

    def test_default_is_sim(self):
        assert create_runtime().name == "sim"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime kind"):
            create_runtime("trio")

    def test_sim_runtime_is_a_simulator(self):
        """The virtual adapter *is* the simulator (zero indirection on
        the hot path), so golden traces cannot shift."""
        from repro.sim.scheduler import Simulator

        assert isinstance(create_runtime("sim"), Simulator)

    def test_bare_simulator_satisfies_contract(self):
        """Structural typing: pre-refactor code constructing
        ``Transport(Simulator(), ...)`` still satisfies Runtime."""
        from repro.sim.scheduler import Simulator

        assert isinstance(Simulator(), Runtime)


class TestContract:
    def test_satisfies_runtime_protocol(self, runtime):
        assert isinstance(runtime, Runtime)

    def test_schedule_runs_action(self, runtime):
        ran = []
        runtime.schedule(1.0, ran.append, "payload")
        runtime.schedule(2.0, lambda: ran.append("thunk"))
        assert runtime.run() == 2
        assert ran == ["payload", "thunk"]
        assert runtime.quiesced()

    def test_timer_handle_cancel(self, runtime):
        ran = []
        handle = runtime.schedule(1.0, ran.append, "x")
        assert isinstance(handle, TimerHandle)
        handle.cancel()
        assert handle.cancelled
        runtime.run()
        assert ran == []
        assert runtime.quiesced()

    def test_cancel_is_idempotent(self, runtime):
        handle = runtime.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        runtime.run()
        assert runtime.quiesced()

    def test_cancel_after_fire_is_noop(self, runtime):
        ran = []
        handle = runtime.schedule(0.5, ran.append, 1)
        runtime.run()
        handle.cancel()
        assert ran == [1]
        assert not handle.cancelled

    def test_now_advances(self, runtime):
        seen = []
        runtime.schedule(5.0, lambda: seen.append(runtime.now))
        runtime.run()
        assert seen and seen[0] >= 5.0

    def test_schedule_at(self, runtime):
        seen = []
        runtime.schedule_at(3.0, lambda: seen.append(runtime.now))
        runtime.run()
        assert seen and seen[0] >= 3.0

    def test_negative_delay_rejected(self, runtime):
        with pytest.raises(SchedulingError):
            runtime.schedule(-1.0, lambda: None)

    def test_max_events_bound(self, runtime):
        ran = []
        for i in range(5):
            runtime.schedule(float(i + 1), ran.append, i)
        assert runtime.run(max_events=2) == 2
        assert not runtime.quiesced()
        runtime.run()
        assert sorted(ran) == [0, 1, 2, 3, 4]

    def test_event_listener_chaining(self, runtime):
        first, second = [], []
        runtime.add_event_listener(lambda now, pending: first.append(pending))
        runtime.add_event_listener(lambda now, pending: second.append(pending))
        runtime.schedule(1.0, lambda: None)
        runtime.schedule(2.0, lambda: None)
        runtime.run()
        assert first == second == [1, 0]

    def test_run_not_reentrant(self, runtime):
        errors = []

        def reenter():
            try:
                runtime.run()
            except Exception as exc:  # noqa: BLE001 - recording for assert
                errors.append(exc)

        runtime.schedule(1.0, reenter)
        runtime.run()
        assert len(errors) == 1

    def test_actions_scheduled_during_run_execute(self, runtime):
        ran = []

        def chain(depth=3):
            ran.append(depth)
            if depth:
                runtime.schedule(1.0, lambda: chain(depth - 1))

        runtime.schedule(1.0, chain)
        runtime.run()
        assert ran == [3, 2, 1, 0]
        assert runtime.quiesced()


    def test_simultaneous_actions_run_in_scheduling_order(self, runtime):
        """Both runtimes fire one ``(time, seq)`` order: actions given
        one deadline run in the order they were scheduled."""
        ran = []
        deadline = runtime.now + 5.0
        for index in range(64):
            runtime.schedule_at(deadline, ran.append, index)
        runtime.run()
        assert ran == list(range(64))

    def test_listener_reads_the_running_count(self, runtime):
        seen = []
        runtime.add_event_listener(
            lambda now, pending: seen.append(runtime.events_fired)
        )
        for delay in (1.0, 2.0, 3.0):
            runtime.schedule(delay, lambda: None)
        runtime.run()
        runtime.schedule(1.0, lambda: None)
        runtime.run()
        assert seen == [1, 2, 3, 4]
        assert runtime.events_fired == 4

    def test_fire_and_batch_share_the_queue(self, runtime):
        ran = []
        runtime.schedule_fire(50.0, ran.append, "fire")
        handles = runtime.schedule_many(
            [(1.0, ran.append, "a"), (1.0, ran.append, "b")]
        )
        assert all(isinstance(handle, TimerHandle) for handle in handles)
        assert runtime.pending_events == 3
        handles[1].cancel()
        assert runtime.pending_events == 2
        assert runtime.run() == 2
        assert ran == ["a", "fire"]
        assert runtime.pending_events == 0
