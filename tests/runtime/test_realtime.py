"""AsyncioRuntime specifics; contract conformance lives in
``test_interface.py`` (shared with the virtual-time adapter)."""

import gc
import time
import weakref

import pytest

from repro.runtime import RUNTIME_KINDS, create_runtime
from repro.runtime.interface import WallClockBudgetExceeded
from repro.runtime.realtime import AsyncioRuntime

#: Fast wall clock for tests: one protocol unit is 0.1 ms.
FAST = 1e-4


class TestTimeScale:
    def test_must_be_positive(self):
        for bad in (0.0, -0.001):
            with pytest.raises(ValueError, match="time_scale"):
                AsyncioRuntime(time_scale=bad)

    def test_now_is_in_protocol_units(self):
        with AsyncioRuntime(time_scale=FAST) as runtime:
            time.sleep(0.01)  # 0.01 s = 100 protocol units at FAST
            assert runtime.now >= 50.0


class TestWallBudget:
    def test_non_quiescing_run_raises(self):
        with AsyncioRuntime(time_scale=FAST) as runtime:

            def tick() -> None:  # reschedules forever: never quiesces
                runtime.schedule(1.0, tick)

            runtime.schedule(0.0, tick)
            with pytest.raises(WallClockBudgetExceeded, match="quiesce"):
                runtime.run(wall_budget=0.05)

    def test_quick_run_fits_budget(self):
        with AsyncioRuntime(time_scale=FAST) as runtime:
            ran = []
            runtime.schedule(1.0, ran.append, "x")
            assert runtime.run(wall_budget=10.0) == 1
            assert ran == ["x"]
            assert runtime.quiesced()


class TestScheduleAt:
    def test_past_deadline_clamps_to_immediately(self):
        """Real time cannot rewind: joins started "at t=0" a moment
        after construction must run, not raise (unlike the sim)."""
        with AsyncioRuntime(time_scale=FAST) as runtime:
            time.sleep(0.005)  # ensure now is clearly past t=0
            assert runtime.now > 0.0
            ran = []
            runtime.schedule_at(0.0, ran.append, "late")
            runtime.run()
            assert ran == ["late"]


class TestDispatchAtomicity:
    def test_cancel_between_expiry_and_dispatch(self):
        """A handler cancelling a timer already due in the same pass
        must still win: the dispatcher skips cancelled actions."""
        with AsyncioRuntime(time_scale=FAST) as runtime:
            ran = []
            handles = {}
            runtime.schedule(0.0, lambda: handles["victim"].cancel())
            handles["victim"] = runtime.schedule(0.0, ran.append, "victim")
            runtime.run()
            assert ran == []
            assert handles["victim"].cancelled
            assert runtime.quiesced()


class _Holder:
    """Holds its own timer, which carries it as the payload."""

    timer = None

    def on_timer(self) -> None:
        pass


class TestCancelReleases:
    def test_cancelled_timer_releases_its_payload(self):
        """On both runtimes a cancelled timer keeps neither its action
        nor its payload, so a payload that holds the timer is freed by
        reference counting once the caller drops it, not by the
        collector."""
        for kind in RUNTIME_KINDS:
            runtime = create_runtime(kind)
            holder = _Holder()
            holder.timer = runtime.schedule(
                100.0, _Holder.on_timer, holder
            )
            alive = weakref.ref(holder)
            holder.timer.cancel()
            enabled = gc.isenabled()
            gc.disable()
            try:
                del holder
                assert alive() is None, kind
            finally:
                if enabled:
                    gc.enable()
            assert runtime.quiesced()
            if kind == "asyncio":
                runtime.close()


class TestCounters:
    def test_events_fired_and_pending(self):
        with AsyncioRuntime(time_scale=FAST) as runtime:
            for i in range(3):
                runtime.schedule(float(i), lambda: None)
            assert runtime.pending_events == 3
            assert runtime.events_fired == 0
            runtime.run()
            assert runtime.pending_events == 0
            assert runtime.events_fired == 3


class TestWake:
    def test_loop_callback_wakes_the_sleeping_dispatcher(self):
        """A schedule from a loop callback (a datagram arriving, say)
        wakes a dispatcher asleep until a far deadline; so does a
        kick() after a cancel from one."""
        with AsyncioRuntime(time_scale=FAST) as runtime:
            ran = []
            far = runtime.schedule(1e6, ran.append, "far")  # 100 s away

            def arrive() -> None:
                runtime.schedule_fire(0.0, ran.append, "arrived")
                runtime.loop.call_later(0.01, settle)

            def settle() -> None:
                far.cancel()
                runtime.kick()

            runtime.loop.call_later(0.01, arrive)
            runtime.run(wall_budget=5.0)
            assert ran == ["arrived"]
            assert runtime.quiesced()


class TestUntilBound:
    def test_far_timers_survive_a_bounded_run(self):
        with AsyncioRuntime(time_scale=FAST) as runtime:
            ran = []
            runtime.schedule(1.0, ran.append, "near")
            far = runtime.schedule(100_000.0, ran.append, "far")
            runtime.run(until=100.0)
            assert ran == ["near"]
            assert not runtime.quiesced()
            far.cancel()
            assert runtime.quiesced()


class TestLifecycle:
    def test_close_is_idempotent(self):
        runtime = AsyncioRuntime(time_scale=FAST)
        runtime.close()
        runtime.close()

    def test_context_manager_closes(self):
        with AsyncioRuntime(time_scale=FAST) as runtime:
            pass
        with pytest.raises(RuntimeError):
            runtime.schedule(1.0, lambda: None)
