"""The run loop and the oracle bulk build pause the cyclic collector
and hand the caller's collector state back however they end."""

import gc

import pytest

import repro.protocol.join as join_module
from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.sim.scheduler import SimulationError, Simulator


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_state(request):
    """The caller's collector state, restored after the test."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _recording_simulator(seen):
    sim = Simulator()
    for time in (1.0, 2.0, 3.0):
        sim.schedule(time, lambda: seen.append(gc.isenabled()))
    return sim


def _boom():
    raise ValueError("handler failed")


class TestRunPausesTheCollector:
    def test_full_drain(self, caller_state):
        seen = []
        assert _recording_simulator(seen).run() == 3
        assert seen == [False, False, False]
        assert gc.isenabled() is caller_state

    def test_until(self, caller_state):
        seen = []
        sim = _recording_simulator(seen)
        assert sim.run(until=1.5) == 1
        assert seen == [False]
        assert sim.pending_events == 2
        assert gc.isenabled() is caller_state

    def test_max_events(self, caller_state):
        seen = []
        assert _recording_simulator(seen).run(max_events=2) == 2
        assert seen == [False, False]
        assert gc.isenabled() is caller_state

    def test_handler_that_raises(self, caller_state):
        sim = Simulator()
        sim.schedule(1.0, _boom)
        with pytest.raises(ValueError):
            sim.run()
        assert gc.isenabled() is caller_state

    def test_reentrant_call_leaves_the_state_untouched(self, caller_state):
        sim = Simulator()
        inside = []

        def reenter():
            inside.append(gc.isenabled())
            with pytest.raises(SimulationError):
                sim.run()
            inside.append(gc.isenabled())

        sim.schedule(1.0, reenter)
        sim.run()
        assert inside == [False, False]
        assert gc.isenabled() is caller_state


class TestOracleBuildPausesTheCollector:
    SPACE = IdSpace(4, 4)

    def _build(self, monkeypatch, fail=False):
        seen = []
        real = join_module.build_consistent_tables

        def build(ids, rng=None):
            seen.append(gc.isenabled())
            if fail:
                raise ValueError("build failed")
            return real(ids, rng)

        monkeypatch.setattr(join_module, "build_consistent_tables", build)
        ids = [self.SPACE.from_string(s) for s in ("0000", "1111", "2222")]
        net = JoinProtocolNetwork.from_oracle(self.SPACE, ids)
        return net, seen

    def test_build(self, caller_state, monkeypatch):
        net, seen = self._build(monkeypatch)
        assert seen == [False]
        assert len(net.nodes) == 3
        assert gc.isenabled() is caller_state

    def test_build_that_raises(self, caller_state, monkeypatch):
        with pytest.raises(ValueError):
            self._build(monkeypatch, fail=True)
        assert gc.isenabled() is caller_state
