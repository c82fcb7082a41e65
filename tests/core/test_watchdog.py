"""Unit tests for the watchdog: fingerprints, deadlines, the ladder."""

import pytest

from repro import Compute, NanoOS, SwallowSystem
from repro.core.watchdog import RollbackSignal, Watchdog
from repro.sim import us, verify_state
from repro.xs1.behavioral import Sleep


def spinner(cycles_per_beat: int = 1_000, beats: int = 10_000):
    """A task that sleeps forever in small beats without retiring much."""
    def factory(core):
        def body():
            for _ in range(beats):
                yield Sleep(cycles_per_beat)
        return body()
    return factory


def worker(instructions: int = 50_000):
    def factory(core):
        def body():
            yield Compute(instructions)
        return body()
    return factory


class TestRegistration:
    def test_watch_validates_stall_checks(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(worker())
        watchdog = Watchdog(system, nos=nos)
        with pytest.raises(ValueError, match="stall_checks"):
            watchdog.watch(handle, stall_checks=0)

    def test_double_watch_rejected(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(worker())
        watchdog = Watchdog(system, nos=nos)
        watchdog.watch(handle)
        with pytest.raises(ValueError, match="already watched"):
            watchdog.watch(handle)

    def test_double_arm_rejected(self):
        system = SwallowSystem(metrics=False)
        watchdog = Watchdog(system)
        watchdog.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            watchdog.arm()


class TestSupervision:
    def test_progressing_task_never_fires(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(worker(instructions=200_000))
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        watchdog.watch(handle)
        watchdog.arm()
        system.run()
        assert handle.done
        assert watchdog.fired == 0
        assert watchdog.checks > 0

    def test_heartbeat_counts_as_progress(self):
        """A task that retires no instructions but heartbeats stays alive."""
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)

        def factory(core):
            def body():
                for _ in range(40):
                    watchdog.heartbeat(handle.task_id)
                    yield Sleep(5_000)
            return body()

        handle = nos.submit(factory)
        watchdog.watch(handle, stall_checks=2)
        watchdog.arm()
        system.run()
        assert handle.done
        assert watchdog.fired == 0

    def test_until_predicate_ends_supervision(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(spinner(beats=200))
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        watchdog.watch(handle, progress=lambda: 0, until=lambda: True)
        watchdog.arm()
        system.run()
        assert watchdog.fired == 0          # predicate short-circuits checks

    def test_deadline_miss_fires(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(spinner())
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        # Progress probe keeps changing (no stall), but the deadline
        # passes: the ladder must still fire, replace first.
        ticks = []
        watchdog.watch(
            handle,
            progress=lambda: ticks.append(0) or len(ticks),
            deadline_us=30.0,
        )
        watchdog.arm()
        with pytest.raises(RollbackSignal):
            system.run()
        assert watchdog.fired >= 1
        assert watchdog.actions[0]["cause"] == "deadline"
        assert watchdog.actions[0]["rung"] == "replace"


class TestLadder:
    def test_stall_replaces_then_rolls_back(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(spinner())
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        watchdog.watch(handle, progress=lambda: 0, stall_checks=2)
        watchdog.arm()
        with pytest.raises(RollbackSignal) as excinfo:
            system.run()
        assert excinfo.value.task_id == handle.task_id
        rungs = [a["rung"] for a in watchdog.actions]
        assert rungs == ["replace", "rollback"]
        assert nos.replacements == 1
        assert handle.restarts == 1          # replaced onto a fresh core

    def test_without_nos_goes_straight_to_rollback(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(spinner())
        watchdog = Watchdog(system, check_every_us=10.0)   # no nos wired
        watchdog.watch(handle, progress=lambda: 0, stall_checks=2)
        watchdog.arm()
        with pytest.raises(RollbackSignal):
            system.run()
        assert [a["rung"] for a in watchdog.actions] == ["rollback"]

    def test_metrics_registered(self):
        system = SwallowSystem()
        nos = NanoOS(system)
        handle = nos.submit(worker())
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        watchdog.watch(handle)
        watchdog.register_metrics(system.metrics)
        watchdog.arm()
        system.run()
        snapshot = system.metrics_snapshot().as_dict()
        assert snapshot["watchdog.fired"] == 0
        assert snapshot["watchdog.checks"] == watchdog.checks
        assert snapshot["watchdog.watched"] == 0

    def test_snapshot_state_captures_ladder(self):
        system = SwallowSystem(metrics=False)
        nos = NanoOS(system)
        handle = nos.submit(spinner())
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        watchdog.watch(handle, progress=lambda: 0, stall_checks=2)
        watchdog.arm()
        with pytest.raises(RollbackSignal):
            system.run()
        state = watchdog.snapshot_state()
        assert state["fired"] == 2
        assert [a["rung"] for a in state["actions"]] == [
            "replace", "rollback"
        ]
        watch = state["watches"][str(handle.task_id)]
        assert watch["escalations"] == 1
        # And the state verifies (same object, no divergence).
        verify_state(watchdog.snapshot_state(), state, "watchdog")


class TestEscalationMetrics:
    def test_deadline_miss_and_escalation_series(self):
        system = SwallowSystem()
        nos = NanoOS(system)
        handle = nos.submit(spinner())
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        ticks = []
        watchdog.watch(
            handle,
            progress=lambda: ticks.append(0) or len(ticks),
            deadline_us=30.0,
        )
        watchdog.register_metrics(system.metrics)
        watchdog.arm()
        with pytest.raises(RollbackSignal):
            system.run()
        snapshot = system.metrics_snapshot()
        assert snapshot.value("watchdog.deadline_miss") == \
            watchdog.deadline_misses >= 1
        # One series per ladder rung actually taken, labeled by stage.
        rungs = [action["rung"] for action in watchdog.actions]
        for rung in set(rungs):
            assert snapshot.value(
                "watchdog.escalations", stage=rung
            ) == rungs.count(rung)
        assert watchdog.snapshot_state()["deadline_misses"] == \
            watchdog.deadline_misses

    def test_no_misses_means_zero_counter(self):
        system = SwallowSystem()
        nos = NanoOS(system)
        handle = nos.submit(worker())
        watchdog = Watchdog(system, nos=nos, check_every_us=10.0)
        watchdog.watch(handle)
        watchdog.register_metrics(system.metrics)
        watchdog.arm()
        system.run()
        snapshot = system.metrics_snapshot()
        assert snapshot.value("watchdog.deadline_miss") == 0
        assert snapshot.series("watchdog.escalations") == []
