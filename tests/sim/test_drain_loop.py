"""The kernel's one drain loop: ``Simulator.run(max_events, until_ps)``.

It runs events in (time, seq) order and stops when the queue drains,
after ``max_events`` events, or before the first live event later than
``until_ps``; it never moves the clock past the last event it ran.
With a profiler installed, ``run()`` and ``step()`` go through the
profiled twin of the same loop.
"""

import pytest

from repro.sim import Simulator, ns
from repro.sim.engine import KERNEL_STATS


def ticks(times_ns):
    """A simulator with one recording event at each time (ns)."""
    sim = Simulator()
    fired = []
    for t in times_ns:
        sim.schedule(ns(t), lambda t=t: fired.append(t))
    return sim, fired


class TestStopRule:
    def test_until_leaves_now_at_last_executed_event(self):
        sim, fired = ticks([10, 20, 30])
        assert sim.run(until_ps=ns(25)) == 2
        assert fired == [10, 20]
        assert sim.now == ns(20)
        assert sim.next_event_time() == ns(30)

    def test_until_is_inclusive_and_skips_cancelled_heads(self):
        sim, fired = ticks([10, 20])
        sim.schedule(ns(5), lambda: fired.append("cancelled")).cancel()
        assert sim.run(until_ps=ns(20)) == 2
        assert fired == [10, 20]
        assert sim.now == ns(20)

    def test_until_before_the_next_event_runs_nothing(self):
        sim, fired = ticks([10])
        assert sim.run(until_ps=ns(5)) == 0
        assert (fired, sim.now, sim.pending_events) == ([], 0, 1)

    def test_max_events_and_until_together(self):
        sim, fired = ticks([10, 20, 30, 40])
        # The event cap binds first ...
        assert sim.run(max_events=1, until_ps=ns(35)) == 1
        assert (fired, sim.now) == ([10], ns(10))
        # ... then the time mark.
        assert sim.run(max_events=10, until_ps=ns(35)) == 2
        assert (fired, sim.now) == ([10, 20, 30], ns(30))
        assert sim.run(max_events=10, until_ps=ns(35)) == 0
        assert sim.run() == 1
        assert fired == [10, 20, 30, 40]

    def test_max_events_zero_runs_nothing(self):
        sim, fired = ticks([10, 20])
        assert sim.run(max_events=0) == 0
        assert (fired, sim.now, sim.events_processed) == ([], 0, 0)
        with sim.profile() as profile:
            assert sim.run(max_events=0) == 0
        assert profile.events_total == 0
        assert sim.run() == 2

    def test_run_until_advances_the_clock_to_the_mark(self):
        sim, fired = ticks([10, 30])
        assert sim.run_until(ns(20)) == 1
        assert sim.now == ns(20)
        assert sim.run_until(ns(20)) == 0
        assert sim.now == ns(20)


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
class TestCounting:
    def run(self, sim, profiled, **kwargs):
        if not profiled:
            return sim.run(**kwargs)
        with sim.profile():
            return sim.run(**kwargs)

    def test_callbacks_see_their_own_event_counted(self, profiled):
        sim = Simulator()
        seen = []
        for i in range(3):
            sim.schedule(i, lambda: seen.append(sim.events_processed))
        self.run(sim, profiled)
        assert seen == [1, 2, 3]

    def test_raising_event_is_processed_but_not_counted(self, profiled):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.schedule(3, lambda: 1 / 0)
        sim.schedule(4, lambda: None)
        before = KERNEL_STATS.events_executed
        with pytest.raises(ZeroDivisionError):
            self.run(sim, profiled)
        assert sim.events_processed == 3
        assert KERNEL_STATS.events_executed - before == 2
        assert self.run(sim, profiled) == 1
        assert sim.events_processed == 4


class TestProfiledDrivers:
    def busy_sim(self, n=2_000):
        sim = Simulator()
        state = {"left": n}

        def spin():
            state["left"] -= 1
            if state["left"]:
                sim.schedule(100, spin)
                if state["left"] % 7 == 0:
                    sim.schedule(50, lambda: None).cancel()

        def other():
            pass

        sim.schedule(0, spin)
        for i in range(n // 4):
            sim.schedule(i * 400 + 50, other)
        return sim

    def deterministic(self, profile):
        data = profile.to_dict()
        kept = {key: data[key] for key in (
            "events_total", "events_by_source", "wall_sample_every",
            "wall_sampled_events", "queue_pushes", "queue_pops_cancelled",
            "depth_timeline", "queue_depth_high_water", "sim_time_ps")}
        # Which events were wall-sampled, by source, in order.
        kept["sampled"] = [source for _, _, source in profile.meta_samples]
        return kept

    def test_step_and_run_windows_profile_alike(self):
        """Counts, cancelled pops and the sampled events agree whether a
        window is driven by step(), run() or a mix of both."""
        profiles = []
        for drive in ("run", "step", "mixed", "steps-then-run"):
            sim = self.busy_sim()
            with sim.profile(wall_sample_every=8,
                             depth_timeline_every=16) as profile:
                if drive == "run":
                    sim.run()
                elif drive == "step":
                    while sim.step():
                        pass
                elif drive == "mixed":
                    while sim.step() and sim.run(max_events=13):
                        pass
                    sim.run()
                else:
                    for _ in range(5):
                        sim.step()
                    sim.run()
            profiles.append(self.deterministic(profile))
        assert profiles[0]["wall_sampled_events"] == \
            profiles[0]["events_total"] // 8
        assert profiles[0]["depth_timeline"]
        for profile in profiles[1:]:
            assert profile == profiles[0]
