"""Kernel and issue-path speed-ups must not move a single event.

The golden values below are the reference event trajectories of three
registered workloads.  A kernel or XS1 issue-path change that alters
one — an extra or missing push, a reordered tie, a different clock
edge — changes an event count, sequence number, queue high-water mark
or state digest, and fails here loudly instead of drifting silently.
"""

import dataclasses

import pytest

from repro.checkpoint import build_workload
from repro.sim import Frequency, Simulator, ns

#: (workload, params) -> (events_processed, seq, queue_depth_high_water,
#: final_report()["state_digest"]).
GOLDEN = [
    pytest.param(
        "demo", {"seed": 3},
        (8219, 8219, 6,
         "ac8ae6f10db1cdef08424265cae636be0cc1df24bf567fb0df9db62db90d8653"),
        id="demo-isa-loop-1-slice",
    ),
    pytest.param(
        "faults_stream", {"words": 8, "seed": 2},
        (2068, 2147, 39,
         "b8579fce4502b18f1f2134a97a07740b043a7efd622eb23dc491fc044992546c"),
        id="faults_stream",
    ),
    # CC-EDF rescales core clocks mid-run, so issue slots straddle
    # frequency changes; the kill exercises fault re-placement.
    pytest.param(
        "policy_rt",
        {"policy": "ccedf", "tasks": 8, "seed": 1, "kills": 1, "k": 1},
        (102440, 102440, 9,
         "8cfafc3e9c27a237386cd5444137de2c6026414ae2d6dd5e0f3bb166e0822b61"),
        id="policy_rt-ccedf-kill",
    ),
]


@pytest.mark.parametrize("name,params,expected", GOLDEN)
def test_trajectory_matches_reference_kernel(name, params, expected):
    context = build_workload(name, params)
    context.system.run()
    sim = context.system.sim
    got = (
        sim.events_processed,
        sim.snapshot_state()["seq"],
        sim.queue_depth_high_water,
        context.final_report()["state_digest"],
    )
    assert got == expected


def test_issue_trace_matches_reference_kernel():
    """A machine-wide recorder, attached after the cores are built,
    sees the same records the reference kernel produced."""
    context = build_workload("demo", {"seed": 3, "trace": True})
    context.system.run()
    tracer = context.system.tracer
    issued = sum(core.stats.slots_issued for core in context.system.cores)
    assert len(tracer.filter(kind="issue")) == issued == 1990
    assert tracer.digest() == (
        "b504d389e5484f5d95b6a9af425ee4b6993c4d63e46a8a2a186e4fad450f8c27"
    )


# ---------------------------------------------------------------------------
# EventHandle contract under every way of driving the kernel
# ---------------------------------------------------------------------------


def _drive_run(sim):
    sim.run()


def _drive_step(sim):
    while sim.step():
        pass


def _drive_run_until(sim):
    sim.run_until(ns(1_000))


def _drive_profiled_run(sim):
    with sim.profile() as profile:
        sim.run()
    return profile


def _drive_profiled_step(sim):
    with sim.profile() as profile:
        while sim.step():
            pass
    return profile


DRIVERS = [
    pytest.param(_drive_run, id="run"),
    pytest.param(_drive_step, id="step"),
    pytest.param(_drive_run_until, id="run_until"),
    pytest.param(_drive_profiled_run, id="profile-run"),
    pytest.param(_drive_profiled_step, id="profile-step"),
]


@pytest.mark.parametrize("drive", DRIVERS)
class TestEventHandleContract:
    def test_cancel_before_firing_is_honoured_and_idempotent(self, drive):
        sim = Simulator()
        fired = []
        kept = sim.schedule(ns(10), lambda: fired.append("kept"))
        dropped = sim.schedule(ns(5), lambda: fired.append("dropped"))
        assert dropped.cancel() is True
        assert dropped.cancel() is False
        drive(sim)
        assert fired == ["kept"]
        assert dropped.cancelled and not dropped.executed
        assert kept.executed and not kept.cancelled
        assert sim.events_processed == 1

    def test_cancel_after_firing_returns_false(self, drive):
        sim = Simulator()
        handle = sim.schedule(ns(10), lambda: None)
        drive(sim)
        assert handle.executed
        assert handle.cancel() is False
        assert not handle.cancelled

    def test_time_and_executed_read_correctly(self, drive):
        sim = Simulator()
        seen = []
        early = sim.schedule(ns(10), lambda: seen.append(late.executed))
        late = sim.schedule_at(ns(30), lambda: seen.append(early.executed))
        assert (early.time, late.time) == (ns(10), ns(30))
        assert not early.executed and not late.executed
        drive(sim)
        assert seen == [False, True]
        assert early.executed and late.executed
        assert (early.time, late.time) == (ns(10), ns(30))

    def test_pending_events_excludes_cancelled(self, drive):
        sim = Simulator()
        handles = [sim.schedule(ns(i + 1), lambda: None) for i in range(5)]
        handles[1].cancel()
        handles[3].cancel()
        assert sim.pending_events == 3
        assert sim.snapshot_state()["pending_events"] == 3
        drive(sim)
        assert sim.pending_events == 0

    def test_cancelled_pops_are_counted(self, drive):
        sim = Simulator()
        for i in range(6):
            handle = sim.schedule(ns(i + 1), lambda: None)
            if i % 2:
                handle.cancel()
        profile = drive(sim)
        assert sim.events_processed == 3
        if profile is not None:
            assert profile.events_total == 3
            assert profile.queue_pops_cancelled == 3


def test_handle_is_a_slotted_record():
    handle = Simulator().schedule(0, lambda: None)
    assert not hasattr(handle, "__dict__")


# ---------------------------------------------------------------------------
# The cached clock period stays out of Frequency's value semantics
# ---------------------------------------------------------------------------


def test_reading_period_keeps_frequency_value_semantics():
    read, fresh = Frequency(71_000_000), Frequency(71_000_000)
    assert read.period_ps == 14085
    assert read == fresh
    assert hash(read) == hash(fresh)
    assert repr(read) == repr(fresh) == "Frequency(hz=71000000)"
    assert [f.name for f in dataclasses.fields(read)] == ["hz"]
    assert dataclasses.asdict(read) == {"hz": 71_000_000}
    assert {read: "x"}[fresh] == "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.hz = 1
