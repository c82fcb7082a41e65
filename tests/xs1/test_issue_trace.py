"""The per-issue trace: one ``issue`` record per issued slot, and only
when a real recorder is attached."""

from repro.sim import NullTracer, TraceRecorder
from repro.xs1 import XCore, assemble

LOOP = """
    ldc r0, 25
loop:
    subi r0, r0, 1
    bt r0, loop
    freet
"""


def _load(core, threads=2):
    program = assemble(LOOP)
    return [core.spawn(program) for _ in range(threads)]


def _issue_records(tracer):
    return [record for record in tracer if record.kind == "issue"]


def test_recorder_given_at_construction_sees_every_issue(sim, fabric):
    tracer = TraceRecorder()
    core = XCore(sim, node_id=0, fabric=fabric, tracer=tracer)
    threads = _load(core)
    sim.run()
    records = _issue_records(tracer)
    assert len(records) == core.stats.slots_issued == 2 * 52
    for thread in threads:
        assert sum(r.detail == (thread.name,) for r in records) == 52
    assert [r.time_ps for r in records] == sorted(r.time_ps for r in records)


def test_recorder_assigned_after_construction_sees_every_issue(core, sim):
    _load(core, threads=5)
    sim.run_until(core.frequency.cycles_to_ps(40))
    tracer = TraceRecorder()
    core.tracer = tracer
    issued_before = core.stats.slots_issued
    sim.run()
    assert core.tracer is tracer
    assert len(_issue_records(tracer)) == core.stats.slots_issued - issued_before
    assert core.stats.slots_issued == 5 * 52


def test_swapping_in_a_null_tracer_stops_recording(core, sim):
    tracer = TraceRecorder()
    core.tracer = tracer
    core.tracer = NullTracer()
    _load(core)
    sim.run()
    assert len(tracer) == 0
    assert core.stats.slots_issued == 2 * 52


def test_recorder_filtering_out_issues_gets_no_issue_records(core, sim):
    tracer = TraceRecorder(kinds={"token"})
    core.tracer = tracer
    _load(core)
    sim.run()
    assert len(tracer) == 0 and tracer.dropped == 0
    assert core.stats.slots_issued == 2 * 52
