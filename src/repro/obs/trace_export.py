"""Trace export: JSONL and Chrome trace-event format.

Turns a :class:`~repro.sim.tracing.TraceRecorder` into files other tools
can open:

* **JSONL** — one JSON object per record, for ad-hoc scripting
  (``jq``, pandas, ...).
* **Chrome trace-event format** — loadable in Perfetto or
  ``chrome://tracing``.  Simulation time (picoseconds) maps onto trace
  timestamps (microseconds); every trace source (core, switch, link,
  ADC board) gets its own named track, grouped into one process per
  component category.

Both exports are pure functions of the recorded trace, so two
deterministic runs produce byte-identical files — the property the
determinism tests pin down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.canonical import canonical_json

if TYPE_CHECKING:
    from repro.obs.netscope import NetScope
    from repro.obs.profiling import SimProfile
    from repro.obs.spans import SpanRecorder
    from repro.sim.tracing import TraceRecord

#: Process ids (and display names) for the Chrome trace, per category.
CATEGORY_PIDS: dict[str, int] = {
    "cores": 1,
    "switches": 2,
    "links": 3,
    "measurement": 4,
    "other": 5,
    "spans": 6,
    "profiler": 7,
    "netscope": 8,
}


def source_category(source: str) -> str:
    """Component category of a trace source name.

    Link names look like ``sw0->sw1#0``; switches are ``sw<N>``; cores
    ``core<N>``; measurement boards ``adc...``.  Anything else lands in
    ``other``.
    """
    if "->" in source:
        return "links"
    if source.startswith("core"):
        return "cores"
    if source.startswith("sw"):
        return "switches"
    if source.startswith("adc"):
        return "measurement"
    return "other"


def to_jsonl(records: Iterable["TraceRecord"]) -> str:
    """Serialise records as JSON Lines (one object per record)."""
    lines = [
        canonical_json({
            "time_ps": rec.time_ps,
            "source": rec.source,
            "kind": rec.kind,
            "detail": [str(d) for d in rec.detail],
        })
        for rec in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _span_events(spans: "SpanRecorder") -> list[dict[str, Any]]:
    """Chrome events for a span tree: slices, tracks and flow arrows.

    Spans become complete events (``"ph": "X"``) in a dedicated
    ``swallow.spans`` process with one track per node; cross-span
    messages become flow start/finish pairs (``"s"``/``"f"``), which
    Perfetto draws as arrows from the producer's track to the
    consumer's — the causal cross-core picture.
    """
    pid = CATEGORY_PIDS["spans"]
    started = [s for s in spans.spans if s.start_ps is not None]
    nodes = sorted(
        {s.node_id for s in started if s.node_id is not None}
    )
    tids = {node: tid for tid, node in enumerate(nodes)}
    unplaced_tid = len(nodes)

    def tid_of(span) -> int:
        if span.node_id is None:
            return unplaced_tid
        return tids[span.node_id]

    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "swallow.spans"},
    }]
    for node in nodes:
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": tids[node], "args": {"name": f"node{node}"},
        })
    if any(s.node_id is None for s in started):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": unplaced_tid, "args": {"name": "unplaced"},
        })
    # Open spans are drawn up to the latest time the trace knows about.
    horizon = 0
    for span in started:
        horizon = max(horizon, span.start_ps, span.end_ps or 0)
    for msg in spans.messages:
        horizon = max(horizon, msg.recv_ps)
    by_id = {span.span_id: span for span in spans.spans}
    for span in started:
        end_ps = span.end_ps if span.end_ps is not None else horizon
        events.append({
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": span.start_ps / 1e6,
            "dur": (end_ps - span.start_ps) / 1e6,
            "pid": pid,
            "tid": tid_of(span),
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "instructions": span.instructions,
                "bits_sent": span.bits_sent,
            },
        })
    for index, msg in enumerate(spans.messages):
        src, dst = by_id[msg.src_id], by_id[msg.dst_id]
        common = {"name": "msg", "cat": "span", "id": index, "pid": pid}
        events.append({
            **common, "ph": "s", "ts": msg.send_ps / 1e6, "tid": tid_of(src),
        })
        events.append({
            **common, "ph": "f", "bp": "e", "ts": msg.recv_ps / 1e6,
            "tid": tid_of(dst),
        })
    return events


def to_chrome_trace(
    records: Iterable["TraceRecord"],
    spans: "SpanRecorder | None" = None,
    netscope: "NetScope | None" = None,
) -> dict[str, Any]:
    """Build a Chrome trace-event document from trace records.

    Every record becomes a thread-scoped *instant* event (``"ph": "i"``)
    on the track of its source; metadata events name one process per
    component category and one thread per source.  Timestamps are
    microseconds (``time_ps / 1e6``), the unit the trace viewers expect.
    With a :class:`~repro.obs.spans.SpanRecorder`, span slices and
    cross-span flow arrows are added on a dedicated process (see
    :func:`_span_events`); with a :class:`~repro.obs.netscope.NetScope`,
    its windowed utilization / queue-depth / blocked-time series are
    added as counter tracks (``"ph": "C"``) so contention renders as
    area charts alongside the span slices.
    """
    records = list(records)
    sources: dict[str, str] = {}
    for rec in records:
        sources.setdefault(rec.source, source_category(rec.source))
    tids = {source: tid for tid, source in enumerate(sorted(sources))}

    events: list[dict[str, Any]] = []
    for category in sorted({*sources.values()}):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": CATEGORY_PIDS[category],
            "tid": 0,
            "args": {"name": f"swallow.{category}"},
        })
    for source in sorted(sources):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": CATEGORY_PIDS[sources[source]],
            "tid": tids[source],
            "args": {"name": source},
        })
    for rec in records:
        events.append({
            "name": rec.kind,
            "cat": sources[rec.source],
            "ph": "i",
            "s": "t",
            "ts": rec.time_ps / 1e6,
            "pid": CATEGORY_PIDS[sources[rec.source]],
            "tid": tids[rec.source],
            "args": {"detail": [str(d) for d in rec.detail]},
        })
    if spans is not None:
        events.extend(_span_events(spans))
    if netscope is not None:
        events.extend(netscope.counter_events())
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def chrome_trace_json(
    records: Iterable["TraceRecord"],
    spans: "SpanRecorder | None" = None,
    netscope: "NetScope | None" = None,
) -> str:
    """The Chrome trace document as canonical (byte-stable) JSON."""
    return canonical_json(
        to_chrome_trace(records, spans=spans, netscope=netscope)
    )


def write_jsonl(records: Iterable["TraceRecord"], path) -> None:
    """Write the JSONL export to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(records))


def write_chrome_trace(
    records: Iterable["TraceRecord"], path,
    spans: "SpanRecorder | None" = None,
    netscope: "NetScope | None" = None,
) -> None:
    """Write the Chrome trace-event export to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(records, spans=spans, netscope=netscope))


# ---------------------------------------------------------------------------
# Meta-trace: the simulator's *own* execution as a Chrome trace
# ---------------------------------------------------------------------------


def profile_chrome_trace(profile: "SimProfile") -> dict[str, Any]:
    """A Chrome trace of the *simulator's* execution, from a profile.

    Every wall-timed event sample in the profile (see
    ``SimProfile.meta_samples``) becomes a complete slice (``"ph": "X"``)
    on the track of its callback source, inside one ``swallow.profiler``
    process.  Timestamps are **wall-clock** microseconds since the
    profiling window opened — unlike every other export in this module,
    this trace shows where the host machine's time went, so it is *not*
    byte-stable across runs and never enters a determinism digest.
    """
    pid = CATEGORY_PIDS["profiler"]
    sources = sorted({source for _, _, source in profile.meta_samples})
    tids = {source: tid for tid, source in enumerate(sources)}
    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "swallow.profiler"},
    }]
    for source in sources:
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": tids[source], "args": {"name": source},
        })
    for start_us, dur_us, source in profile.meta_samples:
        events.append({
            "name": source,
            "cat": "profiler",
            "ph": "X",
            "ts": start_us,
            "dur": dur_us,
            "pid": pid,
            "tid": tids[source],
        })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_profile_chrome_trace(profile: "SimProfile", path) -> None:
    """Write the simulator meta-trace (see :func:`profile_chrome_trace`)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(profile_chrome_trace(profile)))
