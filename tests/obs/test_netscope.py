"""The fabric observatory: windowed telemetry, cause attribution, export.

The load-bearing properties:

* **Conservation** — per-link window cells sum back to the link's
  lifetime counters, and blocked wait time partitions *exactly* into
  the four causes (the intervals are non-overlapping by construction).
* **Purity** — attaching a NetScope changes nothing: same event count,
  same trajectory.
* **Byte-identity** — heat-map and counter-track exports are identical
  across same-seed runs, under a seeded fault campaign with a mid-run
  link kill, and across a checkpoint kill/resume cycle.
"""

import json

import pytest

from repro import Compute, RecvWord, SendWord
from repro.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    ResumableRun,
    build_workload,
)
from repro.core.platform import SwallowSystem
from repro.obs.netscope import (
    CAUSES,
    FLEET_SCHEMA,
    HEATMAP_SCHEMA,
    NetScope,
    fleet_heatmap,
    merge_heatmaps,
)
from repro.sim import verify_state

#: faults_stream params with the observatory on; a mid-run kill of the
#: stream's own link (0-8) forces a detour through the rest of the
#: lattice while the heat map keeps recording.
KILL_PARAMS = {
    "words": 10,
    "seed": 4,
    "netscope": True,
    "faults": [
        {"kind": "flaky_link", "at_us": 0.0, "node_a": 0, "node_b": 8,
         "drop_rate": 0.05},
        {"kind": "link_kill", "at_us": 400.0, "node_a": 0, "node_b": 8},
    ],
}


def _contended_system() -> tuple[SwallowSystem, NetScope]:
    """One stream into a receiver that starts consuming late.

    The send outruns the receive: the destination chanend fills
    (``dest_busy``), backpressure exhausts link credits upstream
    (``credit_stall``), and both intervals close when the receiver
    drains — closed intervals, exact partition.
    """
    system = SwallowSystem()
    scope = system.netscope()
    channel = system.channel(system.core(1), system.core(10))
    received = []

    def producer():
        for i in range(16):
            yield SendWord(channel.a, i)

    def consumer():
        yield Compute(instructions=5000)
        for _ in range(16):
            received.append((yield RecvWord(channel.b)))

    system.spawn_task(system.core(1), producer())
    system.spawn_task(system.core(10), consumer())
    return system, scope


class TestConservation:
    def test_window_cells_sum_to_link_counters(self):
        context = build_workload("faults_stream",
                                 {"words": 8, "seed": 0, "netscope": True})
        context.system.run()
        scope = context.system.topology.fabric.netscope
        fabric = context.system.topology.fabric
        seen = 0
        for link in fabric.links:
            probe = scope.link_probes[link.name]
            tokens = sum(cell[0] for cell in probe.windows.values())
            bits = sum(cell[1] for cell in probe.windows.values())
            busy = sum(cell[2] for cell in probe.windows.values())
            assert tokens == link.tokens_carried, link.name
            assert bits == link.bits_carried, link.name
            assert busy == link.busy_time_ps, link.name
            seen += tokens
        assert seen > 0, "workload sent no tokens through probed links"

    def test_blocked_partition_is_exact(self):
        system, scope = _contended_system()
        system.run()
        blocked = scope.blocked_totals()
        assert blocked["total_ps"] > 0
        assert blocked["total_ps"] == sum(blocked["by_cause"].values())
        assert blocked["by_cause"]["dest_busy"] > 0
        assert blocked["by_cause"]["credit_stall"] > 0
        # Port-level waits aggregate to the same totals.
        for cause in CAUSES:
            port_sum = sum(p.waits[cause][1]
                           for p in scope.port_probes.values())
            assert port_sum == blocked["by_cause"][cause]
        # Windowed blocked time conserves the same quantity again.
        for cause in CAUSES:
            window_sum = sum(scope.blocked_windows[cause].values())
            assert window_sum == blocked["by_cause"][cause]

    def test_severed_cause_and_port_discards_on_link_kill(self):
        """Killing a link under an open route attributes the flushed
        route's wait to ``severed`` — and only a *forced* kill does."""
        from repro.network.routing import Layer
        from repro.network.token import CT_END
        from repro.network.topology import SwallowTopology
        from repro.sim import Simulator, us
        from repro.xs1 import BehavioralThread, SendCt, XCore

        sim = Simulator()
        topo = SwallowTopology(sim)
        scope = NetScope(topo.fabric, topology=topo)
        a = topo.node_at(1, 0, Layer.VERTICAL)
        b = topo.node_at(1, 1, Layer.VERTICAL)
        core_a = XCore(sim, a, topo.fabric)
        core_b = XCore(sim, b, topo.fabric)
        tx = core_a.allocate_chanend()
        rx = core_b.allocate_chanend()
        tx.set_dest(rx.address)
        got = []

        def sender():
            for i in range(64):
                yield SendWord(tx, i)
            yield SendCt(tx, CT_END)

        def receiver():
            while True:
                got.append((yield RecvWord(rx)))

        BehavioralThread(core_a, sender())
        BehavioralThread(core_b, receiver())
        topo.fabric.use_table_routing()
        sim.schedule_at(us(2), lambda: topo.fabric.fail_link(a, b, force=True))
        sim.run_for(us(400))

        blocked = scope.blocked_totals()
        assert blocked["intervals"]["severed"] >= 1
        assert blocked["total_ps"] == sum(blocked["by_cause"].values())
        fabric = topo.fabric
        # Per-port shares reconcile with the switch-level counters.
        for switch in fabric.switches.values():
            ports = [*switch.link_ports, *switch.chanend_ports.values()]
            assert (sum(p.routes_severed for p in ports)
                    == switch.routes_severed)
            assert (sum(p.tokens_discarded for p in ports)
                    == switch.tokens_discarded)
        assert any(s.tokens_discarded for s in fabric.switches.values())


class TestPurity:
    def test_attaching_netscope_preserves_the_trajectory(self):
        plain = build_workload("faults_stream", {"words": 8, "seed": 2})
        plain.system.run()
        scoped = build_workload("faults_stream",
                                {"words": 8, "seed": 2, "netscope": True})
        scoped.system.run()
        assert (plain.system.sim.events_processed
                == scoped.system.sim.events_processed)
        assert plain.system.sim.now == scoped.system.sim.now
        assert plain.received == scoped.received


def _heatmap_and_counters(params: dict) -> tuple[str, str]:
    context = build_workload("faults_stream", params)
    context.system.run()
    scope = context.system.topology.fabric.netscope
    return scope.heatmap_json(), json.dumps(scope.counter_events())


class TestByteIdentity:
    def test_same_seed_runs_export_identical_bytes(self):
        params = {"words": 8, "seed": 7, "netscope": True}
        assert _heatmap_and_counters(params) == _heatmap_and_counters(params)

    def test_identical_under_mid_run_link_kill(self):
        first = _heatmap_and_counters(KILL_PARAMS)
        second = _heatmap_and_counters(KILL_PARAMS)
        assert first == second
        heatmap = json.loads(first[0])
        failed = {row["name"] for row in heatmap["links"] if row["failed"]}
        assert failed == {"sw0->sw8#0", "sw8->sw0#0"}

    @pytest.mark.parametrize("params,kill", [
        ({"words": 8, "seed": 7, "netscope": True}, 1500),
        (KILL_PARAMS, 3000),
    ], ids=["flaky", "link-kill"])
    def test_kill_resume_matches_uninterrupted(self, tmp_path, params, kill):
        expected = _heatmap_and_counters(params)

        run = ResumableRun(
            "faults_stream", params,
            policy=CheckpointPolicy(every_events=400, retain=3),
            store=CheckpointStore(tmp_path / "store", retain=3),
        )
        run.run(kill_after_events=kill)
        assert run.killed

        resumed = ResumableRun.resume(
            CheckpointStore(tmp_path / "store", retain=3).latest()
        )
        resumed.run()
        scope = resumed.context.system.topology.fabric.netscope
        assert (scope.heatmap_json(),
                json.dumps(scope.counter_events())) == expected

    def test_fabric_snapshot_carries_netscope_state(self):
        context = build_workload("faults_stream",
                                 {"words": 6, "seed": 1, "netscope": True})
        context.system.run()
        fabric = context.system.topology.fabric
        state = fabric.snapshot_state()
        assert "netscope" in state
        assert state["netscope"]["links"], "no link windows captured"
        # Self-verification round-trips (the restore-replay check).
        verify_state(fabric.netscope.snapshot_state(), state["netscope"],
                     "netscope")


class TestSliceCut:
    def test_cross_slice_stream_hits_the_boundary(self):
        system = SwallowSystem(slices_x=2)
        scope = system.netscope()
        topology = system.topology
        by_slice = {}
        for core in system.cores:
            by_slice.setdefault(
                topology.slice_of(core.node_id), []
            ).append(core)
        src = by_slice[(0, 0)][0]
        dst = by_slice[(1, 0)][0]
        channel = system.channel(src, dst)
        received = []

        def producer():
            for i in range(12):
                yield Compute(50)
                yield SendWord(channel.a, i)

        def consumer():
            for _ in range(12):
                received.append((yield RecvWord(channel.b)))

        system.spawn_task(src, producer())
        system.spawn_task(dst, consumer())
        system.run()
        assert len(received) == 12
        cut = scope.slice_cut()
        crossing = {(tuple(row["from"]), tuple(row["to"])): row
                    for row in cut["boundaries"]}
        forward = crossing[((0, 0), (1, 0))]
        assert forward["tokens"] > 0
        assert forward["bits"] > 0
        assert forward["min_gap_ps"] is not None
        assert forward["min_gap_ps"] >= 0
        assert cut["min_gap_ps"] <= forward["min_gap_ps"]
        # The heat map embeds the same report.
        assert scope.heatmap()["slice_cut"] == cut


class TestExports:
    def test_heatmap_document_shape(self):
        context = build_workload("faults_stream",
                                 {"words": 6, "seed": 0, "netscope": True})
        context.system.run()
        doc = context.system.topology.fabric.netscope.heatmap()
        assert doc["schema"] == HEATMAP_SCHEMA
        assert doc["grid"] == {"slices_x": 1, "slices_y": 1,
                               "packages_x": 4, "packages_y": 2}
        assert len(doc["nodes"]) == len(
            context.system.topology.fabric.switches
        )
        active = [row for row in doc["links"] if row["tokens"]]
        assert active, "no link carried traffic"
        for row in active:
            window_tokens = sum(cell[0] for cell in row["windows"].values())
            assert window_tokens == row["tokens"]
        assert 0.0 <= max(row["utilization"] for row in active) <= 1.0

    def test_counter_tracks_join_the_chrome_trace(self):
        from repro.obs.trace_export import CATEGORY_PIDS, to_chrome_trace

        system, scope = _contended_system()
        tracer = system.trace()
        system.run()
        doc = to_chrome_trace(tracer.records, netscope=scope)
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters, "no counter events exported"
        pid = CATEGORY_PIDS["netscope"]
        assert all(e["pid"] == pid for e in counters)
        names = {e["name"] for e in counters}
        assert any(name.startswith("util% ") for name in names)
        assert any(name.startswith("queue ") for name in names)
        assert any(name.startswith("blocked_ps ") for name in names)
        # Every series ends with a closing zero sample.
        last_by_name = {}
        for event in counters:
            last_by_name[event["name"]] = event
        assert all(e["args"]["value"] == 0 for e in last_by_name.values())

    def test_netscope_metrics_series(self):
        system, scope = _contended_system()
        system.run()
        snap = system.metrics_snapshot()
        total = snap.value("netscope.blocked_total_ps")
        assert total > 0
        assert total == sum(
            snap.value("netscope.blocked_ps", cause=cause)
            for cause in CAUSES
        )


class TestMerge:
    def _doc(self, seed: int) -> dict:
        context = build_workload("faults_stream",
                                 {"words": 6, "seed": seed, "netscope": True})
        context.system.run()
        return context.system.topology.fabric.netscope.heatmap()

    def test_merge_sums_counters_and_recomputes_utilization(self):
        a, b = self._doc(0), self._doc(5)
        merged = merge_heatmaps([a, b])
        assert merged["merged_from"] == 2
        assert merged["elapsed_ps"] == a["elapsed_ps"] + b["elapsed_ps"]
        totals = lambda doc: sum(row["tokens"] for row in doc["links"])
        assert totals(merged) == totals(a) + totals(b)
        by_name = {row["name"]: row for row in merged["links"]}
        for row in a["links"]:
            if row["tokens"]:
                other = next(r for r in b["links"]
                             if r["name"] == row["name"])
                assert (by_name[row["name"]]["tokens"]
                        == row["tokens"] + other["tokens"])
        for row in merged["links"]:
            assert 0.0 <= row["utilization"] <= 1.0

    def test_merge_refuses_mixed_grids(self):
        small = self._doc(0)
        context = build_workload(
            "faults_stream",
            {"words": 6, "seed": 0, "netscope": True, "slices_x": 2},
        )
        context.system.run()
        wide = context.system.topology.fabric.netscope.heatmap()
        with pytest.raises(ValueError, match="mixed grids"):
            merge_heatmaps([small, wide])
        fleet = fleet_heatmap([small, wide])
        assert fleet["schema"] == FLEET_SCHEMA
        assert fleet["jobs"] == 2
        assert set(fleet["grids"]) == {"1x1", "2x1"}


class TestRouteHoldMetrics:
    def test_direction_labelled_hold_series_and_port_counters(self):
        context = build_workload("faults_stream",
                                 {"words": 6, "seed": 0, "netscope": True})
        context.system.run()
        snap = context.system.metrics_snapshot()
        payload = snap.as_dict()
        hold = [key for key in payload
                if key.startswith("switch.route_hold_ps{")
                and "direction=" in key]
        assert hold, "no per-direction route-hold histograms published"
        # The plain per-switch series (pinned elsewhere) still exists.
        assert snap.value("switch.route_hold_ps", default=None,
                          node="0") is not None
        opened = [key for key in payload
                  if key.startswith("switch.port_routes_opened{")]
        assert opened, "no per-port route counters published"
        assert all("port=" in key for key in opened)
