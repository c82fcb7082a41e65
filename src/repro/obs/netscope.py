"""The fabric observatory: windowed link/switch telemetry (netscope).

The fabric's built-in counters are lifetime aggregates — good for energy
accounting, useless for answering "which link was hot *when*, and why
was that route blocked?".  :class:`NetScope` attaches pure-observer
probes to every half-link and input port and samples activity into
deterministic time windows:

* **per-link windows** — tokens / bits / busy time per window of
  ``window_ps`` picoseconds (a token's serialization time is charged to
  the window it launches in);
* **per-port queue occupancy** — the high-water buffer depth per window;
* **route-open wait attribution** — every interval a port spends unable
  to make progress is attributed to exactly one cause:

  - ``lane_busy``     queued for an output-link grant (all lanes held),
  - ``credit_stall``  link held and idle but out of flow-control credits,
  - ``dest_busy``     local delivery blocked on a full receive buffer,
  - ``severed``       draining a packet whose route died mid-run;

* **slice-cut accounting** — cross-slice-boundary traffic and the
  observed minimum inter-token gap per directed slice pair: the
  empirical conservative-lookahead bound a partitioned simulator needs.

Probes never schedule simulator events and never consult wall time, so
attaching a NetScope cannot change the event trajectory (the
``bench_netscope_overhead`` gate pins this down) and every export is a
pure function of the run: byte-identical across same-seed runs, fault
campaigns included, and across checkpoint kill/resume cycles (restore
replays the trajectory, which rebuilds this state exactly).

Exports: :meth:`NetScope.heatmap` (canonical JSON document),
:meth:`NetScope.counter_events` (Chrome ``"ph": "C"`` counter tracks for
Perfetto), :meth:`NetScope.slice_cut`, and the ASCII heat overlay in
:func:`repro.network.visualize.render_heat`.  Campaign-level merging
lives in :func:`merge_heatmaps` / :func:`fleet_heatmap`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.canonical import canonical_json

if TYPE_CHECKING:
    from repro.network.fabric import LinkRecord, SwallowFabric
    from repro.network.link import HalfLink
    from repro.network.switch import InputPort
    from repro.network.topology import SwallowTopology
    from repro.obs.metrics import MetricsRegistry

#: The heat-map document schema tag (bump on incompatible change).
HEATMAP_SCHEMA = "netscope-heatmap/1"
#: The fleet (merged multi-job) document schema tag.
FLEET_SCHEMA = "netscope-fleet/1"
#: The four blocked-route causes; every blocked picosecond lands in
#: exactly one of them, so their sum always equals the blocked total.
CAUSES = ("credit_stall", "dest_busy", "lane_busy", "severed")
#: Default sampling window: 1 us of simulated time.
DEFAULT_WINDOW_PS = 1_000_000


class LinkProbe:
    """Windowed traffic accumulator for one half-link (pure observer)."""

    __slots__ = ("name", "window_ps", "windows", "boundary")

    def __init__(self, name: str, window_ps: int,
                 boundary: "SliceBoundary | None" = None):
        self.name = name
        self.window_ps = window_ps
        #: window index -> [tokens, bits, busy_ps]
        self.windows: dict[int, list[int]] = {}
        self.boundary = boundary

    def on_send(self, now: int, bits: int, busy_ps: int) -> None:
        """One token launched at ``now`` (called from HalfLink.send)."""
        cell = self.windows.get(now // self.window_ps)
        if cell is None:
            cell = self.windows[now // self.window_ps] = [0, 0, 0]
        cell[0] += 1
        cell[1] += bits
        cell[2] += busy_ps
        if self.boundary is not None:
            self.boundary.on_token(now, bits)

    def snapshot_state(self) -> dict:
        """Canonical window cells for checkpointing (sorted, copied)."""
        return {str(idx): list(cell) for idx, cell in sorted(self.windows.items())}


class SliceBoundary:
    """Traffic across one *directed* slice boundary (e.g. (0,0)->(1,0)).

    ``min_gap_ps`` is the smallest observed spacing between consecutive
    token launches across the boundary (over all its links) — the
    empirical lower bound a conservative partitioned simulator could use
    as lookahead between the two slices.
    """

    __slots__ = ("src", "dst", "link_count", "tokens", "bits",
                 "last_send_ps", "min_gap_ps")

    def __init__(self, src: tuple[int, int], dst: tuple[int, int]):
        self.src = src
        self.dst = dst
        self.link_count = 0
        self.tokens = 0
        self.bits = 0
        self.last_send_ps: int | None = None
        self.min_gap_ps: int | None = None

    def on_token(self, now: int, bits: int) -> None:
        """One token crossed the boundary at ``now``; track the min gap."""
        self.tokens += 1
        self.bits += bits
        last = self.last_send_ps
        if last is not None:
            gap = now - last
            if self.min_gap_ps is None or gap < self.min_gap_ps:
                self.min_gap_ps = gap
        self.last_send_ps = now

    def snapshot_state(self) -> dict:
        """Canonical boundary counters for checkpointing."""
        return {
            "tokens": self.tokens,
            "bits": self.bits,
            "last_send_ps": self.last_send_ps,
            "min_gap_ps": self.min_gap_ps,
        }


class PortProbe:
    """Queue-depth windows and blocked-cause intervals for one port.

    At most one blocked interval is open at a time; opening a different
    cause closes the current interval first, so the per-cause totals
    partition the blocked total *exactly* (they are accumulated from the
    same, non-overlapping intervals).
    """

    __slots__ = ("scope", "name", "node", "window_ps", "depth_windows",
                 "queue_peak", "blocked_since", "blocked_cause", "waits")

    def __init__(self, scope: "NetScope", name: str, node: int):
        self.scope = scope
        self.name = name
        self.node = node
        self.window_ps = scope.window_ps
        #: window index -> high-water buffer depth within the window.
        self.depth_windows: dict[int, int] = {}
        self.queue_peak = 0
        self.blocked_since: int | None = None
        self.blocked_cause: str | None = None
        #: cause -> [intervals, total_ps]
        self.waits: dict[str, list[int]] = {c: [0, 0] for c in CAUSES}

    def on_depth(self, now: int, depth: int) -> None:
        """Record the port's buffer depth at ``now`` (high-water marks)."""
        idx = now // self.window_ps
        if depth > self.depth_windows.get(idx, 0):
            self.depth_windows[idx] = depth
        if depth > self.queue_peak:
            self.queue_peak = depth

    def block(self, cause: str, now: int) -> None:
        """Open (or re-attribute) the port's blocked interval at ``now``."""
        if self.blocked_cause == cause:
            return
        if self.blocked_since is not None:
            self._close(now)
        self.blocked_since = now
        self.blocked_cause = cause

    def unblock(self, now: int) -> None:
        """Close the open blocked interval, if any, accruing its wait."""
        if self.blocked_since is not None:
            self._close(now)

    def _close(self, now: int) -> None:
        cause = self.blocked_cause
        since = self.blocked_since
        entry = self.waits[cause]
        entry[0] += 1
        entry[1] += now - since
        self.scope._record_wait(cause, since, now)
        self.blocked_since = None
        self.blocked_cause = None

    def snapshot_state(self) -> dict:
        """Canonical port state for checkpointing (open interval included)."""
        return {
            "queue_peak": self.queue_peak,
            "depth_windows": {str(i): d for i, d
                              in sorted(self.depth_windows.items())},
            "blocked_since": self.blocked_since,
            "blocked_cause": self.blocked_cause,
            "waits": {c: list(self.waits[c]) for c in CAUSES},
        }


class NetScope:
    """Windowed fabric telemetry attached to a :class:`SwallowFabric`."""

    def __init__(
        self,
        fabric: "SwallowFabric",
        topology: "SwallowTopology | None" = None,
        window_ps: int = DEFAULT_WINDOW_PS,
    ):
        if window_ps < 1:
            raise ValueError(f"netscope window must be >= 1 ps, got {window_ps}")
        self.fabric = fabric
        self.topology = topology
        self.window_ps = int(window_ps)
        self.link_probes: dict[str, LinkProbe] = {}
        self.port_probes: dict[str, PortProbe] = {}
        #: (src slice, dst slice) -> boundary accumulator.
        self.boundaries: dict[tuple[tuple[int, int], tuple[int, int]],
                              SliceBoundary] = {}
        #: cause -> {window index -> blocked ps inside that window}.
        self.blocked_windows: dict[str, dict[int, int]] = {
            c: {} for c in CAUSES
        }
        self._lattice_nodes = (
            set(topology.node_ids()) if topology is not None else None
        )
        fabric.netscope = self
        for record in fabric.link_records:
            self.attach_record(record)
        for node_id in sorted(fabric.switches):
            switch = fabric.switches[node_id]
            for port in switch.link_ports:
                self.attach_port(port)
            for index in sorted(switch.chanend_ports):
                self.attach_port(switch.chanend_ports[index])

    # -- probe attachment (fabric calls these for late-built parts) --------

    def _slice_of(self, node_id: int) -> tuple[int, int] | None:
        if self._lattice_nodes is None or node_id not in self._lattice_nodes:
            return None
        return self.topology.slice_of(node_id)

    def attach_record(self, record: "LinkRecord") -> None:
        """Probe both half-links of a link-pair record."""
        slice_a = self._slice_of(record.node_a)
        slice_b = self._slice_of(record.node_b)
        cross = slice_a is not None and slice_b is not None and slice_a != slice_b
        self._attach_link(record.forward,
                          self._boundary(slice_a, slice_b) if cross else None)
        self._attach_link(record.backward,
                          self._boundary(slice_b, slice_a) if cross else None)

    def _boundary(self, src: tuple[int, int],
                  dst: tuple[int, int]) -> SliceBoundary:
        boundary = self.boundaries.get((src, dst))
        if boundary is None:
            boundary = self.boundaries[(src, dst)] = SliceBoundary(src, dst)
        boundary.link_count += 1
        return boundary

    def _attach_link(self, link: "HalfLink",
                     boundary: SliceBoundary | None) -> None:
        probe = LinkProbe(link.name, self.window_ps, boundary)
        self.link_probes[link.name] = probe
        link.ns = probe

    def attach_port(self, port: "InputPort") -> None:
        """Probe one switch input port (link-side or chanend-side)."""
        probe = PortProbe(self, port.name, port.switch.node_id)
        self.port_probes[port.name] = probe
        port.ns = probe

    # -- accumulation ------------------------------------------------------

    def _record_wait(self, cause: str, start: int, end: int) -> None:
        """Split a closed blocked interval across its windows."""
        windows = self.blocked_windows[cause]
        w = self.window_ps
        idx = start // w
        last = (end - 1) // w if end > start else idx
        while idx <= last:
            overlap = min(end, (idx + 1) * w) - max(start, idx * w)
            if overlap > 0:
                windows[idx] = windows.get(idx, 0) + overlap
            idx += 1

    # -- reports -----------------------------------------------------------

    def blocked_totals(self) -> dict:
        """Blocked wait time and interval counts, partitioned by cause."""
        by_cause = {c: 0 for c in CAUSES}
        counts = {c: 0 for c in CAUSES}
        for name in sorted(self.port_probes):
            probe = self.port_probes[name]
            for cause in CAUSES:
                counts[cause] += probe.waits[cause][0]
                by_cause[cause] += probe.waits[cause][1]
        return {
            "total_ps": sum(by_cause.values()),
            "by_cause": by_cause,
            "intervals": counts,
        }

    def slice_cut(self) -> dict:
        """Cross-slice traffic + minimum inter-token gap per boundary."""
        rows = []
        gaps = []
        for key in sorted(self.boundaries):
            boundary = self.boundaries[key]
            rows.append({
                "from": list(boundary.src),
                "to": list(boundary.dst),
                "links": boundary.link_count,
                "tokens": boundary.tokens,
                "bits": boundary.bits,
                "min_gap_ps": boundary.min_gap_ps,
            })
            if boundary.min_gap_ps is not None:
                gaps.append(boundary.min_gap_ps)
        return {
            "window_ps": self.window_ps,
            "boundaries": rows,
            "min_gap_ps": min(gaps) if gaps else None,
        }

    def heatmap(self) -> dict:
        """The canonical heat-map document (a pure function of the run)."""
        fabric = self.fabric
        now = fabric.sim.now
        links: list[dict] = []
        for record in fabric.link_records:
            for half in (record.forward, record.backward):
                probe = self.link_probes.get(half.name)
                links.append({
                    "name": half.name,
                    "src": (record.node_a if half is record.forward
                            else record.node_b),
                    "dst": (record.node_b if half is record.forward
                            else record.node_a),
                    "class": half.spec.name,
                    "failed": half.failed,
                    "tokens": half.tokens_carried,
                    "bits": half.bits_carried,
                    "busy_ps": half.busy_time_ps,
                    "utilization": half.utilization(now),
                    "windows": probe.snapshot_state() if probe else {},
                })
        nodes: list[dict] = []
        port_by_node: dict[int, list[PortProbe]] = {}
        for name in sorted(self.port_probes):
            probe = self.port_probes[name]
            port_by_node.setdefault(probe.node, []).append(probe)
        for node_id in sorted(fabric.switches):
            switch = fabric.switches[node_id]
            coord = fabric.coords[node_id]
            probes = port_by_node.get(node_id, [])
            blocked = {c: sum(p.waits[c][1] for p in probes) for c in CAUSES}
            intervals = {c: sum(p.waits[c][0] for p in probes) for c in CAUSES}
            slice_id = self._slice_of(node_id)
            nodes.append({
                "node": node_id,
                "x": coord.x,
                "y": coord.y,
                "layer": coord.layer.value,
                "slice": list(slice_id) if slice_id is not None else None,
                "tokens_forwarded": switch.tokens_forwarded,
                "tokens_delivered": switch.tokens_delivered,
                "routes_opened": switch.routes_opened,
                "routes_severed": switch.routes_severed,
                "tokens_discarded": switch.tokens_discarded,
                "queue_peak": max((p.queue_peak for p in probes), default=0),
                "blocked_ps": blocked,
                "blocked_intervals": intervals,
            })
        grid = None
        if self.topology is not None:
            grid = {
                "slices_x": self.topology.slices_x,
                "slices_y": self.topology.slices_y,
                "packages_x": self.topology.packages_x,
                "packages_y": self.topology.packages_y,
            }
        return {
            "schema": HEATMAP_SCHEMA,
            "window_ps": self.window_ps,
            "elapsed_ps": now,
            "windows": (now // self.window_ps + 1) if now else 0,
            "grid": grid,
            "nodes": nodes,
            "links": links,
            "blocked": self.blocked_totals(),
            "slice_cut": self.slice_cut(),
        }

    def heatmap_json(self) -> str:
        """The heat map as canonical (byte-stable) JSON."""
        return canonical_json(self.heatmap())

    # -- Chrome counter tracks ---------------------------------------------

    def counter_events(self) -> list[dict[str, Any]]:
        """Chrome trace counter events (``"ph": "C"``) for Perfetto.

        One track per active link (windowed utilization, percent), one
        per port with queued tokens (high-water depth), and one per
        blocked cause (fabric-wide blocked ps per window).  Every series
        is closed with a trailing zero sample so Perfetto draws gaps as
        gaps instead of interpolating.
        """
        from repro.obs.trace_export import CATEGORY_PIDS

        pid = CATEGORY_PIDS["netscope"]
        w = self.window_ps
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "swallow.netscope"},
        }]

        def emit_series(name: str, series: dict[int, Any], value_of) -> None:
            prev = None
            for idx in sorted(series):
                if prev is not None and idx > prev + 1:
                    events.append(self._counter(name, pid, (prev + 1) * w, 0))
                events.append(
                    self._counter(name, pid, idx * w, value_of(series[idx]))
                )
                prev = idx
            if prev is not None:
                events.append(self._counter(name, pid, (prev + 1) * w, 0))

        for cause in CAUSES:
            emit_series(f"blocked_ps {cause}", self.blocked_windows[cause],
                        lambda v: v)
        for name in sorted(self.link_probes):
            probe = self.link_probes[name]
            if probe.windows:
                emit_series(f"util% {name}", probe.windows,
                            lambda cell: round(100.0 * cell[2] / w, 3))
        for name in sorted(self.port_probes):
            probe = self.port_probes[name]
            if probe.depth_windows:
                emit_series(f"queue {name}", probe.depth_windows, lambda v: v)
        return events

    @staticmethod
    def _counter(name: str, pid: int, time_ps: int, value) -> dict[str, Any]:
        return {
            "name": name, "cat": "netscope", "ph": "C",
            "ts": time_ps / 1e6, "pid": pid, "tid": 0,
            "args": {"value": value},
        }

    # -- metrics -----------------------------------------------------------

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish blocked-cause totals and the slice-cut lookahead bound.

        Series: ``netscope.blocked_ps{cause=...}``,
        ``netscope.blocked_total_ps`` and (when any boundary saw
        traffic) ``netscope.slice_min_gap_ps``.
        """

        def _collect(emit) -> None:
            totals = self.blocked_totals()
            for cause in CAUSES:
                emit("netscope.blocked_ps", {"cause": cause},
                     totals["by_cause"][cause])
            emit("netscope.blocked_total_ps", {}, totals["total_ps"])
            cut = self.slice_cut()
            if cut["min_gap_ps"] is not None:
                emit("netscope.slice_min_gap_ps", {}, cut["min_gap_ps"])

        registry.register_collector(_collect)

    # -- checkpointing (see repro.checkpoint) ------------------------------

    def snapshot_state(self) -> dict:
        """Canonical observatory state, verified after restore replay.

        Restore rebuilds the workload (which re-attaches netscope from
        the same params) and replays the trajectory, so this state is
        reproduced rather than deserialized; the snapshot exists to
        *verify* that, field by field, like every other layer.
        """
        return {
            "window_ps": self.window_ps,
            "links": {
                name: self.link_probes[name].snapshot_state()
                for name in sorted(self.link_probes)
                if self.link_probes[name].windows
            },
            "ports": {
                name: self.port_probes[name].snapshot_state()
                for name in sorted(self.port_probes)
                if (self.port_probes[name].depth_windows
                    or self.port_probes[name].queue_peak
                    or self.port_probes[name].blocked_since is not None
                    or any(v[0] for v in self.port_probes[name].waits.values()))
            },
            "boundaries": {
                f"{src[0]},{src[1]}->{dst[0]},{dst[1]}":
                    self.boundaries[(src, dst)].snapshot_state()
                for src, dst in sorted(self.boundaries)
            },
            "blocked_windows": {
                cause: {str(i): ps for i, ps in sorted(windows.items())}
                for cause, windows in self.blocked_windows.items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"<NetScope window={self.window_ps}ps "
            f"links={len(self.link_probes)} ports={len(self.port_probes)}>"
        )


# ---------------------------------------------------------------------------
# Campaign-level aggregation (the farm's fleet heat map)
# ---------------------------------------------------------------------------


def _grid_key(doc: dict) -> str:
    grid = doc.get("grid")
    if not grid:
        return "?"
    return f"{grid['slices_x']}x{grid['slices_y']}"


def merge_heatmaps(docs: list[dict]) -> dict:
    """Merge same-grid heat-map documents into one fleet document.

    Counters sum, queue peaks take the max, per-link windows sum
    cell-wise, boundary minimum gaps take the min, and utilization is
    recomputed as total busy time over total simulated time — "hot
    across the campaign", not "hot in one job".
    """
    if not docs:
        raise ValueError("merge_heatmaps: no documents")
    grids = {_grid_key(doc) for doc in docs}
    if len(grids) > 1:
        raise ValueError(f"merge_heatmaps: mixed grids {sorted(grids)}; "
                         "group with fleet_heatmap() first")
    window_ps = docs[0]["window_ps"]
    elapsed = sum(doc["elapsed_ps"] for doc in docs)
    links: dict[str, dict] = {}
    for doc in docs:
        for row in doc["links"]:
            merged = links.get(row["name"])
            if merged is None:
                merged = links[row["name"]] = {
                    **row, "tokens": 0, "bits": 0, "busy_ps": 0,
                    "failed": False, "windows": {},
                }
            merged["tokens"] += row["tokens"]
            merged["bits"] += row["bits"]
            merged["busy_ps"] += row["busy_ps"]
            merged["failed"] = merged["failed"] or row["failed"]
            for idx, cell in row["windows"].items():
                have = merged["windows"].get(idx)
                if have is None:
                    merged["windows"][idx] = list(cell)
                else:
                    for i, value in enumerate(cell):
                        have[i] += value
    for merged in links.values():
        merged["utilization"] = (
            min(1.0, merged["busy_ps"] / elapsed) if elapsed else 0.0
        )
        merged["windows"] = dict(sorted(merged["windows"].items(),
                                        key=lambda kv: int(kv[0])))
    nodes: dict[int, dict] = {}
    for doc in docs:
        for row in doc["nodes"]:
            merged = nodes.get(row["node"])
            if merged is None:
                merged = nodes[row["node"]] = {
                    **row,
                    "tokens_forwarded": 0, "tokens_delivered": 0,
                    "routes_opened": 0, "routes_severed": 0,
                    "tokens_discarded": 0, "queue_peak": 0,
                    "blocked_ps": {c: 0 for c in CAUSES},
                    "blocked_intervals": {c: 0 for c in CAUSES},
                }
            for field in ("tokens_forwarded", "tokens_delivered",
                          "routes_opened", "routes_severed",
                          "tokens_discarded"):
                merged[field] += row[field]
            merged["queue_peak"] = max(merged["queue_peak"], row["queue_peak"])
            for cause in CAUSES:
                merged["blocked_ps"][cause] += row["blocked_ps"][cause]
                merged["blocked_intervals"][cause] += (
                    row["blocked_intervals"][cause]
                )
    boundaries: dict[tuple, dict] = {}
    for doc in docs:
        for row in doc["slice_cut"]["boundaries"]:
            key = (tuple(row["from"]), tuple(row["to"]))
            merged = boundaries.get(key)
            if merged is None:
                merged = boundaries[key] = {
                    **row, "tokens": 0, "bits": 0, "min_gap_ps": None,
                }
            merged["tokens"] += row["tokens"]
            merged["bits"] += row["bits"]
            gap = row["min_gap_ps"]
            if gap is not None and (merged["min_gap_ps"] is None
                                    or gap < merged["min_gap_ps"]):
                merged["min_gap_ps"] = gap
    gaps = [b["min_gap_ps"] for b in boundaries.values()
            if b["min_gap_ps"] is not None]
    blocked_by_cause = {
        c: sum(doc["blocked"]["by_cause"][c] for doc in docs) for c in CAUSES
    }
    return {
        "schema": HEATMAP_SCHEMA,
        "merged_from": len(docs),
        "window_ps": window_ps,
        "elapsed_ps": elapsed,
        "windows": sum(doc["windows"] for doc in docs),
        "grid": docs[0]["grid"],
        "nodes": [nodes[n] for n in sorted(nodes)],
        "links": [links[name] for name in sorted(links)],
        "blocked": {
            "total_ps": sum(blocked_by_cause.values()),
            "by_cause": blocked_by_cause,
            "intervals": {
                c: sum(doc["blocked"]["intervals"][c] for doc in docs)
                for c in CAUSES
            },
        },
        "slice_cut": {
            "window_ps": window_ps,
            "boundaries": [boundaries[k] for k in sorted(boundaries)],
            "min_gap_ps": min(gaps) if gaps else None,
        },
    }


def fleet_heatmap(docs: list[dict]) -> dict:
    """Group heat-map documents by grid shape and merge each group.

    DSE sweeps mix topologies, so a campaign's jobs cannot always merge
    into a single spatial map; the fleet document carries one merged
    heat map per grid shape (``"2x1"`` etc.), each byte-stable.
    """
    groups: dict[str, list[dict]] = {}
    for doc in docs:
        groups.setdefault(_grid_key(doc), []).append(doc)
    return {
        "schema": FLEET_SCHEMA,
        "jobs": len(docs),
        "grids": {key: merge_heatmaps(groups[key]) for key in sorted(groups)},
    }
