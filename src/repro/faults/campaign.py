"""Deterministic fault campaigns.

A campaign is a seeded schedule of fault injections applied to a live
system mid-run.  Determinism is load-bearing, exactly as for the event
kernel: the injection schedule is fixed up front, every random draw
(flaky-link losses, bit-flip positions) comes from one
``random.Random(seed)``, and the report serialises canonically — the
same seed over the same workload produces a byte-identical report and
metrics snapshot, so fault-tolerance experiments are replayable.

Fault vocabulary (all times in campaign microseconds):

* :class:`LinkKill` — permanent death of one link pair, mid-run
  (in-flight tokens dropped, severed routes flushed);
* :class:`NodeKill` — switch death: every link touching the node dies
  and so does the node's core;
* :class:`CoreKill` — the core dies but its switch keeps forwarding
  transit traffic (the common partial-failure mode of §IV-B boards);
* :class:`FlakyLink` — a configurable token drop/corruption rate on one
  link pair, optionally ending at ``until_us``;
* :class:`BitFlip` — a single transient upset: the next payload token
  crossing the link has one random bit flipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.canonical import canonical_json
from repro.core.platform import SwallowSystem
from repro.faults.healing import HealthMonitor
from repro.network.routing import RoutingError
from repro.network.token import Token
from repro.sim import us

if TYPE_CHECKING:
    from repro.apps.reliable import ReliableChannel
    from repro.core.nos import NanoOS
    from repro.network.link import HalfLink
    from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class LinkKill:
    """Permanently fail one link pair at ``at_us``."""

    at_us: float
    node_a: int
    node_b: int
    index: int = 0

    kind = "link_kill"


@dataclass(frozen=True)
class NodeKill:
    """Kill a whole node at ``at_us``: its links and its core."""

    at_us: float
    node_id: int

    kind = "node_kill"


@dataclass(frozen=True)
class CoreKill:
    """Kill the core on ``node_id`` at ``at_us``; its switch survives."""

    at_us: float
    node_id: int

    kind = "core_kill"


@dataclass(frozen=True)
class FlakyLink:
    """Make a link pair lossy from ``at_us`` (optionally until ``until_us``).

    ``drop_rate`` and ``corrupt_rate`` are per-payload-token
    probabilities; header and control tokens are never affected (see
    :meth:`repro.network.link.HalfLink.send`).
    """

    at_us: float
    node_a: int
    node_b: int
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    index: int = 0
    until_us: float | None = None

    kind = "flaky_link"

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate + self.corrupt_rate <= 1.0:
            raise ValueError("drop_rate + corrupt_rate must lie in [0, 1]")
        if self.until_us is not None and self.until_us <= self.at_us:
            raise ValueError("until_us must come after at_us")


@dataclass(frozen=True)
class BitFlip:
    """Flip one random bit of the next payload token on a link pair."""

    at_us: float
    node_a: int
    node_b: int
    index: int = 0

    kind = "bit_flip"


FaultSpec = Union[LinkKill, NodeKill, CoreKill, FlakyLink, BitFlip]

_SPEC_KINDS: dict[str, type] = {
    spec.kind: spec for spec in (LinkKill, NodeKill, CoreKill, FlakyLink, BitFlip)
}


class CampaignReport:
    """The canonical outcome record of one campaign."""

    def __init__(self, payload: dict):
        self.payload = payload

    def to_dict(self) -> dict:
        """The report as plain data."""
        return self.payload

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact) — byte-stable across runs."""
        return canonical_json(self.payload)

    def render(self) -> str:
        """A human-readable summary."""
        p = self.payload
        lines = [
            f"fault campaign (seed {p['seed']})",
            f"  injections        {len(p['events'])}",
        ]
        for event in p["events"]:
            detail = {k: v for k, v in event.items()
                      if k not in ("kind", "time_ps")}
            lines.append(
                f"    {event['time_ps'] / 1e6:10.3f} us  {event['kind']:<10}"
                f"  {detail}"
            )
        network = p["network"]
        lines += [
            f"  failed link pairs {network['failed_link_pairs']}",
            f"  tokens dropped    {network['tokens_dropped']}",
            f"  tokens corrupted  {network['tokens_corrupted']}",
            f"  routes severed    {network['routes_severed']}",
            f"  tokens discarded  {network['tokens_discarded']}",
        ]
        healing = p["healing"]
        lines += [
            f"  reroutes          {healing['reroutes']}",
            f"  failed cores      {healing['failed_cores']}",
            f"  task replacements {healing['replacements']}",
        ]
        for name, stats in sorted(p["channels"].items()):
            lines.append(
                f"  channel {name}: delivered {stats['delivered']}"
                f" retries {stats['retries']}"
                f" retry_energy {stats['retry_energy_j']:.3e} J"
            )
        energy = p["energy"]
        lines.append(
            f"  energy            cores {energy['cores']:.3e} J,"
            f" links {energy['links']:.3e} J,"
            f" support {energy['support']:.3e} J"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<CampaignReport {len(self.payload['events'])} events>"


class FaultCampaign:
    """A seeded schedule of fault injections over one system."""

    def __init__(
        self,
        system: SwallowSystem,
        faults: list[FaultSpec],
        seed: int = 0,
        nos: "NanoOS | None" = None,
        heal: bool = True,
    ):
        self.system = system
        self.fabric = system.topology.fabric
        self.faults = list(faults)
        self.seed = seed
        self.rng = random.Random(seed)
        self.nos = nos
        #: Healing is on by default: mid-run link deaths recompute
        #: routes, core deaths re-place tasks (when a NanoOS is given).
        self.monitor = HealthMonitor(self.fabric, nos=nos) if heal else None
        self.events: list[dict] = []
        self.channels: dict[str, "ReliableChannel"] = {}
        self._cores = {core.node_id: core for core in system.cores}
        self._armed = False
        #: Indices into :attr:`faults` whose injection is suppressed — the
        #: watchdog rollback ladder masks the offending fault and replays.
        #: A masked injection still *fires* as an event (so the schedule's
        #: sequence numbers, and hence the pre-fault trajectory, are
        #: byte-identical to the unmasked run) but takes no action and is
        #: recorded with ``"masked": True``.
        self.masked: set[int] = set()
        #: Spec index of each recorded event, parallel to :attr:`events`
        #: (kept out of the report payload for byte-compatibility).
        self.injected: list[int] = []

    # -- scheduling ---------------------------------------------------------

    def arm(self) -> None:
        """Schedule every injection on the simulator (call once, pre-run)."""
        if self._armed:
            raise RuntimeError("campaign already armed")
        self._armed = True
        for index, spec in enumerate(self.faults):
            self.system.sim.schedule_at(
                us(spec.at_us),
                lambda spec=spec, index=index: self._inject(spec, index),
            )

    def _record(self, spec: FaultSpec, **extra) -> None:
        event = {"time_ps": self.system.sim.now, "kind": spec.kind}
        for name in spec.__dataclass_fields__:
            if name != "at_us":
                event[name] = getattr(spec, name)
        event.update(extra)
        self.events.append(event)

    def _inject(self, spec: FaultSpec, index: int = -1) -> None:
        self.injected.append(index)
        if index in self.masked:
            self._record(spec, masked=True)
            return
        if isinstance(spec, LinkKill):
            self.fabric.fail_link(
                spec.node_a, spec.node_b, spec.index, force=True
            )
            self._record(spec)
        elif isinstance(spec, NodeKill):
            try:
                records = self.fabric.fail_node_links(spec.node_id, force=True)
            except RoutingError:
                records = []          # earlier faults already isolated it
            self._kill_core(spec.node_id)
            self._record(spec, links_failed=len(records))
        elif isinstance(spec, CoreKill):
            self._record(spec, replaced=self._kill_core(spec.node_id))
        elif isinstance(spec, FlakyLink):
            record = self.fabric.find_link(spec.node_a, spec.node_b, spec.index)
            hook = self._flaky_hook(spec.drop_rate, spec.corrupt_rate)
            halves = (record.forward, record.backward)
            for half in halves:
                half.fault_hook = hook
            if spec.until_us is not None:
                self.system.sim.schedule_at(
                    us(spec.until_us),
                    lambda: self._clear_hooks(halves, hook),
                )
            self._record(spec)
        elif isinstance(spec, BitFlip):
            record = self.fabric.find_link(spec.node_a, spec.node_b, spec.index)
            self._arm_bit_flip(record.forward)
            self._record(spec)
        else:                                         # pragma: no cover
            raise TypeError(f"unknown fault spec {spec!r}")

    def _kill_core(self, node_id: int) -> int:
        """Kill a core, healing placement when possible; replaced count."""
        core = self._cores.get(node_id)
        if core is None:
            raise RoutingError(f"no core on node {node_id}")
        if self.monitor is not None:
            return len(self.monitor.on_core_failed(core))
        core.fail()
        return 0

    # -- fault hooks --------------------------------------------------------

    def _flaky_hook(self, drop_rate: float, corrupt_rate: float):
        def hook(token: Token) -> Token | None:
            draw = self.rng.random()
            if draw < drop_rate:
                return None
            if draw < drop_rate + corrupt_rate:
                return Token(token.value ^ (1 << self.rng.randrange(8)))
            return token
        return hook

    @staticmethod
    def _clear_hooks(halves, hook) -> None:
        for half in halves:
            if half.fault_hook is hook:
                half.fault_hook = None

    def _arm_bit_flip(self, half: "HalfLink") -> None:
        def hook(token: Token) -> Token:
            if half.fault_hook is hook:
                half.fault_hook = None             # single transient upset
            return Token(token.value ^ (1 << self.rng.randrange(8)))
        half.fault_hook = hook

    # -- integration --------------------------------------------------------

    def register_channel(self, name: str, channel: "ReliableChannel") -> None:
        """Track a reliable channel's retry behaviour in the report.

        The channel is also registered with the system's energy ledger
        (:meth:`~repro.energy.accounting.EnergyAccounting.register_retry_channel`),
        so retransmission energy appears in transparency reports and in
        the ``energy.retry_j`` metric series, not just the campaign
        report.
        """
        if name in self.channels:
            raise ValueError(f"channel {name!r} already registered")
        self.channels[name] = channel
        self.system.accounting.register_retry_channel(name, channel)

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish campaign series (lazily collected).

        Series: ``faults.injected``, ``faults.tokens_dropped``,
        ``faults.tokens_corrupted``, ``faults.routes_severed``,
        ``faults.tokens_discarded``, ``faults.failed_link_pairs``,
        ``faults.reroutes``, ``faults.failed_cores``,
        ``faults.replacements``, and per registered channel
        ``faults.channel_delivered{channel=...}`` /
        ``faults.channel_retries{channel=...}``.
        """
        registry.counter_fn("faults.injected", lambda: len(self.events))
        registry.counter_fn("faults.tokens_dropped", self._tokens_dropped)
        registry.counter_fn("faults.tokens_corrupted", self._tokens_corrupted)
        registry.counter_fn("faults.routes_severed", self._routes_severed)
        registry.counter_fn("faults.tokens_discarded", self._tokens_discarded)
        registry.counter_fn("faults.failed_link_pairs", self._failed_link_pairs)
        registry.counter_fn(
            "faults.reroutes",
            lambda: self.monitor.reroutes if self.monitor else 0,
        )
        registry.counter_fn(
            "faults.failed_cores",
            lambda: len(self.nos.failed_cores) if self.nos else sum(
                1 for core in self._cores.values() if core.failed
            ),
        )
        registry.counter_fn(
            "faults.replacements",
            lambda: self.nos.replacements if self.nos else 0,
        )

        def _collect_channels(emit) -> None:
            for name in sorted(self.channels):
                stats = self.channels[name].stats
                labels = {"channel": name}
                emit("faults.channel_delivered", labels, stats.delivered)
                emit("faults.channel_retries", labels, stats.retries)

        registry.register_collector(_collect_channels)

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical campaign state, including the live RNG stream.

        ``random.Random.getstate()`` is a plain tuple of ints (plus the
        gauss carry), so the stream position serialises exactly: a
        replayed campaign that made the same draws lands on the same
        state, and any divergence in drop/corrupt decisions shows up
        here as a first-differing-int.

        The :attr:`masked` set is deliberately *not* state — like the
        fault list itself it is configuration, recorded in the bundle's
        ``setup``; a pre-injection checkpoint must verify unchanged
        against a replay that masks the fault.
        """
        version, internal, gauss_next = self.rng.getstate()
        return {
            "seed": self.seed,
            "armed": self._armed,
            "injected": list(self.injected),
            "events": [dict(event) for event in self.events],
            "rng": [version, list(internal), gauss_next],
        }

    # -- aggregation --------------------------------------------------------

    def _tokens_dropped(self) -> int:
        return sum(link.tokens_dropped for link in self.fabric.links)

    def _tokens_corrupted(self) -> int:
        return sum(link.tokens_corrupted for link in self.fabric.links)

    def _routes_severed(self) -> int:
        return sum(s.routes_severed for s in self.fabric.switches.values())

    def _tokens_discarded(self) -> int:
        return sum(s.tokens_discarded for s in self.fabric.switches.values())

    def _failed_link_pairs(self) -> int:
        return sum(1 for r in self.fabric.link_records if not r.healthy)

    def report(self) -> CampaignReport:
        """Build the canonical campaign report (post-run)."""
        accounting = self.system.accounting
        channels = {}
        for name in sorted(self.channels):
            channel = self.channels[name]
            stats = channel.stats.as_dict()
            stats["retry_energy_j"] = channel.retry_energy_j(accounting)
            channels[name] = stats
        payload = {
            "seed": self.seed,
            "time_ps": self.system.sim.now,
            "events": self.events,
            "network": {
                "failed_link_pairs": self._failed_link_pairs(),
                "tokens_dropped": self._tokens_dropped(),
                "tokens_corrupted": self._tokens_corrupted(),
                "routes_severed": self._routes_severed(),
                "tokens_discarded": self._tokens_discarded(),
            },
            "healing": {
                "reroutes": self.monitor.reroutes if self.monitor else 0,
                "failed_cores": (
                    len(self.nos.failed_cores) if self.nos else sum(
                        1 for core in self._cores.values() if core.failed
                    )
                ),
                "replacements": self.nos.replacements if self.nos else 0,
            },
            "channels": channels,
            "energy": accounting.breakdown_j(),
        }
        return CampaignReport(payload)

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_spec(
        cls,
        system: SwallowSystem,
        spec: dict,
        nos: "NanoOS | None" = None,
    ) -> "FaultCampaign":
        """Build a campaign from plain data, e.g. parsed JSON::

            {"seed": 7, "faults": [
                {"kind": "flaky_link", "at_us": 0, "node_a": 0, "node_b": 1,
                 "drop_rate": 0.1},
                {"kind": "link_kill", "at_us": 50, "node_a": 2, "node_b": 3}]}
        """
        faults: list[FaultSpec] = []
        for entry in spec.get("faults", []):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            spec_cls = _SPEC_KINDS.get(kind)
            if spec_cls is None:
                raise ValueError(f"unknown fault kind {kind!r}")
            faults.append(spec_cls(**entry))
        return cls(
            system,
            faults,
            seed=int(spec.get("seed", 0)),
            nos=nos,
            heal=bool(spec.get("heal", True)),
        )

    def __repr__(self) -> str:
        return (
            f"<FaultCampaign seed={self.seed} faults={len(self.faults)} "
            f"injected={len(self.events)}>"
        )
