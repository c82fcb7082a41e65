"""Simulation-time energy accounting — the "energy transparency" engine.

Integrates the Eq. 1 power model over each core's actual pipeline
utilisation, adds Table I energy for every bit the network moved, and
(optionally) the per-node support power of Fig. 2.  The measurement
subsystem (:mod:`repro.energy.measurement`) samples these accumulators
the way the real daughter-board samples shunt resistors, closing the
paper's loop of "a program that can measure its own power consumption
and adapt to the results".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.link_energy import traffic_energy_joules
from repro.energy.power_model import NodeBreakdown, core_power_mw
from repro.network.fabric import SwallowFabric
from repro.sim import PS_PER_S, Simulator
from repro.xs1.core import XCore

#: Per-node support power (DC-DC conversion + I/O + other, Fig. 2), mW.
SUPPORT_MW_PER_NODE = NodeBreakdown().dcdc_and_io + NodeBreakdown().other


class CoreEnergyTracker:
    """Windowed integration of one core's power."""

    def __init__(self, core: XCore, sim: Simulator):
        self.core = core
        self.sim = sim
        self._last_time = sim.now
        self._last_cycle = core.cycle
        self._last_slots = core.stats.slots_issued
        self.energy_j = 0.0
        self.last_window_power_mw = core_power_mw(core.frequency.megahertz, 0.0)
        core.frequency_listeners.append(lambda _core: self.update())

    def _open_window(self) -> tuple[float, float] | None:
        """(energy increment, power) of the open window; ``None`` if empty."""
        dt_ps = self.sim.now - self._last_time
        if dt_ps <= 0:
            return None
        cycles = self.core.cycle - self._last_cycle
        slots = self.core.stats.slots_issued - self._last_slots
        utilization = min(1.0, slots / cycles) if cycles > 0 else 0.0
        power_mw = core_power_mw(self.core.frequency.megahertz, utilization)
        # Full-DVFS extension: P scales with V^2 (paper §III.B, Fig. 4).
        power_mw *= getattr(self.core, "voltage", 1.0) ** 2
        return power_mw * 1e-3 * (dt_ps / PS_PER_S), power_mw

    def update(self) -> None:
        """Close the integration window at the current simulation time."""
        window = self._open_window()
        if window is None:
            return
        increment, power_mw = window
        self.energy_j += increment
        self.last_window_power_mw = power_mw
        self._last_time = self.sim.now
        self._last_cycle = self.core.cycle
        self._last_slots = self.core.stats.slots_issued

    def observe(self) -> tuple[float, float]:
        """(energy through now, open-window power) — without closing.

        A pure read: repeated observation leaves the window anchors and
        the float accumulation order exactly as an unobserved run, so
        observers (metrics snapshots, heartbeats) can sample mid-run
        without perturbing checkpoint state or the bit-exact final
        ledger.
        """
        window = self._open_window()
        if window is None:
            return self.energy_j, self.last_window_power_mw
        increment, power_mw = window
        return self.energy_j + increment, power_mw


class EnergyAccounting:
    """System-wide energy ledger: cores + network + support."""

    def __init__(
        self,
        sim: Simulator,
        cores: list[XCore],
        fabric: SwallowFabric | None = None,
        include_support: bool = True,
    ):
        self.sim = sim
        self.trackers = {core.node_id: CoreEnergyTracker(core, sim) for core in cores}
        self.fabric = fabric
        self.include_support = include_support
        self._start_time = sim.now
        self._last_link_bits: dict[str, float] = {}
        self.link_energy_j = 0.0
        #: Reliable channels whose retransmission energy the ledger
        #: reports (name -> channel); see :meth:`register_retry_channel`.
        self.retry_channels: dict[str, object] = {}

    def add_core(self, core: XCore) -> None:
        """Track an additional core from now on."""
        if core.node_id not in self.trackers:
            self.trackers[core.node_id] = CoreEnergyTracker(core, self.sim)

    def update(self) -> None:
        """Bring every accumulator up to the current simulation time."""
        for tracker in self.trackers.values():
            tracker.update()
        if self.fabric is not None:
            bits_now = {
                name: stats["bits"]
                for name, stats in self.fabric.link_stats_by_class().items()
            }
            delta = {
                name: bits - self._last_link_bits.get(name, 0.0)
                for name, bits in bits_now.items()
            }
            self.link_energy_j += traffic_energy_joules(delta)
            self._last_link_bits = bits_now

    def observe_link_energy_j(self) -> float:
        """Link energy through now, without committing the bit deltas."""
        if self.fabric is None:
            return self.link_energy_j
        delta = {
            name: stats["bits"] - self._last_link_bits.get(name, 0.0)
            for name, stats in self.fabric.link_stats_by_class().items()
        }
        return self.link_energy_j + traffic_energy_joules(delta)

    # -- queries ---------------------------------------------------------------

    def core_energy_j(self, node_id: int) -> float:
        """Accumulated energy of one core (update first)."""
        self.update()
        return self.trackers[node_id].energy_j

    def core_power_mw(self, node_id: int) -> float:
        """Power of one core over its most recent window."""
        self.update()
        return self.trackers[node_id].last_window_power_mw

    @property
    def elapsed_s(self) -> float:
        """Wall-clock span of the ledger, in seconds."""
        return (self.sim.now - self._start_time) / PS_PER_S

    def register_retry_channel(self, name: str, channel) -> None:
        """Report ``channel``'s retransmission energy through the ledger.

        ``channel`` is anything with a ``retry_energy_j(accounting)``
        method (a :class:`~repro.apps.reliable.ReliableChannel`).  Retry
        traffic is ordinary traffic — its joules are already inside
        :attr:`link_energy_j` — so :meth:`retry_energy_j` is an
        *informational overlay* (how much of the link total was
        retransmission), never added to :meth:`total_energy_j`.
        """
        self.retry_channels[name] = channel

    def retry_energy_j(self) -> float:
        """Link energy spent on registered channels' retransmissions."""
        return sum(
            channel.retry_energy_j(self)
            for channel in self.retry_channels.values()
        )

    def observe_retry_energy_j(self) -> float:
        """Retransmission energy through now, without committing windows.

        The same proration as :meth:`retry_energy_j` (each channel's
        share of wire bits applied to the link total) computed against
        :meth:`observe_link_energy_j`, so observers never mutate the
        ledger they are reporting.
        """
        if self.fabric is None:
            return 0.0
        total_bits = sum(link.bits_carried for link in self.fabric.links)
        if total_bits == 0:
            return 0.0
        link_energy = self.observe_link_energy_j()
        return sum(
            link_energy * channel.stats.retry_bits / total_bits
            for channel in self.retry_channels.values()
            if channel.stats.retry_bits
        )

    def support_energy_j(self) -> float:
        """Per-node support energy (DC-DC + I/O + other) so far."""
        if not self.include_support:
            return 0.0
        return SUPPORT_MW_PER_NODE * 1e-3 * self.elapsed_s * len(self.trackers)

    def total_energy_j(self) -> float:
        """Everything: cores + links + support."""
        self.update()
        cores = sum(t.energy_j for t in self.trackers.values())
        return cores + self.link_energy_j + self.support_energy_j()

    def breakdown_j(self) -> dict[str, float]:
        """Energy by category."""
        self.update()
        return {
            "cores": sum(t.energy_j for t in self.trackers.values()),
            "links": self.link_energy_j,
            "support": self.support_energy_j(),
        }

    def mean_power_mw(self) -> float:
        """Average total power since construction."""
        elapsed = self.elapsed_s
        if elapsed == 0:
            return 0.0
        return self.total_energy_j() / elapsed * 1e3

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical ledger state with bit-exact energy accumulators.

        Deliberately does **not** call :meth:`update`: closing the
        integration windows at capture time would split them differently
        from an uninterrupted run, and float accumulation is not
        associative — the capture itself would perturb the final report
        at the bit level.  Instead the raw accumulators *and* the open
        window anchors are captured; floats are stored as
        ``float.hex()`` strings so byte-identity means bit-identity.
        """
        return {
            "start_time_ps": self._start_time,
            "link_energy_j": self.link_energy_j.hex(),
            "link_bits_seen": {
                name: float(bits)
                for name, bits in sorted(self._last_link_bits.items())
            },
            "cores": {
                str(node_id): {
                    "energy_j": tracker.energy_j.hex(),
                    "last_window_power_mw":
                        tracker.last_window_power_mw.hex(),
                    "window_start_ps": tracker._last_time,
                    "window_start_cycle": tracker._last_cycle,
                    "window_start_slots": tracker._last_slots,
                }
                for node_id, tracker in sorted(self.trackers.items())
            },
        }

    def register_metrics(self, registry) -> None:
        """Publish the ledger as metric series (lazily collected).

        The collector *observes* the ledger (open windows included)
        without closing any integration window: a metrics snapshot —
        and hence a heartbeat's metrics delta — is a pure read, so
        snapshotting mid-run perturbs neither checkpoint state nor the
        bit-exact final accumulators.  End-of-run reports
        (:func:`repro.core.transparency.build_report`) still commit
        via :meth:`update` before reading, after which observed and
        committed values coincide bit-for-bit — reports and metrics
        cannot disagree.
        """

        def _collect(emit) -> None:
            for node_id in sorted(self.trackers):
                energy_j, power_mw = self.trackers[node_id].observe()
                labels = {"node": str(node_id)}
                emit("energy.core_j", labels, energy_j)
                emit("energy.core_power_mw", labels, power_mw)
            emit("energy.links_j", {}, self.observe_link_energy_j())
            emit("energy.support_j", {}, self.support_energy_j())
            emit("energy.retry_j", {}, self.observe_retry_energy_j())
            emit("energy.elapsed_s", {}, self.elapsed_s)

        registry.register_collector(_collect)
