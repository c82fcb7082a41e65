"""A self-measuring power governor.

The paper's flagship capability: "it is possible to create a program
that can measure its own power consumption and adapt to the results"
(§II).  The governor is such a program: a behavioural task that
periodically samples a rail of the measurement daughter-board and
frequency-scales the cores on that rail to hold a power budget,
exploiting the XS1-L's run-time frequency scaling (§III.B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.dvfs import LADDER_MHZ
from repro.energy.measurement import MeasurementBoard
from repro.sim import Frequency
from repro.xs1.behavioral import BehavioralThread, Sleep
from repro.xs1.core import XCore

#: Frequency ladder the governor steps through (MHz): the machine-wide
#: DVFS ladder as whole megahertz, so the logged rungs stay ints.
DEFAULT_LADDER_MHZ = tuple(int(f_mhz) for f_mhz in LADDER_MHZ)


@dataclass
class GovernorLog:
    """What the governor saw and did."""

    samples_mw: list[float] = field(default_factory=list)
    frequencies_mhz: list[float] = field(default_factory=list)
    adjustments: int = 0


class PowerGovernor:
    """Budget-holding frequency governor for one measured rail."""

    def __init__(
        self,
        board: MeasurementBoard,
        channel: int,
        budget_mw: float,
        period_cycles: int = 50_000,
        ladder_mhz: tuple[int, ...] = DEFAULT_LADDER_MHZ,
        headroom: float = 0.85,
    ):
        if budget_mw <= 0:
            raise ValueError("budget must be positive")
        if not ladder_mhz or list(ladder_mhz) != sorted(ladder_mhz):
            raise ValueError("frequency ladder must be ascending and non-empty")
        self.board = board
        self.channel = channel
        self.budget_mw = budget_mw
        self.period_cycles = period_cycles
        self.ladder_mhz = ladder_mhz
        self.headroom = headroom
        self.log = GovernorLog()
        self._level = len(ladder_mhz) - 1

    @property
    def governed_cores(self) -> list[XCore]:
        """The cores on the sampled rail."""
        return self.board.rails[self.channel].cores

    def install(self, host_core: XCore, iterations: int) -> BehavioralThread:
        """Run the governor loop on ``host_core`` for ``iterations`` samples."""

        def body():
            for _ in range(iterations):
                yield Sleep(self.period_cycles)
                reading = self.board.sample_channel(self.channel)
                self.log.samples_mw.append(reading)
                self._adjust(reading)
                self.log.frequencies_mhz.append(self.ladder_mhz[self._level])

        return BehavioralThread(host_core, body(), name="governor")

    def _adjust(self, reading_mw: float) -> None:
        if reading_mw > self.budget_mw and self._level > 0:
            self._level -= 1
        elif (
            reading_mw < self.budget_mw * self.headroom
            and self._level < len(self.ladder_mhz) - 1
        ):
            self._level += 1
        else:
            return
        self.log.adjustments += 1
        frequency = Frequency.mhz(self.ladder_mhz[self._level])
        for core in self.governed_cores:
            core.set_frequency(frequency)

    # -- checkpointing (see repro.checkpoint) ------------------------------------

    def snapshot_state(self) -> dict:
        """Canonical governor state: configuration, ladder level, log.

        Everything a deterministic replay must reproduce: the budget
        and governed rail (configuration), the current ladder level,
        and the full sample/adjustment log.
        """
        return {
            "channel": self.channel,
            "budget_mw": self.budget_mw,
            "period_cycles": self.period_cycles,
            "ladder_mhz": [float(f) for f in self.ladder_mhz],
            "headroom": self.headroom,
            "level": self._level,
            "governed_nodes": [
                core.node_id for core in self.governed_cores
            ],
            "samples_mw": list(self.log.samples_mw),
            "frequencies_mhz": list(self.log.frequencies_mhz),
            "adjustments": self.log.adjustments,
        }
