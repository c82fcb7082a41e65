"""Time and frequency primitives for the Swallow simulator.

All simulation time is an integer count of **picoseconds**.  Integer time
keeps the simulator deterministic: two runs of the same configuration
produce bit-identical event orderings and traces, mirroring the
time-deterministic execution of the XS1-L hardware that the Swallow paper
builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

#: Picoseconds per common unit.
PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds (rounded)."""
    return round(value * PS_PER_NS)


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds (rounded)."""
    return round(value * PS_PER_US)


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds (rounded)."""
    return round(value * PS_PER_MS)


def seconds(value: float) -> int:
    """Convert seconds to integer picoseconds (rounded)."""
    return round(value * PS_PER_S)


def to_ns(ps: int) -> float:
    """Convert picoseconds to nanoseconds as a float (for reporting)."""
    return ps / PS_PER_NS


def to_us(ps: int) -> float:
    """Convert picoseconds to microseconds as a float (for reporting)."""
    return ps / PS_PER_US


def to_seconds(ps: int) -> float:
    """Convert picoseconds to seconds as a float (for reporting)."""
    return ps / PS_PER_S


@dataclass(frozen=True)
class Frequency:
    """An exact clock frequency.

    The clock period is the integer number of picoseconds nearest to
    ``1e12 / hz``; for the frequencies Swallow uses (multiples of 1 MHz
    up to 500 MHz) the common cases (500 MHz -> 2000 ps, 250 MHz ->
    4000 ps, 125 MHz -> 8000 ps) are exact.
    """

    hz: int

    def __post_init__(self) -> None:
        if self.hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.hz}")

    @classmethod
    def mhz(cls, value: float) -> "Frequency":
        """Build a frequency from a MHz value."""
        return cls(round(value * 1_000_000))

    @property
    def megahertz(self) -> float:
        """The frequency in MHz (float, for reporting and power models)."""
        return self.hz / 1_000_000

    @cached_property
    def period_ps(self) -> int:
        """The clock period in integer picoseconds (computed once).

        Cached in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and ``repr`` still see only ``hz``.
        """
        return max(1, round(PS_PER_S / self.hz))

    def cycles_to_ps(self, cycles: int) -> int:
        """Duration of ``cycles`` clock cycles, in picoseconds."""
        if cycles < 0:
            raise ValueError(f"cycle count must be non-negative, got {cycles}")
        return cycles * self.period_ps

    def ps_to_cycles(self, ps: int) -> int:
        """Number of whole clock cycles elapsed in ``ps`` picoseconds."""
        if ps < 0:
            raise ValueError(f"duration must be non-negative, got {ps}")
        return ps // self.period_ps

    def __str__(self) -> str:
        return f"{self.megahertz:g} MHz"


#: Swallow's maximum core/network clock.
F_500MHZ = Frequency(500_000_000)
#: Lowest frequency point used in the paper's scaling experiments (Fig. 3/4).
F_71MHZ = Frequency(71_000_000)
