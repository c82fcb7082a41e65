"""Dynamic voltage & frequency scaling projection (paper Fig. 4).

Swallow's XS1-L parts only scale frequency, but §III.B derives the extra
saving full DVFS would give using P = C·V²·f and the experimentally
determined minimum voltages: 0.6 V at 71 MHz and 0.95 V at 500 MHz (we
interpolate linearly between them).  Power at a scaled voltage is the 1 V
figure multiplied by V² — both the dynamic CV²f term and (to first order,
as the paper does) the static term scale together.
"""

from __future__ import annotations

from repro.energy.power_model import (
    F_MAX_MHZ,
    F_MIN_MHZ,
    active_power_mw,
    core_power_mw,
)

#: Experimentally determined minimum supply points (MHz, V) from §III.B.
VMIN_ANCHORS = ((71.0, 0.60), (500.0, 0.95))

#: Nominal rail voltage of current Swallow boards.
V_NOMINAL = 1.0


def min_voltage(f_mhz: float) -> float:
    """Minimum allowable Vdd at ``f_mhz``, linearly interpolated.

    Clamped to the 0.6 V floor below 71 MHz; above 500 MHz the part is out
    of spec and we raise.
    """
    (f0, v0), (f1, v1) = VMIN_ANCHORS
    if f_mhz > f1:
        raise ValueError(f"{f_mhz} MHz exceeds the {f1:g} MHz maximum")
    if f_mhz <= f0:
        return v0
    return v0 + (v1 - v0) * (f_mhz - f0) / (f1 - f0)


def power_at_voltage_mw(f_mhz: float, voltage: float, utilization: float = 1.0) -> float:
    """Core power at (f, V): the 1 V model scaled by (V / 1 V)^2."""
    if voltage <= 0:
        raise ValueError(f"voltage must be positive, got {voltage}")
    return core_power_mw(f_mhz, utilization) * (voltage / V_NOMINAL) ** 2


def dvfs_power_mw(f_mhz: float, utilization: float = 1.0) -> float:
    """Core power with the voltage dropped to the minimum for ``f_mhz``."""
    return power_at_voltage_mw(f_mhz, min_voltage(f_mhz), utilization)


#: Discrete operating points a DVFS policy may step between, lowest
#: first; the PowerGovernor's ladder derives from it.  71 MHz is the
#: 0.6 V anchor, 500 MHz the 0.95 V maximum.
LADDER_MHZ = (71.0, 125.0, 250.0, 375.0, 500.0)


def ladder_clamp(required_mhz: float, ladder=LADDER_MHZ) -> float:
    """Smallest ladder frequency able to supply ``required_mhz``.

    Demand above the top rung clamps to it — the policy then runs flat
    out and the schedule's feasibility is the scheduler's problem.
    """
    for f_mhz in ladder:
        if f_mhz >= required_mhz:
            return f_mhz
    return ladder[-1]


def dvfs_operating_point(f_mhz: float):
    """The (Frequency, voltage) pair for running at ``f_mhz``.

    Voltage is the §III.B minimum for the frequency — what
    :meth:`XCore.set_dvfs_operating_point` expects.
    """
    from repro.sim import Frequency

    return Frequency.mhz(f_mhz), min_voltage(f_mhz)


def dvfs_saving_fraction(f_mhz: float) -> float:
    """Fraction of power saved by voltage scaling at ``f_mhz`` (loaded)."""
    base = active_power_mw(f_mhz)
    return 1.0 - dvfs_power_mw(f_mhz) / base


def figure4_series(points: int = 30) -> list[dict[str, float]]:
    """The two Fig. 4 curves: power at 1 V and after voltage scaling.

    Returns one row per frequency: ``{"f_mhz", "p_1v_mw", "p_dvfs_mw"}``
    for a single core under four-thread load.
    """
    if points < 2:
        raise ValueError("need at least two points")
    rows = []
    for i in range(points):
        f_mhz = F_MIN_MHZ + (F_MAX_MHZ - F_MIN_MHZ) * i / (points - 1)
        rows.append(
            {
                "f_mhz": f_mhz,
                "p_1v_mw": active_power_mw(f_mhz),
                "p_dvfs_mw": dvfs_power_mw(f_mhz),
            }
        )
    return rows
