"""Tests for the self-measuring power governor."""

import pytest

from repro import SwallowSystem, assemble
from repro.core import PowerGovernor
from repro.energy import active_power_mw
from repro.sim import verify_state


def saturate(core, iterations=10_000_000):
    program = assemble(f"""
        ldc r0, {iterations}
    loop:
        subi r0, r0, 1
        bt r0, loop
        freet
    """)
    for _ in range(4):
        core.spawn(program)


class TestGovernor:
    def test_validation(self):
        system = SwallowSystem()
        board = system.measurement_board()
        with pytest.raises(ValueError):
            PowerGovernor(board, 0, budget_mw=-1)
        with pytest.raises(ValueError):
            PowerGovernor(board, 0, budget_mw=100, ladder_mhz=(500, 71))

    def test_governor_throttles_hot_rail(self):
        """Four saturated cores exceed the budget; the governor must
        step their frequency down until the rail fits."""
        system = SwallowSystem()
        board = system.measurement_board()
        for core in board.rails[0].cores:
            saturate(core)
        # Budget of 500 mW: four loaded cores at 500 MHz draw ~780 mW.
        governor = PowerGovernor(board, channel=0, budget_mw=500.0,
                                 period_cycles=20_000)
        host = system.core(8)  # a core on another rail
        governor.install(host, iterations=30)
        system.run_for_us(3_000)
        assert governor.log.adjustments > 0
        final_f = governor.log.frequencies_mhz[-1]
        assert final_f < 500
        # Final steady-state rail power within budget.
        assert governor.log.samples_mw[-1] <= 500.0 * 1.1

    def test_governor_raises_frequency_when_idle(self):
        """An idle rail sits far below budget: the ladder climbs back up
        (and stays at the top)."""
        system = SwallowSystem()
        board = system.measurement_board()
        governor = PowerGovernor(board, channel=1, budget_mw=900.0,
                                 period_cycles=10_000)
        governor._level = 0  # start at 71 MHz
        for core in governor.governed_cores:
            from repro import Frequency

            core.set_frequency(Frequency.mhz(71))
        governor.install(system.core(0), iterations=20)
        system.run_for_us(2_000)
        assert governor.log.frequencies_mhz[-1] == 500

    def test_governed_cores_are_rail_cores(self):
        system = SwallowSystem()
        board = system.measurement_board()
        governor = PowerGovernor(board, channel=2, budget_mw=100)
        assert governor.governed_cores == board.rails[2].cores


class TestGovernorState:
    def run_governed(self):
        system = SwallowSystem()
        board = system.measurement_board()
        for core in board.rails[0].cores:
            saturate(core, iterations=1_000_000)
        governor = PowerGovernor(board, channel=0, budget_mw=500.0,
                                 period_cycles=20_000)
        governor.install(system.core(8), iterations=10)
        system.run_for_us(1_000)
        return governor

    def test_snapshot_captures_config_level_and_log(self):
        governor = self.run_governed()
        state = governor.snapshot_state()
        assert state["channel"] == 0
        assert state["budget_mw"] == 500.0
        assert state["level"] == governor._level
        assert state["governed_nodes"] == [
            core.node_id for core in governor.governed_cores
        ]
        assert state["adjustments"] == governor.log.adjustments > 0
        assert len(state["samples_mw"]) == len(state["frequencies_mhz"])

    def test_restore_accepts_identical_replay(self):
        first = self.run_governed()
        second = self.run_governed()          # deterministic re-run
        verify_state(second.snapshot_state(), first.snapshot_state(),
                     "governor")

    def test_restore_rejects_divergence(self):
        from repro.sim.state import StateMismatchError

        governor = self.run_governed()
        forged = governor.snapshot_state()
        forged["level"] = (forged["level"] + 1) % 5
        with pytest.raises(StateMismatchError):
            verify_state(governor.snapshot_state(), forged, "governor")
