"""Disassembler round-trip: listing -> reassembly -> identical program."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xs1 import INSTRUCTION_SET, Operand, assemble

#: Mnemonics whose operands we can synthesize freely.
_SAFE_MNEMONICS = sorted(
    name for name, spec in INSTRUCTION_SET.items()
    if Operand.LABEL not in spec.operands
)


@st.composite
def random_programs(draw):
    """Random straight-line programs (labels handled separately)."""
    count = draw(st.integers(min_value=1, max_value=12))
    lines = []
    for _ in range(count):
        mnemonic = draw(st.sampled_from(_SAFE_MNEMONICS))
        spec = INSTRUCTION_SET[mnemonic]
        operands = []
        for kind in spec.operands:
            if kind is Operand.REG:
                operands.append(f"r{draw(st.integers(min_value=0, max_value=11))}")
            else:
                operands.append(str(draw(st.integers(min_value=0, max_value=255))))
        lines.append(f"{mnemonic} {', '.join(operands)}".strip())
    lines.append("freet")
    return "\n".join(lines)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(random_programs())
    def test_disassemble_reassembles_identically(self, source):
        first = assemble(source)
        second = assemble(first.disassemble())
        assert [str(i) for i in first.instructions] == [
            str(i) for i in second.instructions
        ]

    def test_labelled_program_roundtrip(self):
        source = """
        start:
            ldc r0, 10
        loop:
            subi r0, r0, 1
            bt r0, loop
            bl helper
            freet
        helper:
            nop
            ret
        """
        first = assemble(source)
        listing = first.disassemble()
        # Branch targets in a listing are raw indices; rebuild via labels.
        assert "loop:" in listing and "helper:" in listing

    @settings(max_examples=20, deadline=None)
    @given(random_programs())
    def test_roundtrip_execution_equivalent(self, source):
        """The reassembled program executes identically."""
        from repro.sim import Simulator
        from repro.xs1 import LoopbackFabric, TrapError, XCore

        def run(program):
            sim = Simulator()
            core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
            thread = core.spawn(program)
            try:
                sim.run(max_events=100_000)
            except TrapError as trap:
                return ("trap", str(trap).split(":")[-1])
            if not thread.halted:
                return ("blocked", thread.pause_reason)
            return ("halted", thread.regs.snapshot(), sim.now)

        first = run(assemble(source))
        second = run(assemble(assemble(source).disassemble()))
        assert first == second

    def test_memory_fault_traps_before_and_after_roundtrip(self):
        """A misaligned load is a trap, in the original and the
        reassembled program alike (a draw of the property above)."""
        from repro.sim import Simulator
        from repro.xs1 import LoopbackFabric, TrapError, XCore

        source = "ldc r1, 1\nldw r0, r1, 0\nfreet"
        for program in (assemble(source),
                        assemble(assemble(source).disassemble())):
            sim = Simulator()
            core = XCore(sim, node_id=0, fabric=LoopbackFabric(sim))
            core.spawn(program)
            with pytest.raises(TrapError, match="misaligned"):
                sim.run(max_events=100_000)
