"""Single-cycle SRAM model.

Each XS1-L core carries 64 KiB of unified single-cycle SRAM and no cache —
one of the two pillars of Swallow's time determinism (the other being the
fixed-completion-time pipeline).  Every access completes in one cycle, so
the memory model only has to enforce bounds and alignment; timing lives in
the core's issue scheduler.
"""

from __future__ import annotations

from repro.xs1.errors import MemoryAccessError

#: SRAM size of an XS1-L core (bytes).
SRAM_BYTES = 64 * 1024


class Sram:
    """Byte-addressable SRAM with word/half/byte access, little-endian."""

    def __init__(self, size: int = SRAM_BYTES):
        if size <= 0 or size % 4 != 0:
            raise ValueError(f"SRAM size must be a positive multiple of 4, got {size}")
        self.size = size
        self._data = bytearray(size)
        self.loads = 0
        self.stores = 0

    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise MemoryAccessError(
                f"address {address:#x} (+{width}) outside SRAM of {self.size:#x} bytes"
            )
        if address % width != 0:
            raise MemoryAccessError(
                f"address {address:#x} misaligned for {width}-byte access"
            )

    def load_word(self, address: int) -> int:
        """Read a 32-bit little-endian word."""
        self._check(address, 4)
        self.loads += 1
        return int.from_bytes(self._data[address : address + 4], "little")

    def store_word(self, address: int, value: int) -> None:
        """Write a 32-bit little-endian word."""
        self._check(address, 4)
        self.stores += 1
        self._data[address : address + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")

    def load_half(self, address: int) -> int:
        """Read an unsigned 16-bit little-endian halfword."""
        self._check(address, 2)
        self.loads += 1
        return int.from_bytes(self._data[address : address + 2], "little")

    def store_half(self, address: int, value: int) -> None:
        """Write a 16-bit little-endian halfword."""
        self._check(address, 2)
        self.stores += 1
        self._data[address : address + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def load_byte(self, address: int) -> int:
        """Read an unsigned byte."""
        self._check(address, 1)
        self.loads += 1
        return self._data[address]

    def store_byte(self, address: int, value: int) -> None:
        """Write a byte."""
        self._check(address, 1)
        self.stores += 1
        self._data[address] = value & 0xFF

    def write_block(self, address: int, data: bytes) -> None:
        """Bulk write (program loading); byte-aligned."""
        if address < 0 or address + len(data) > self.size:
            raise MemoryAccessError(
                f"block [{address:#x}, +{len(data)}) outside SRAM"
            )
        self._data[address : address + len(data)] = data

    def read_block(self, address: int, length: int) -> bytes:
        """Bulk read; byte-aligned."""
        if address < 0 or address + length > self.size:
            raise MemoryAccessError(
                f"block [{address:#x}, +{length}) outside SRAM"
            )
        return bytes(self._data[address : address + length])

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical SRAM state: access counters plus a content digest.

        The digest (not the 64 KiB image) goes into checkpoint bundles;
        restore replays the workload, which rewrites the memory, and the
        digest proves the replayed image is byte-identical.
        """
        import hashlib

        return {
            "size": self.size,
            "loads": self.loads,
            "stores": self.stores,
            "sha256": hashlib.sha256(self._data).hexdigest(),
        }
