"""Exception types for the XS1 processor model."""

from __future__ import annotations


class XS1Error(Exception):
    """Base class for all XS1 model errors."""


class AssemblerError(XS1Error):
    """Raised for syntactically or semantically invalid assembly source."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ResourceError(XS1Error):
    """Raised for invalid resource (chanend/timer/lock) operations."""


class TrapError(XS1Error):
    """Raised when a thread executes an illegal or unimplemented operation."""


class MemoryAccessError(TrapError):
    """Raised for out-of-range or misaligned SRAM accesses.

    The XS1-L traps these in hardware (a load/store exception), so this is
    a :class:`TrapError`: code that handles traps handles memory faults
    too.
    """
