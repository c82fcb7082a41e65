"""Channel ends.

A channel end is the core-side endpoint of XS1 channel communication.  It
owns a small receive buffer and a small transmit buffer; when either is
exhausted the issuing thread pauses ("Communication instructions will
block if the output buffer is full", paper §V.D) and is woken by the
fabric when space or data appears.

The chanend knows nothing about topology: it hands tokens (tagged with a
destination snapshot) to a :class:`~repro.xs1.fabric.Fabric`, which may be
the trivial loopback used for single-core tests or the full Swallow
network (:mod:`repro.network.fabric`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.network.header import ChanendAddress
from repro.network.token import TOKEN_BITS, Token
from repro.xs1.errors import ResourceError

if TYPE_CHECKING:
    from repro.xs1.core import XCore
    from repro.xs1.thread import HardwareThread

#: Token capacity of each direction's buffer (XS1-like small buffers).
CHANEND_BUFFER_TOKENS = 8


class Chanend:
    """One channel end on a core."""

    def __init__(self, core: "XCore", index: int):
        self.core = core
        self.index = index
        self.address = ChanendAddress(core.node_id, index)
        self.allocated = False
        self.dest: ChanendAddress | None = None
        self.rx: deque[Token] = deque()
        self.tx: deque[Token] = deque()
        self.rx_capacity = CHANEND_BUFFER_TOKENS
        self.tx_capacity = CHANEND_BUFFER_TOKENS
        self._rx_waiter: "HardwareThread | None" = None
        self._rx_need = 0
        self._tx_waiter: "HardwareThread | None" = None
        self._tx_need = 0
        self.tokens_sent = 0
        self.tokens_received = 0
        #: Optional hook fired after each delivered token (used by the
        #: Ethernet bridge and other non-core endpoints).
        self.on_deliver = None
        #: Causal span of the most recently delivered span-tagged token
        #: (see :mod:`repro.obs.spans`); consumed by the receiving
        #: thread to reconstruct producer → consumer messages.
        self.last_rx_span = None
        #: XS1 event state (``setv``/``eeu``): vector = instruction index
        #: jumped to when the event fires; the owning thread is whichever
        #: enabled the event.
        self.event_vector: int | None = None
        self.event_enabled = False
        self.event_thread = None

    # -- events ------------------------------------------------------------

    @property
    def event_ready(self) -> bool:
        """A chanend event is ready whenever receive data is buffered."""
        return bool(self.rx)

    def maybe_fire_event(self) -> None:
        """Dispatch the event if enabled, ready, and the owner is waiting."""
        if (
            self.event_enabled
            and self.event_ready
            and self.event_thread is not None
            and getattr(self.event_thread, "waiting_for_event", False)
        ):
            self.event_thread.take_event(self.event_vector)

    # -- configuration ----------------------------------------------------

    def set_dest(self, address: ChanendAddress) -> None:
        """Set the destination used for subsequently sent tokens (``setd``)."""
        self.dest = address

    def reset(self) -> None:
        """Clear all state (used by ``freer``)."""
        self.dest = None
        self.rx.clear()
        self.tx.clear()
        self._rx_waiter = None
        self._tx_waiter = None
        self._rx_need = 0
        self._tx_need = 0
        self.event_vector = None
        self.event_enabled = False
        self.event_thread = None
        self.last_rx_span = None

    # -- transmit side (called by the executor) ----------------------------

    def tx_space(self) -> int:
        """Free token slots in the transmit buffer."""
        return self.tx_capacity - len(self.tx)

    def push_tx(self, tokens: list[Token]) -> None:
        """Enqueue tokens for transmission; caller must have checked space.

        When the issuing thread carries a causal span, outgoing tokens
        are stamped with it (so every downstream hop can charge the
        span) and the span's payload-bit ledger grows.
        """
        if self.dest is None:
            raise ResourceError(f"{self.address}: send before setd")
        if len(tokens) > self.tx_space():
            raise ResourceError(f"{self.address}: transmit buffer overflow")
        # getattr: bridge shims pose as cores but run no threads.
        thread = getattr(self.core, "current_thread", None)
        if thread is not None and thread.span is not None:
            span = thread.span
            tokens = [replace(token, span=span) for token in tokens]
            span.bits_sent += TOKEN_BITS * len(tokens)
            span.last_send_ps = self.core.sim.now
        self.tx.extend(tokens)
        self.tokens_sent += len(tokens)
        self.core.fabric.notify_tx(self)

    def wait_tx_space(self, thread: "HardwareThread", need: int) -> None:
        """Pause ``thread`` until ``need`` transmit slots are free."""
        self._tx_waiter = thread
        self._tx_need = need
        thread.pause(f"out on {self.address}")

    # -- transmit side (called by the fabric) -------------------------------

    def peek_tx(self) -> Token | None:
        """The next token awaiting transmission, if any."""
        return self.tx[0] if self.tx else None

    def pull_tx(self) -> Token:
        """Remove and return the next token awaiting transmission."""
        token = self.tx.popleft()
        if self._tx_waiter is not None and self.tx_space() >= self._tx_need:
            waiter, self._tx_waiter = self._tx_waiter, None
            waiter.resume()
        return token

    # -- receive side (called by the fabric) --------------------------------

    def rx_space(self) -> int:
        """Free token slots in the receive buffer."""
        return self.rx_capacity - len(self.rx)

    def deliver(self, token: Token) -> bool:
        """Deliver one token into the receive buffer.

        Returns False (and drops nothing) when the buffer is full — the
        fabric must hold the token and retry, which is how backpressure
        propagates into the network's credit scheme.
        """
        if self.rx_space() <= 0:
            return False
        self.rx.append(token)
        self.tokens_received += 1
        if token.span is not None:
            self.last_rx_span = token.span
        if self._rx_waiter is not None and len(self.rx) >= self._rx_need:
            waiter, self._rx_waiter = self._rx_waiter, None
            waiter.resume()
        if self.on_deliver is not None:
            self.on_deliver(self)
        self.maybe_fire_event()
        return True

    # -- receive side (called by the executor) ------------------------------

    def rx_available(self) -> int:
        """Number of buffered received tokens."""
        return len(self.rx)

    def pop_rx(self) -> Token:
        """Consume the oldest received token (freeing buffer space)."""
        token = self.rx.popleft()
        self.core.fabric.notify_rx_space(self)
        return token

    def wait_rx(self, thread: "HardwareThread", need: int) -> None:
        """Pause ``thread`` until ``need`` tokens are buffered."""
        self._rx_waiter = thread
        self._rx_need = need
        thread.pause(f"in on {self.address}")

    def cancel_rx_wait(self, thread: "HardwareThread") -> bool:
        """Withdraw ``thread``'s pending receive wait (timeout support).

        Returns True when the thread was indeed the registered waiter;
        False when data already arrived and the wait was satisfied (the
        timeout lost the race and must be ignored).
        """
        if self._rx_waiter is thread:
            self._rx_waiter = None
            self._rx_need = 0
            return True
        return False

    def cancel_tx_wait(self, thread: "HardwareThread") -> bool:
        """Withdraw ``thread``'s pending transmit-space wait.

        The send-side twin of :meth:`cancel_rx_wait`: a send deadline
        passed while the transmit buffer was still full (e.g. the route
        ahead is severed and nothing drains).  Returns True when the
        thread was still the registered waiter.
        """
        if self._tx_waiter is thread:
            self._tx_waiter = None
            self._tx_need = 0
            return True
        return False

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical chanend state: buffers, counters, waiter presence."""
        return {
            "index": self.index,
            "allocated": self.allocated,
            "dest": str(self.dest) if self.dest is not None else None,
            "rx": [[t.value, t.is_control] for t in self.rx],
            "tx": [[t.value, t.is_control] for t in self.tx],
            "tokens_sent": self.tokens_sent,
            "tokens_received": self.tokens_received,
            "rx_waiting": self._rx_waiter is not None,
            "tx_waiting": self._tx_waiter is not None,
        }

    def __str__(self) -> str:
        return f"chanend {self.address}"
