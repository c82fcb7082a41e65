"""Discrete-event simulation engine.

A single global event queue ordered by (time, sequence number) drives every
component of the simulated Swallow system: core pipelines, network links,
switches and the energy-measurement ADC all schedule callbacks here.

The sequence number makes event ordering total and deterministic: events
scheduled earlier run earlier when timestamps tie, so a simulation is a
pure function of its configuration.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import SimProfile


class SimulationError(RuntimeError):
    """Raised for invalid scheduling or a wedged simulation."""


@dataclass
class KernelStats:
    """Process-wide kernel counters (all simulators, whole interpreter).

    The benchmark harness reads this to attribute events-per-second to
    each bench without instrumenting every ``Simulator`` it creates.

    ``events_replayed`` counts events re-executed inside a
    :func:`replay_window` — deterministic replay during a checkpoint
    restore or rollback.  Replay is reconstruction, not fresh work, so
    it is ledgered separately and never inflates events-per-second.
    """

    events_executed: int = 0
    events_replayed: int = 0


#: The interpreter-wide kernel ledger (see :class:`KernelStats`).
KERNEL_STATS = KernelStats()


@contextmanager
def replay_window() -> Iterator[None]:
    """Attribute kernel events executed inside the block to *replay*.

    Everything the block adds to ``KERNEL_STATS.events_executed`` is
    moved to ``KERNEL_STATS.events_replayed`` on exit, so profiles,
    heartbeats and the bench harness can report replayed events
    separately instead of counting reconstruction as fresh throughput.
    """
    before = KERNEL_STATS.events_executed
    try:
        yield
    finally:
        replayed = KERNEL_STATS.events_executed - before
        KERNEL_STATS.events_executed = before
        KERNEL_STATS.events_replayed += replayed


class EventHandle:
    """A scheduled event, returned by :meth:`Simulator.schedule`.

    The kernel queues ``(time, seq, handle)`` tuples, so the heap orders
    entries with a C-level tuple compare and the ``seq`` tie-break means
    two handles are never compared.  The handle is the only per-event
    record: ``time`` is the absolute firing time in picoseconds,
    ``cancelled`` is set by :meth:`cancel` before the event fired, and
    ``executed`` once it fired.
    """

    __slots__ = ("time", "callback", "cancelled", "executed")

    def __init__(self, time: int, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.executed = False

    def cancel(self) -> bool:
        """Prevent the event from firing.  Idempotent.

        Cancelling an event that already fired — or a stale handle kept
        across a checkpoint restore, whose simulator no longer owns the
        event — is a safe no-op.  Returns True only when this call
        actually withdrew a pending event.
        """
        if self.executed or self.cancelled:
            return False
        self.cancelled = True
        return True


class Simulator:
    """The discrete-event kernel.

    Typical use::

        sim = Simulator()
        sim.schedule(ns(10), lambda: print("fired at", sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, EventHandle]] = []
        self._seq = 0
        self._now = 0
        self._events_processed = 0
        self._running = False
        self._queue_hwm = 0
        self._profiler = None

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    @property
    def queue_depth_high_water(self) -> int:
        """The deepest the event queue has ever been (cancelled included)."""
        return self._queue_hwm

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule in the past (delay {delay_ps} ps)")
        return self.schedule_at(self._now + delay_ps, callback)

    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; simulation time is already {self._now} ps"
            )
        handle = EventHandle(time_ps, callback)
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heappush(queue, (time_ps, seq, handle))
        if len(queue) > self._queue_hwm:
            self._queue_hwm = len(queue)
        return handle

    def next_event_time(self) -> int | None:
        """Firing time of the next pending event, or None when idle.

        Skims cancelled events off the head of the queue as a side
        effect, so checkpoint policies can peek without perturbing the
        execution trajectory.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2].cancelled:
                heappop(queue)
                if self._profiler is not None:
                    self._profiler._cancelled += 1
                continue
            return head[0]
        return None

    def step(self) -> bool:
        """Run the single next event.  Returns False if the queue is empty.

        A lean single-event body for callers that step per event; with a
        profiler installed, the event goes through the profiled loop.
        """
        if self._profiler is not None:
            return self._run_profiled(1, None) == 1
        queue = self._queue
        while queue:
            time_ps, _, event = heappop(queue)
            if event.cancelled:
                continue
            self._now = time_ps
            self._events_processed += 1
            event.executed = True
            event.callback()
            return True
        return False

    def run(self, max_events: int | None = None,
            until_ps: int | None = None) -> int:
        """The kernel's drain loop: run events in (time, seq) order.

        Stops when the queue drains, when ``max_events`` events have
        run, or when the next live event is later than ``until_ps``.
        The clock is left at the last event run, never moved past it.
        Each event's ``events_processed`` tick lands before its callback
        runs.  Returns the number of events whose callbacks completed;
        an event whose callback raises is processed but not counted
        here or in :data:`KERNEL_STATS`.
        """
        if self._running:
            raise SimulationError("re-entrant call to Simulator.run()")
        budget = -1 if max_events is None else max(max_events, 0)  # -1: no cap
        self._running = True
        start = self._events_processed
        executed = 0
        try:
            if self._profiler is not None:
                executed = self._run_profiled(budget, until_ps)
            else:
                queue = self._queue
                while executed != budget and queue:
                    time_ps, seq, event = heappop(queue)
                    if event.cancelled:
                        continue
                    if until_ps is not None and time_ps > until_ps:
                        # Popping first keeps a peek off the per-event
                        # path; the one event past the mark goes back.
                        heappush(queue, (time_ps, seq, event))
                        break
                    self._now = time_ps
                    self._events_processed += 1
                    event.executed = True
                    event.callback()
                    executed += 1
        except BaseException:
            # The event whose callback raised was processed, not completed.
            executed = self._events_processed - start - 1
            raise
        finally:
            self._running = False
            KERNEL_STATS.events_executed += executed
        return executed

    def _run_profiled(self, budget: int, until_ps: int | None) -> int:
        """:meth:`run`'s loop with the installed profiler's bookkeeping.

        Same stop rule and counting as the plain loop (``budget`` -1
        means unbounded); the profiler's own event count doubles as the
        loop counter.  The profiler's state — its event count,
        run-length ledger and sampling phase — is lifted into locals
        for the loop and written back on exit, because the observed
        kernel's per-event cost is what the observer-overhead budget
        measures (benchmarks/bench_observer_overhead.py).  Wall time is
        sampled on every ``wall_sample_every``-th event of the
        profiler's own count, so step()- and run()-driven windows sample
        the same events.
        """
        queue = self._queue
        profiler = self._profiler
        buf = profiler._buf  # retained across folds: _fold() clears in place
        stride = profiler._sample_every
        after_event = profiler.after_event
        start = count = profiler._events
        stop = -1 if budget < 0 else start + budget
        next_sample = count - count % stride + stride
        last_key = profiler._rle_key
        run_len = profiler._rle_count
        cancelled = 0
        try:
            while count != stop and queue:
                time_ps, seq, event = heappop(queue)
                if event.cancelled:
                    cancelled += 1
                    continue
                if until_ps is not None and time_ps > until_ps:
                    heappush(queue, (time_ps, seq, event))
                    break
                self._now = time_ps
                self._events_processed += 1
                event.executed = True
                callback = event.callback
                try:
                    key = callback.__code__
                except AttributeError:
                    key = callback
                if key is last_key:
                    run_len += 1
                else:
                    if run_len:
                        buf.append((last_key, run_len))
                    last_key = key
                    run_len = 1
                count += 1
                if count != next_sample:
                    callback()
                else:
                    next_sample = count + stride
                    profiler._current_key = key
                    profiler._event_start = perf_counter()
                    callback()
                    after_event()
        finally:
            profiler._events = count
            profiler._cancelled += cancelled
            profiler._rle_key = last_key
            profiler._rle_count = run_len
        return count - start

    def run_until(self, time_ps: int) -> int:
        """Run all events with timestamp <= ``time_ps``; advance time there.

        Returns the number of events executed by this call.
        """
        if time_ps < self._now:
            raise SimulationError(
                f"cannot run backwards to {time_ps} ps from {self._now} ps"
            )
        executed = self.run(until_ps=time_ps)
        self._now = time_ps
        return executed

    def run_for(self, duration_ps: int) -> int:
        """Run for ``duration_ps`` picoseconds of simulated time."""
        return self.run_until(self._now + duration_ps)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @contextmanager
    def profile(self, tracer=None, **profiler_options: Any) -> "Iterator[SimProfile]":
        """Profile the simulator for the duration of a ``with`` block.

        Yields a :class:`~repro.obs.profiling.SimProfile` that is filled
        in as events execute and sealed (wall time measured) on exit::

            with sim.profile() as profile:
                sim.run()
            print(profile.render())

        Profiling nests: an inner ``profile()`` temporarily replaces the
        outer hook and restores it on exit.  With a ``tracer``
        (a :class:`~repro.sim.tracing.TraceRecorder`), the profile also
        reports how many trace records the recorder's ring buffer
        evicted during the window (``trace_dropped_events``), so
        flight-recorder truncation is visible instead of silent.
        Extra keyword arguments configure the
        :class:`~repro.obs.profiling.SimProfiler` (e.g.
        ``wall_sample_every`` for sparser wall-time sampling).
        """
        from repro.obs.profiling import SimProfiler

        profiler = SimProfiler(**profiler_options)
        profiler.attach_queue(self._queue)
        dropped_before = tracer.dropped if tracer is not None else 0
        seq_before = self._seq
        now_before = self._now
        previous = self._profiler
        self._profiler = profiler
        try:
            yield profiler.profile
        finally:
            self._profiler = previous
            profiler.finish(
                queue_pushes=self._seq - seq_before,
                queue_depth_high_water=self._queue_hwm,
                sim_time_ps=self._now - now_before,
            )
            if tracer is not None:
                profiler.profile.trace_dropped_events = (
                    tracer.dropped - dropped_before
                )

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish kernel health series on a metrics registry.

        Series: ``sim.events_processed``, ``sim.pending_events``,
        ``sim.queue_depth_hwm`` and ``sim.now_ps`` — all collected
        lazily, so registration adds no per-event cost.
        """
        registry.counter_fn("sim.events_processed",
                            lambda: self._events_processed)
        registry.gauge_fn("sim.pending_events", lambda: self.pending_events)
        registry.gauge_fn("sim.queue_depth_hwm", lambda: self._queue_hwm)
        registry.gauge_fn("sim.now_ps", lambda: self._now)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.checkpoint)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Canonical kernel state for a checkpoint bundle.

        The event queue itself is *not* serialized — queued callbacks
        are arbitrary closures.  Restore works by schedulable-state
        re-registration: the workload is rebuilt and replayed to
        ``events_processed``, which reproduces the queue exactly (the
        kernel is a pure function of its configuration); this state dict
        is then the proof obligation the replayed kernel must meet.
        """
        return {
            "now_ps": self._now,
            "seq": self._seq,
            "events_processed": self._events_processed,
            "pending_events": self.pending_events,
            "queue_depth_hwm": self._queue_hwm,
        }


class Process:
    """A coroutine-style process on top of the event kernel.

    The generator yields integer delays in picoseconds; the kernel resumes
    it after each delay.  This gives components with sequential behaviour
    (traffic generators, the measurement ADC, behavioural threads) a
    straight-line coding style::

        def body():
            yield ns(100)      # wait 100 ns
            do_something()
            yield ns(50)

        Process(sim, body())
    """

    def __init__(self, sim: Simulator, generator: Any, name: str = "process"):
        self._sim = sim
        self._generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        sim.schedule(0, self._resume)

    def _resume(self) -> None:
        if self.finished:
            return
        try:
            delay = next(self._generator)
        except StopIteration as stop:
            self.finished = True
            self.result = getattr(stop, "value", None)
            return
        if not isinstance(delay, int) or delay < 0:
            raise SimulationError(
                f"process {self.name!r} yielded invalid delay {delay!r}"
            )
        self._sim.schedule(delay, self._resume)
