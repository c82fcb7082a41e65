"""Layer tracer: per-layer host time and work counts, gathered from outside.

Nothing in ``src/`` knows about this module.  While a :class:`LayerTracer`
is installed it patches, at class level, the public functions at each
layer boundary of the simulator and restores every original on exit:

* ``Simulator.schedule_at`` — every queued callback is wrapped so that
  its host time is charged to the layer that owns the callback (the
  module it was defined in); the push itself is charged to ``sim``.
* boundary functions of the other layers (ledger updates, ADC reads,
  fabric notifications, channel-end deliveries, scheduler and DVFS
  policy hooks, machine assembly) open a nested span of their layer.

A layer's self time is the wall time of its spans minus the part their
child spans cover, so self times partition the traced interval exactly.
Spans (name, start, end, parent; one run id per workload iteration) are
kept in memory, capped, and written out once at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

#: Layers the tracer attributes host time to, named after their modules.
LAYERS = ("sim", "xs1", "network", "energy", "nos", "checkpoint", "board")

#: Source-path fragment -> layer, first match wins.
_PATH_LAYERS = (
    ("/repro/xs1/", "xs1"),
    ("/repro/apps/", "xs1"),
    ("/repro/network/", "network"),
    ("/repro/obs/netscope", "network"),
    ("/repro/energy/", "energy"),
    ("/repro/obs/watch", "energy"),
    ("/repro/core/", "nos"),
    ("/repro/nos/", "nos"),
    ("/repro/faults/", "nos"),
    ("/repro/checkpoint/", "checkpoint"),
    ("/repro/board/", "board"),
    ("/repro/sim/", "sim"),
)

#: Spans kept per traced iteration; later spans are counted, not stored.
SPAN_CAP = 20_000


def _layer_of_path(path: str) -> str:
    path = path.replace("\\", "/")
    for fragment, layer in _PATH_LAYERS:
        if fragment in path:
            return layer
    return "bench"


class LayerTracer:
    """Self time per layer, work counters, and a bounded span log."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.self_s = {layer: 0.0 for layer in (*LAYERS, "bench")}
        self.counts: dict[str, int] = {}
        self.pushes_by_layer = {layer: 0 for layer in (*LAYERS, "bench")}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.board_build_s = 0.0
        self._origin = perf_counter()
        #: Open spans, innermost last: (layer, span id, start).
        self._stack: list[tuple[str, int, float]] = [("bench", 0, self._origin)]
        #: When the innermost span last started accruing self time.
        self._mark = self._origin
        self._next_id = 1
        self._layer_cache: dict[object, str] = {}
        self._process_code = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span stack -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        """Open a span of ``layer`` nested in the current one."""
        now = perf_counter()
        stack = self._stack
        self.self_s[stack[-1][0]] += now - self._mark
        self._mark = now
        stack.append((layer, self._next_id, now))
        self._next_id += 1

    def exit(self, keep: bool = False) -> None:
        """Close the innermost span (``keep``: record it past the cap)."""
        now = perf_counter()
        stack = self._stack
        layer, span_id, start = stack.pop()
        self.self_s[layer] += now - self._mark
        self._mark = now
        if keep or len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, stack[-1][1], layer, start, now))
        else:
            self.spans_dropped += 1

    @contextmanager
    def span(self, name: str):
        """A named phase span (setup, sim, checkpoint), always recorded."""
        self.self_s.setdefault(name, 0.0)
        self.pushes_by_layer.setdefault(name, 0)
        self.enter(name)
        try:
            yield
        finally:
            self.exit(keep=True)

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    # -- attribution ------------------------------------------------------------

    def layer_of(self, callback) -> str:
        """The layer owning a queued callback (by its defining module).

        A :class:`~repro.sim.engine.Process` step belongs to the module
        of the generator it drives; a boundary wrapper to its layer.
        """
        code = getattr(callback, "__code__", None)
        if code is None:                    # a callable object
            code = type(callback).__call__.__code__
        elif code is self._process_code:
            code = callback.__self__._generator.gi_code
        layer = self._layer_cache.get(code)
        if layer is None:
            layer = self._layer_cache[code] = _layer_of_path(code.co_filename)
        if layer == "bench":                # a wrapper from this module
            layer = getattr(callback, "_perfbench_layer", layer)
        return layer

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap(self, owner, name: str, layer: str, counter: str | None = None) -> None:
        """Make ``owner.name`` open a ``layer`` span (and bump ``counter``)."""
        original = owner.__dict__[name]
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            if tracer._stack[-1][0] == layer:
                return original(*args, **kwargs)
            tracer.enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit()

        wrapper._perfbench_layer = layer
        wrapper.__wrapped__ = original
        self._patch(owner, name, wrapper)

    def install(self) -> "LayerTracer":
        """Patch every layer boundary; undo with :meth:`uninstall`."""
        import repro.board
        import repro.board.assembly
        import repro.core.platform
        from repro.core.nos import NanoOS
        from repro.energy.accounting import CoreEnergyTracker, EnergyAccounting
        from repro.energy.measurement import MeasurementBoard
        from repro.network.fabric import SwallowFabric
        from repro.nos.policies import base as policy_base
        from repro.nos.policies import dvfs as policy_dvfs
        from repro.nos.policies import kfault as policy_kfault
        from repro.nos.policies import scheduling as policy_scheduling
        from repro.sim.engine import Process, Simulator
        from repro.xs1.chanend import Chanend

        tracer = self
        self._process_code = Process._resume.__code__
        original_schedule_at = Simulator.__dict__["schedule_at"]
        layer_of = self.layer_of
        pushes = self.pushes_by_layer
        stack = self._stack
        enter = self.enter
        exit_ = self.exit

        def schedule_at(sim, time_ps, callback):
            pushes[stack[-1][0]] += 1
            layer = layer_of(callback)

            def traced_event():
                enter(layer)
                try:
                    callback()
                finally:
                    exit_()

            enter("sim")
            try:
                return original_schedule_at(sim, time_ps, traced_event)
            finally:
                exit_()

        self._patch(Simulator, "schedule_at", schedule_at)

        self.wrap(EnergyAccounting, "update", "energy", "energy.ledger_updates")
        self.wrap(CoreEnergyTracker, "update", "energy")
        self.wrap(MeasurementBoard, "sample_all", "energy", "energy.adc_samples")
        self.wrap(MeasurementBoard, "sample_channel", "energy", "energy.adc_samples")
        self.wrap(SwallowFabric, "notify_tx", "network")
        self.wrap(SwallowFabric, "notify_rx_space", "network")
        self.wrap(Chanend, "deliver", "xs1")
        self.wrap(Chanend, "pull_tx", "xs1")
        self.wrap(NanoOS, "submit", "nos")
        self.wrap(NanoOS, "handle_core_failure", "nos")

        policy_hooks = (
            "on_submit", "choose", "replacement", "wants_degrade", "degrade",
            "attach", "on_task_submitted", "on_task_finished", "_on_fire",
        )
        policy_classes = {policy_base.SchedulerPolicy, policy_base.DVFSPolicy}
        for module in (policy_dvfs, policy_kfault, policy_scheduling):
            for value in vars(module).values():
                if isinstance(value, type) and issubclass(
                    value, (policy_base.SchedulerPolicy, policy_base.DVFSPolicy)
                ):
                    policy_classes.add(value)
        for cls in sorted(policy_classes, key=lambda c: c.__qualname__):
            for hook in policy_hooks:
                if hook in cls.__dict__:
                    self.wrap(cls, hook, "nos", "nos.policy_calls")

        build_machine = repro.board.assembly.build_machine

        def traced_build_machine(*args, **kwargs):
            start = perf_counter()
            tracer.enter("board")
            try:
                return build_machine(*args, **kwargs)
            finally:
                tracer.exit()
                tracer.board_build_s += perf_counter() - start

        traced_build_machine._perfbench_layer = "board"
        for module in (repro.board, repro.board.assembly, repro.core.platform):
            self._patch(module, "build_machine", traced_build_machine)
        return self

    def uninstall(self) -> None:
        """Restore every patched function (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output -------------------------------------------------------------------

    def write_spans(self, handle) -> None:
        """Append this run's spans as JSON lines to an open text file."""
        base = self._origin
        for span_id, parent, name, start, end in self.spans:
            handle.write(json.dumps({
                "run": self.run_id,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start_us": round((start - base) * 1e6, 3),
                "end_us": round((end - base) * 1e6, 3),
            }) + "\n")
