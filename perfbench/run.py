"""Simulator benchmark runner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload isa_480 --seed 1 --seconds 30 --trace 0

One process runs one workload, one iteration at a time, for about
``--seconds`` seconds.  An iteration runs each of the workload's seeded
instances: build it, run it to its simulated midpoint, capture a
checkpoint, run to the end, check every operation's output, and restore
the midpoint snapshot through ``ResumableRun.resume`` (rebuild, replay,
verify).  Host times are scaled to a reference host speed (see
``hostclock.py``).

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` runs one untraced iteration and then traced iterations,
and reports the per-layer metrics; see ``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

from hostclock import HostMeter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The seed baselines use.  Seed 97 is held out for checking a claimed gain.
DEFAULT_SEED = 1

#: Timed set-ups per run besides the ones inside iterations.
SETUP_SAMPLES = 9
#: Untraced iterations per run, at least.
MIN_ITERATIONS = 2
#: Traced iterations per traced run (two, so counts can be compared).
TRACED_ITERATIONS = 2

OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_program():
    """Put the checkout's ``src`` first on the path and import the program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program under {src}; run from a full checkout")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def drive_until(sim, time_ps: int) -> None:
    """Run every event due at or before ``time_ps`` without moving the
    clock past the last one (so a snapshot taken here can be replayed)."""
    next_event_time = sim.next_event_time
    step = sim.step
    while True:
        head = next_event_time()
        if head is None or head > time_ps:
            return
        step()


def time_setup(workload, seed: int, meter: HostMeter) -> float:
    """Seconds (reference host) to build one instance up to its first event."""
    from repro.checkpoint import build_workload

    gc.collect()
    meter.reset()
    meter.sample()
    start = meter.clock()
    context = build_workload(workload.registry_name, workload.params(seed, False))
    elapsed = meter.clock() - start
    meter.sample()
    del context
    return elapsed * meter.scale()


def instance_seeds(workload, seed: int) -> list[int]:
    """The seeds of one iteration's independent instances."""
    return [seed * 1000 + k for k in range(workload.instances)]


def _raw_counts(context) -> dict:
    """Work counters of one finished traced instance (summable)."""
    system = context.system
    sim = system.sim
    fabric = system.topology.fabric
    scope = fabric.netscope
    elapsed = max(sim.now, 1)
    nos = context.nos
    dvfs = nos.dvfs if nos is not None else None
    return {
        "events": sim.events_processed,
        "queue_hwm": sim.queue_depth_high_water,
        "issued": sum(c.stats.slots_issued for c in system.cores),
        "bubbles": sum(c.stats.slots_bubble for c in system.cores),
        "routes_opened": sum(s.routes_opened for s in fabric.switches.values()),
        "link_busy_ps": sum(link.busy_time_ps for link in fabric.links),
        "link_ps": len(fabric.links) * elapsed,
        "blocked_ps": scope.blocked_totals()["total_ps"] if scope is not None else 0,
        "port_ps": len(scope.port_probes) * elapsed if scope is not None else 0,
        "dvfs_steps": dvfs.steps if dvfs is not None else 0,
        "replacements": nos.replacements if nos is not None else 0,
    }


def _layer_counts(raw: dict, tracer) -> dict:
    """Per-layer count metrics of a traced iteration."""

    def ratio(num, den):
        return num / den if den else 0.0

    samples = tracer.counts.get("energy.adc_samples", 0)
    updates = tracer.counts.get("energy.ledger_updates", 0)
    slots = raw["issued"] + raw["bubbles"]
    return {
        "sim.events": raw["events"],
        "sim.pushes": sum(tracer.pushes_by_layer.values()),
        "sim.events_per_instr": ratio(raw["events"], raw["instructions"]),
        "sim.queue_hwm": raw["queue_hwm"],
        "xs1.instructions": raw["instructions"],
        "xs1.issue_slots": slots,
        "xs1.bubble_frac": ratio(raw["bubbles"], slots),
        "network.token_hops": raw["hops"],
        "network.routes_opened": raw["routes_opened"],
        "network.pushes_per_hop": ratio(tracer.pushes_by_layer["network"], raw["hops"]),
        "network.link_busy_frac": ratio(raw["link_busy_ps"], raw["link_ps"]),
        "network.blocked_frac": ratio(raw["blocked_ps"], raw["port_ps"]),
        "energy.adc_samples": samples,
        "energy.ledger_updates": updates,
        "energy.updates_per_sample": ratio(updates, samples),
        "nos.policy_calls": tracer.counts.get("nos.policy_calls", 0),
        "nos.dvfs_steps": raw["dvfs_steps"],
        "nos.replacements": raw["replacements"],
    }


def run_instance(workload, seed: int, meter: HostMeter, tracer=None) -> dict:
    """Build, run, check and restore one workload instance.

    Host times are scaled by the reference-kernel samples taken around
    and inside each phase (build + run, then restore); a traced instance
    samples only around its build + run, so no sample lands inside a
    traced span.
    """
    from repro.checkpoint import CheckpointError, ResumableRun, Snapshot, build_workload
    from repro.sim.engine import SimulationError
    from repro.sim.state import StateMismatchError

    traced = tracer is not None
    params = workload.params(seed, traced)
    setup = {"workload": workload.registry_name, "params": params}
    gc.collect()
    meter.reset()
    meter.sample()
    sampling = nullcontext if traced else meter.sampling
    if traced:
        tracer.install()
    phase = tracer.span if traced else nullcontext
    spent0 = meter.spent
    wall0 = perf_counter()
    with sampling():
        cpu0 = meter.clock()
        with phase("setup"):
            context = build_workload(workload.registry_name, params)
        cpu1 = meter.clock()
        sim = context.system.sim
        with phase("sim"):
            drive_until(sim, workload.midpoint_ps)
        cpu2 = meter.clock()
        with phase("checkpoint"):
            bundle = context.capture(setup=setup).to_json()
        cpu3 = meter.clock()
        with phase("sim"):
            workload.finish(context)
        cpu4 = meter.clock()
    wall = perf_counter() - wall0 - (meter.spent - spent0)
    if traced:
        tracer.uninstall()
    meter.sample()
    run_scale = meter.scale()
    result = {
        "setup_s": cpu1 - cpu0,
        "raw_run_cpu_s": (cpu2 - cpu1) + (cpu4 - cpu3),
        "wall_s": wall,
        "capture_s": cpu3 - cpu2,
        "bundle_bytes": len(bundle),
    }
    if traced:
        result["raw"] = _raw_counts(context)
    result["outcome"] = workload.check(context)
    del context, sim
    gc.collect()
    # A short restore sees few timer samples: bracket it with two a side.
    meter.reset()
    meter.sample(2)
    with meter.sampling():
        cpu5 = meter.clock()
        try:
            resumed = ResumableRun.resume(Snapshot.from_json(bundle))
            result["resume_ok"] = True
            result["replayed_events"] = resumed.events_replayed
            del resumed
        except (CheckpointError, SimulationError, StateMismatchError) as error:
            print(f"perfbench: restore failed: {error}", file=sys.stderr)
            result["resume_ok"] = False
            result["replayed_events"] = 0
        cpu6 = meter.clock()
    meter.sample(2)
    result["resume_s"] = (cpu6 - cpu5) * meter.scale()
    result["scale"] = run_scale
    for key in ("setup_s", "wall_s", "capture_s"):
        result[key] *= run_scale
    result["run_cpu_s"] = result["raw_run_cpu_s"] * run_scale
    gc.collect()
    return result


def iteration(workload, seed: int, meter: HostMeter, tracer=None) -> dict:
    """Run every instance of one iteration; sums, plus per-instance set-ups."""
    from repro.checkpoint import content_digest

    runs = [run_instance(workload, s, meter, tracer) for s in instance_seeds(workload, seed)]
    outcomes = [r["outcome"] for r in runs]
    result = {
        "setups": [r["setup_s"] for r in runs],
        "resume_ok": all(r["resume_ok"] for r in runs),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "digest": content_digest([o.digest for o in outcomes]),
        "instructions": sum(o.instructions for o in outcomes),
        "token_hops": sum(o.token_hops for o in outcomes),
        "reference": outcomes[0].reference,
    }
    for key in ("raw_run_cpu_s", "run_cpu_s", "wall_s", "capture_s", "resume_s",
                "bundle_bytes", "replayed_events"):
        result[key] = sum(r[key] for r in runs)
    if tracer is not None:
        raw = {key: sum(r["raw"][key] for r in runs) for key in runs[0]["raw"]}
        raw["queue_hwm"] = max(r["raw"]["queue_hwm"] for r in runs)
        raw["instructions"] = result["instructions"]
        raw["hops"] = result["token_hops"]
        result["counts"] = _layer_counts(raw, tracer)
        scale = statistics.fmean(r["scale"] for r in runs)
        result["self_s"] = {k: v * scale for k, v in tracer.self_s.items()}
        result["board_build_s"] = tracer.board_build_s * scale
    return result


def _declared_units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _consistent(results: list[dict]) -> bool:
    """Same seed, same model: every iteration's checked outcome agrees."""
    first = results[0]
    return all(
        r["digest"] == first["digest"]
        and r["attempted"] == first["attempted"]
        and r["failed"] == first["failed"]
        and r["resume_ok"]
        for r in results
    )


def measure(workload, seed: int, seconds: float) -> tuple[list[dict], list[float]]:
    """Untraced iterations for about ``seconds``; returns them and set-ups."""
    deadline = perf_counter() + seconds
    meter = HostMeter()
    first_instance = instance_seeds(workload, seed)[0]
    setups = [time_setup(workload, first_instance, meter) for _ in range(SETUP_SAMPLES)]
    results: list[dict] = []
    while True:
        started = perf_counter()
        results.append(iteration(workload, seed, meter))
        setups.extend(results[-1]["setups"])
        took = perf_counter() - started
        if len(results) >= MIN_ITERATIONS and perf_counter() + took > deadline:
            return results, setups


def end_to_end(results: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics: medians over iterations (per instance)."""
    instances = len(results[0]["setups"])
    return {
        "sim_mips": statistics.median(r["instructions"] / r["run_cpu_s"] / 1e6 for r in results),
        "setup_s": statistics.median(setups),
        "resume_s": statistics.median(r["resume_s"] / instances for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from traced iterations; second value: exactness."""
    counts = traced[0]["counts"]
    exact = all(r["counts"] == counts for r in traced)
    metrics = dict(counts)
    for layer in ("sim", "xs1", "network", "energy", "nos"):
        metrics[f"{layer}.self_s"] = statistics.median(r["self_s"][layer] for r in traced)
    metrics["checkpoint.capture_s"] = untraced["capture_s"]
    metrics["checkpoint.restore_s"] = untraced["resume_s"]
    metrics["checkpoint.replayed_events"] = untraced["replayed_events"]
    metrics["checkpoint.bundle_bytes"] = untraced["bundle_bytes"]
    metrics["board.build_s"] = statistics.median(r["board_build_s"] for r in traced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace_overhead_pct"] = (traced_wall - untraced["wall_s"]) / untraced["wall_s"] * 100.0
    return metrics, exact


def reference_lines(workload, results: list[dict]) -> list[str]:
    """Error against the paper's figures, where the paper gives one."""
    from workloads import noc_reference_latencies_ns

    if workload.name == "isa_480":
        ref = results[0]["reference"]
        errors = {key: abs(got - want) / want * 100.0 for key, (got, want) in ref.items()}
        lines = [
            f"  {key}: {got:.4g} vs paper {want:g} ({errors[key]:.2f}% error)"
            for key, (got, want) in ref.items()
        ]
        lines.append(f"  ref_err_pct {max(errors.values()):.4f} %")
        return lines
    if workload.name == "noc_mixed":
        pairs = noc_reference_latencies_ns()
        errors = [abs(got - want) / want * 100.0 for _, got, want in pairs]
        lines = [
            f"  {name}: {got:.1f} ns vs paper {want:g} ns"
            for name, got, want in pairs
        ]
        lines.append(f"  ref_err_pct {statistics.fmean(errors):.4f} %")
        return lines
    return ["  ref_err_pct n/a: no paper reference, the model is unvalidated here"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from tracing import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    meter = HostMeter()
    time_setup(workload, instance_seeds(workload, args.seed)[0], meter)  # warm-up
    if args.trace:
        untraced = iteration(workload, args.seed, meter)
        traced = []
        tracers = []
        for index in range(TRACED_ITERATIONS):
            tracer = LayerTracer(f"{workload.name}-seed{args.seed}-{index}")
            traced.append(iteration(workload, args.seed, meter, tracer))
            tracers.append(tracer)
        results = [untraced, *traced]
        metrics, exact = per_layer(untraced, traced)
        correct = exact and _consistent(results)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for tracer in tracers:
                tracer.write_spans(handle)
        extra = [f"  spans written to {os.path.relpath(spans_path, ROOT)}"
                 + (f" ({sum(t.spans_dropped for t in tracers)} past the cap not kept)"
                    if any(t.spans_dropped for t in tracers) else "")]
        if not exact:
            extra.append("  count metrics differ between traced iterations")
    else:
        results, setups = measure(workload, args.seed, args.seconds)
        metrics = end_to_end(results, setups)
        correct = _consistent(results)
        median = statistics.median
        raw_mips = median(r["instructions"] / r["raw_run_cpu_s"] / 1e6 for r in results)
        speed = median(r["run_cpu_s"] / r["raw_run_cpu_s"] for r in results)
        extra = [
            f"  hops_per_s {median(r['token_hops'] / r['run_cpu_s'] for r in results):.1f} 1/s",
            f"  run_wall_s {median(r['wall_s'] for r in results):.4f} s",
            f"  capture_s {median(r['capture_s'] for r in results):.4f} s",
            f"  unscaled: sim_mips {raw_mips:.6g} MIPS of raw CPU time "
            f"(host at {speed:.3f} x the reference speed)",
            *reference_lines(workload, results),
        ]
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "disagree with BENCHMARK.json")
    first = results[0]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"iterations={len(results)} instances={len(first['setups'])}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  failed_frac {first['failed'] / first['attempted']:.6f} "
          f"({first['failed']} of {first['attempted']} operations)")
    print(f"  model_digest {first['digest']}")
    for line in extra:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
