"""The benchmark's three workloads: builders, output checks and digests.

Each workload is registered with :func:`repro.checkpoint.register_workload`
so a midpoint snapshot can be restored by the repository's own
rebuild-and-replay path.  Builders take only plain data (the seed and
sizes below), so the same seed always yields the same inputs.

Every workload reports its *operations* (the unit that can fail):

* ``isa_480`` — a core's issue stream; it succeeds when the core retired
  exactly Eq. 2's 0.5 GIPS x window instructions.
* ``noc_mixed`` — a packet; it succeeds when it arrived with the right
  payload, in per-flow order.  Packets still outstanding when the event
  queue drains count as failed.
* ``rt_selfmeasure`` — an RT task; it succeeds when it completed or the
  policy shed it.

The *modelled-output digest* hashes only what the model computes —
per-core instructions and cycles, the energy-ledger breakdown, per-link
tokens and bits, delivered words with their simulated latencies,
deadline verdicts and ADC samples — never kernel bookkeeping (event
counts, sequence numbers, queue depth), so a kernel that reaches the
same results with fewer events keeps the same digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.checkpoint import RunContext, build_workload, content_digest, register_workload
from repro.core.platform import SwallowSystem
from repro.network.token import CT_END
from repro.sim import PS_PER_S, us
from repro.xs1 import assemble
from repro.xs1.behavioral import (
    BehavioralThread,
    CheckCt,
    RecvToken,
    RecvWord,
    SendCt,
    SendToken,
    SendWord,
)

# -- sizes (part of the benchmark definition; change them only in a change
#    that redefines the benchmark) -----------------------------------------------

#: The paper's 480-core machine: 30 slices of 16 cores, 5 x 6.
ISA_SLICES = (5, 6)
ISA_THREADS_PER_CORE = 4
ISA_WINDOW_PS = us(2)
#: Eq. 2: four or more threads issue one instruction per 2 ns cycle.
ISA_CORE_GIPS = 0.5

NOC_SLICES = (2, 2)
NOC_UNIFORM_PAIRS = 48
NOC_HOTSPOT_FLOWS = 6
NOC_PACKETS = 12
#: XS1-L hardware threads per core; the generator never exceeds it.
MAX_THREADS = 8
#: About half of an instance's kernel events are done by 14 us.
NOC_MIDPOINT_PS = us(14)
#: Traffic instances per iteration.  One instance's host cost swings with
#: its pairs (path lengths, whether it wedges); pooling sixteen keeps the
#: per-seed figures steady while each instance keeps the 48 x 12 shape.
NOC_INSTANCES = 16

RT_SLICES = (2, 2)
RT_TASKS = 96
RT_KILLS = 1
RT_ADC_RATE_HZ = 1_000_000      # the all-channel cap of paper §II
RT_ADC_DURATION_S = 400e-6      # the threshold DVFS watchpoint's span
#: Tasks finish by ~100 us; about half the run's kernel events are done
#: by 20 us, the rest is task tails and ADC/watchpoint sampling.
RT_MIDPOINT_PS = us(20)


@dataclass(frozen=True)
class Workload:
    """How the runner drives and checks one workload."""

    name: str
    midpoint_ps: int
    #: Independent instances per iteration, seeded ``seed * 1000 + k``.
    instances: int
    #: Runs the instance from its midpoint to the end.
    finish: Callable[[RunContext], None]
    check: Callable[[RunContext], "Outcome"]

    @property
    def registry_name(self) -> str:
        """The name the builder is registered under."""
        return f"perfbench.{self.name}"

    @staticmethod
    def params(seed: int, netscope: bool) -> dict:
        """Registry params of one instance: plain data a bundle can rebuild."""
        return {"seed": seed, "netscope": netscope}


@dataclass
class Outcome:
    """Checked result of one workload instance."""

    attempted: int
    failed: int
    digest: str
    instructions: int
    token_hops: int
    #: Model-side figures the report compares with the paper (may be empty).
    reference: dict


# -- shared digest parts --------------------------------------------------------


def _platform_model(system: SwallowSystem) -> dict:
    """Modelled state common to every workload (no kernel bookkeeping)."""
    breakdown = system.accounting.breakdown_j()
    return {
        "cores": {
            str(core.node_id): {
                "cycles": core.cycle,
                "instructions": {
                    cls.value: count
                    for cls, count in sorted(
                        core.stats.instructions.items(), key=lambda kv: kv[0].value
                    )
                },
            }
            for core in sorted(system.cores, key=lambda c: c.node_id)
        },
        "energy_j": {key: value.hex() for key, value in sorted(breakdown.items())},
        "links": {
            link.name: [link.tokens_carried, link.bits_carried]
            for link in system.topology.fabric.links
            if link.tokens_carried
        },
    }


def _instructions(system: SwallowSystem) -> int:
    return sum(core.stats.total_instructions for core in system.cores)


def _token_hops(system: SwallowSystem) -> int:
    return sum(link.tokens_carried for link in system.topology.fabric.links)


def _system(slices: tuple[int, int], params: dict) -> SwallowSystem:
    system = SwallowSystem(slices_x=slices[0], slices_y=slices[1])
    if params.get("netscope"):
        system.netscope()
    return system


def _drain(context: RunContext) -> None:
    context.system.sim.run()


# -- isa_480 ------------------------------------------------------------------

ISA_PROGRAM = """
    ldc r0, 1000000
loop:
    subi r0, r0, 1
    bt r0, loop
    freet
"""


@register_workload("perfbench.isa_480")
def _build_isa(params: dict) -> RunContext:
    system = _system(ISA_SLICES, params)
    program = assemble(ISA_PROGRAM)
    for core in system.cores:
        for _ in range(ISA_THREADS_PER_CORE):
            core.spawn(program)
    return RunContext(system=system)


def _finish_isa(context: RunContext) -> None:
    context.system.sim.run_until(ISA_WINDOW_PS)


def _check_isa(context: RunContext) -> Outcome:
    system = context.system
    window_s = ISA_WINDOW_PS / PS_PER_S
    expected = round(ISA_CORE_GIPS * 1e9 * window_s)
    failed = sum(
        1 for core in system.cores if core.stats.total_instructions != expected
    )
    instructions = _instructions(system)
    node_mw = system.accounting.total_energy_j() / window_s / len(system.cores) * 1e3
    model = _platform_model(system)
    return Outcome(
        attempted=len(system.cores),
        failed=failed,
        digest=content_digest(model),
        instructions=instructions,
        token_hops=_token_hops(system),
        reference={
            "gips": (instructions / window_s / 1e9, 240.0),
            "node_mw": (node_mw, 260.0),
        },
    )


# -- noc_mixed ----------------------------------------------------------------


def noc_flows(node_ids: list[int], seed: int) -> list[tuple[int, int]]:
    """Seeded uniform-random pairs plus flows into one hotspot node.

    Every flow costs one hardware thread at each end; a draw that would
    put more than :data:`MAX_THREADS` threads on a core is redrawn.
    """
    rng = random.Random(seed)
    threads = {node: 0 for node in node_ids}
    flows: list[tuple[int, int]] = []

    def take(src: int, dst: int) -> bool:
        if src == dst or threads[src] >= MAX_THREADS or threads[dst] >= MAX_THREADS:
            return False
        threads[src] += 1
        threads[dst] += 1
        flows.append((src, dst))
        return True

    while len(flows) < NOC_UNIFORM_PAIRS:
        take(rng.choice(node_ids), rng.choice(node_ids))
    hotspot = rng.choice(node_ids)
    while threads[hotspot] < MAX_THREADS and len(flows) < NOC_UNIFORM_PAIRS + NOC_HOTSPOT_FLOWS:
        take(rng.choice(node_ids), hotspot)
    return flows


#: Paper §V.C latencies: (scenario, source, destination, transfer, ns).
#: Coordinates are (x, y, layer) package positions.
SEC5C_LATENCIES = (
    ("core-local word", (0, 0, "VERTICAL"), (0, 0, "VERTICAL"), "word", 50.0),
    ("in-package word", (0, 0, "VERTICAL"), (0, 0, "HORIZONTAL"), "word", 320.0),
    ("cross-package word", (0, 0, "VERTICAL"), (0, 1, "VERTICAL"), "word", 360.0),
    ("cross-package token", (0, 0, "VERTICAL"), (0, 1, "VERTICAL"), "token", 270.0),
)


def noc_reference_latencies_ns() -> list[tuple[str, float, float]]:
    """(scenario, simulated ns, paper ns) for one transfer on an idle
    machine of the ``noc_mixed`` shape."""
    from repro.network.routing import Layer

    rows = []
    for name, src, dst, kind, paper_ns in SEC5C_LATENCIES:
        system = SwallowSystem(slices_x=NOC_SLICES[0], slices_y=NOC_SLICES[1])
        topology = system.topology
        cores = {core.node_id: core for core in system.cores}
        core_a = cores[topology.node_at(src[0], src[1], Layer[src[2]])]
        core_b = cores[topology.node_at(dst[0], dst[1], Layer[dst[2]])]
        tx = core_a.allocate_chanend()
        rx = core_b.allocate_chanend()
        tx.set_dest(rx.address)
        arrivals: list[int] = []

        def sender(tx=tx, kind=kind):
            yield SendWord(tx, 0x12345678) if kind == "word" else SendToken(tx, 0x42)

        def receiver(rx=rx, kind=kind, sim=system.sim, arrivals=arrivals):
            yield RecvWord(rx) if kind == "word" else RecvToken(rx)
            arrivals.append(sim.now)

        BehavioralThread(core_a, sender())
        BehavioralThread(core_b, receiver())
        system.sim.run()
        rows.append((name, arrivals[0] / 1000.0, paper_ns))
    return rows


def _payload(flow: int, index: int) -> int:
    return (flow << 16) | index


@register_workload("perfbench.noc_mixed")
def _build_noc(params: dict) -> RunContext:
    system = _system(NOC_SLICES, params)
    sim = system.sim
    cores = {core.node_id: core for core in system.cores}
    flows = noc_flows(sorted(cores), int(params["seed"]))
    received: list[tuple[int, int, int, int]] = []
    for flow, (src, dst) in enumerate(flows):
        tx = cores[src].allocate_chanend()
        rx = cores[dst].allocate_chanend()
        tx.set_dest(rx.address)
        departures: list[int] = []

        def sender(flow=flow, tx=tx, departures=departures):
            for index in range(NOC_PACKETS):
                departures.append(sim.now)
                yield SendWord(tx, _payload(flow, index))
                yield SendCt(tx, CT_END)

        def receiver(flow=flow, rx=rx, departures=departures):
            for index in range(NOC_PACKETS):
                word = yield RecvWord(rx)
                yield CheckCt(rx, CT_END)
                received.append((flow, index, word, sim.now - departures[index]))

        BehavioralThread(cores[src], sender(), name=f"noc.s{flow}")
        BehavioralThread(cores[dst], receiver(), name=f"noc.r{flow}")
    return RunContext(system=system, received=received, extras={"flows": flows})


def _check_noc(context: RunContext) -> Outcome:
    system = context.system
    flows = context.extras["flows"]
    next_index = [0] * len(flows)
    delivered_ok = 0
    for flow, index, word, _latency in context.received:
        if index == next_index[flow] and word == _payload(flow, index):
            delivered_ok += 1
        next_index[flow] = index + 1
    model = _platform_model(system)
    model["flows"] = flows
    model["delivered"] = [list(row) for row in context.received]
    return Outcome(
        attempted=len(flows) * NOC_PACKETS,
        failed=len(flows) * NOC_PACKETS - delivered_ok,
        digest=content_digest(model),
        instructions=_instructions(system),
        token_hops=_token_hops(system),
        reference={},
    )


# -- rt_selfmeasure ------------------------------------------------------------


def _rt_policy_params(seed: int) -> dict:
    return {
        "slices_x": RT_SLICES[0],
        "slices_y": RT_SLICES[1],
        "tasks": RT_TASKS,
        "taskset_seed": seed,
        "policy": "threshold",
        "kills": RT_KILLS,
        "seed": seed,
    }


@register_workload("perfbench.rt_selfmeasure")
def _build_rt(params: dict) -> RunContext:
    policy_params = _rt_policy_params(int(params["seed"]))
    if params.get("netscope"):
        policy_params["netscope"] = True
    context = build_workload("policy_rt", policy_params)
    system = context.system
    sx_count, sy_count = RT_SLICES
    context.extras["adc"] = [
        system.measurement_board(sx, sy).record_trace(RT_ADC_DURATION_S, RT_ADC_RATE_HZ)
        for sy in range(sy_count)
        for sx in range(sx_count)
    ]
    return context


def _check_rt(context: RunContext) -> Outcome:
    system = context.system
    nos = context.nos
    tasks = nos.tasks
    failed = sum(1 for task in tasks if not (task.done or task.shed))
    model = _platform_model(system)
    model["deadlines"] = [
        [task.task_id, nos.deadline_status(task)] for task in tasks
    ]
    model["adc"] = [
        [trace.times_ps, [[value.hex() for value in row] for row in trace.values_mw]]
        for trace in context.extras["adc"]
    ]
    return Outcome(
        attempted=len(tasks),
        failed=failed,
        digest=content_digest(model),
        instructions=_instructions(system),
        token_hops=_token_hops(system),
        reference={},
    )


WORKLOADS = {
    "isa_480": Workload(
        name="isa_480",
        midpoint_ps=ISA_WINDOW_PS // 2,
        instances=1,
        finish=_finish_isa,
        check=_check_isa,
    ),
    "noc_mixed": Workload(
        name="noc_mixed",
        midpoint_ps=NOC_MIDPOINT_PS,
        instances=NOC_INSTANCES,
        finish=_drain,
        check=_check_noc,
    ),
    "rt_selfmeasure": Workload(
        name="rt_selfmeasure",
        midpoint_ps=RT_MIDPOINT_PS,
        instances=1,
        finish=_drain,
        check=_check_rt,
    ),
}
