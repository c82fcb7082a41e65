"""The policy-zoo ablation: policies x fault campaigns x k, scored.

One cell of the ablation is one ``policy_rt`` run — a seeded real-time
task set placed by a zoo bundle while a seeded campaign kills cores —
scored on the three axes the paper's robustness story cares about:
deadline-miss rate, total energy, and fault survival.  The sweep is a
farm-ready :class:`~repro.farm.spec.MatrixSpec` (the ``campaign`` axis
uses bundled dict values, co-varying seed and kill count), so the same
matrix can run inline here, on the campaign farm, or in CI.

Everything is canonical: cells are produced in the matrix's
deterministic job order, every value is either an int, a ledger list or
a pure function of the seeded simulation, and the report carries a
content digest — two runs of the same matrix must produce identical
bytes, and the CI smoke job diffs them to prove it.
"""

from __future__ import annotations

from repro.canonical import canonical_json, content_digest
from repro.checkpoint.workloads import build_workload
from repro.farm.spec import JobSpec, MatrixSpec
from repro.xs1.errors import ResourceError

#: Report schema tag (bump on any incompatible shape change).
SCHEMA = "policy-zoo/1"

#: Every bundle in the zoo, in report order.
DEFAULT_POLICIES = (
    "least_loaded", "edf", "rm", "ccedf", "laedf", "kfault", "threshold",
)

#: Three seeded fault campaigns of rising severity.  Kills land early
#: (from 5 us) so victims still host live tasks — a kill that orphans
#: nothing would test nothing.
DEFAULT_CAMPAIGNS = (
    {"seed": 1, "kills": 1, "kill_from_us": 5.0, "kill_every_us": 6.0},
    {"seed": 2, "kills": 2, "kill_from_us": 5.0, "kill_every_us": 6.0},
    {"seed": 3, "kills": 3, "kill_from_us": 5.0, "kill_every_us": 6.0},
)

#: Backup depths to sweep.
DEFAULT_KS = (0, 1, 2)


def ablation_matrix(
    policies=DEFAULT_POLICIES,
    campaigns=DEFAULT_CAMPAIGNS,
    ks=DEFAULT_KS,
    base: dict | None = None,
) -> MatrixSpec:
    """The sweep as a farm-ready matrix over the ``policy_rt`` workload."""
    return MatrixSpec(
        workload="policy_rt",
        base=dict(base or {}),
        sweep={
            "policy": list(policies),
            "campaign": [dict(campaign) for campaign in campaigns],
            "k": list(ks),
        },
    )


def run_cell(spec: JobSpec) -> dict:
    """Run one ablation cell and score it.

    A :class:`ResourceError` escaping the run is the non-degrading
    failure mode (fault budget exhausted, machine full): the cell
    scores ``survived: false`` instead of propagating.
    """
    context = build_workload(spec.workload, spec.params)
    try:
        context.system.run()
        survived = True
        failure = None
    except ResourceError as error:
        survived = False
        failure = str(error)
    nos = context.nos
    counts = nos.deadline_counts()
    scored = counts["hit"] + counts["miss"] + counts["shed"]
    return {
        "policy": spec.params["policy"],
        "k": spec.params["k"],
        "seed": spec.params["seed"],
        "kills": spec.params["kills"],
        "job_id": spec.job_id,
        "survived": survived,
        "failure": failure,
        "deadline": counts,
        "miss_rate": (counts["miss"] / scored) if scored else None,
        "energy_j": context.system.energy_report().total_energy_j,
        "replacements": nos.replacements,
        "core_failures": len(nos.failed_cores),
        "shed_tasks": [task.task_id for task in nos.shed_tasks],
        "dvfs_steps": nos.dvfs.steps if nos.dvfs is not None else 0,
        "state_digest": content_digest(nos.snapshot_state()),
    }


def run_ablation(
    policies=DEFAULT_POLICIES,
    campaigns=DEFAULT_CAMPAIGNS,
    ks=DEFAULT_KS,
    base: dict | None = None,
) -> dict:
    """Run the full sweep; returns the canonical report document."""
    matrix = ablation_matrix(policies, campaigns, ks, base)
    cells = [run_cell(spec) for spec in matrix.jobs()]
    summary: dict[str, dict] = {}
    for cell in cells:
        row = summary.setdefault(cell["policy"], {
            "cells": 0,
            "survived": 0,
            "deadline_misses": 0,
            "sheds": 0,
            "replacements": 0,
            "energy_j": 0.0,
        })
        row["cells"] += 1
        row["survived"] += 1 if cell["survived"] else 0
        row["deadline_misses"] += cell["deadline"]["miss"]
        row["sheds"] += len(cell["shed_tasks"])
        row["replacements"] += cell["replacements"]
        row["energy_j"] += cell["energy_j"]
    body = {
        "schema": SCHEMA,
        "matrix": matrix.to_dict(),
        "cells": cells,
        "summary": {name: summary[name] for name in sorted(summary)},
    }
    report = dict(body)
    report["digest"] = content_digest(body)
    return report


def report_json(report: dict) -> str:
    """The report as canonical (byte-stable) JSON, newline-terminated."""
    return canonical_json(report) + "\n"


def render(report: dict) -> str:
    """A printable per-policy summary table."""
    lines = [
        f"policy zoo: {len(report['cells'])} cells "
        f"({report['digest'][:12]})",
        f"  {'policy':<14} {'cells':>5} {'survived':>8} {'misses':>6} "
        f"{'sheds':>5} {'repl':>5} {'energy (J)':>12}",
    ]
    for name, row in report["summary"].items():
        lines.append(
            f"  {name:<14} {row['cells']:>5} {row['survived']:>8} "
            f"{row['deadline_misses']:>6} {row['sheds']:>5} "
            f"{row['replacements']:>5} {row['energy_j']:>12.6f}"
        )
    return "\n".join(lines)
