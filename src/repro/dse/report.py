"""Fold per-job results into the canonical ``dse-report/1`` document.

One *cell* per design point, in the sweep's deterministic job order.
Every cell value is a pure function of the job's canonical result
document (the same bytes whether the job was simulated fresh, resumed
after an exit-75 preemption, or served from the result cache), so the
folded report — and its digest — is byte-stable across cold runs, warm
re-runs, and kill/resume.  Scheduling metadata (attempts, worker
slots, cache hits) deliberately never enters the document: it differs
between a cold and a warm farm pass and would break byte-identity.
"""

from __future__ import annotations

from repro.canonical import canonical_json, content_digest

#: Report schema tag (bump on any incompatible shape change).
SCHEMA = "dse-report/1"


def extract_metrics(report: dict) -> dict:
    """The DSE metric set of one job's canonical run report.

    Derived figures (GIPS, pJ per instruction, deadline-miss rate) are
    computed here — and only here — so every consumer (report cells,
    Pareto analysis, the farm's ``--pareto-out`` passthrough) agrees on
    their definition:

    * ``gips`` — giga-instructions per simulated second;
    * ``energy_per_instr_pj`` — the paper's E/C ratio, in pJ;
    * ``deadline_miss_rate`` — misses over scored deadlines, summed
      over every ``nos.deadline_*`` metric series (None when the
      workload scores no deadlines);
    * plus the raw totals they derive from.
    """
    energy = report.get("energy", {})
    elapsed_s = energy.get("elapsed_s")
    instructions = energy.get("total_instructions")
    total_energy_j = energy.get("total_energy_j")
    metrics = {
        "elapsed_s": elapsed_s,
        "total_instructions": instructions,
        "total_energy_j": total_energy_j,
        "mean_power_w": energy.get("mean_power_w"),
        "link_energy_j": energy.get("link_energy_j"),
        "gips": (
            instructions / elapsed_s / 1e9
            if instructions is not None and elapsed_s else None
        ),
        "energy_per_instr_pj": (
            total_energy_j / instructions * 1e12
            if total_energy_j is not None and instructions else None
        ),
    }
    counts = deadline_counts(report.get("metrics", {}))
    scored = sum(counts.values())
    metrics["deadline_miss_rate"] = (
        counts["miss"] / scored if scored else None
    )
    metrics["delivered_ok"] = report.get("delivered_ok")
    return metrics


def deadline_counts(metric_snapshot: dict) -> dict:
    """Sum hit/miss/shed over every ``nos.deadline_*`` series."""
    counts = {"hit": 0, "miss": 0, "shed": 0}
    for key, value in metric_snapshot.items():
        for verdict in counts:
            if key.startswith(f"nos.deadline_{verdict}{{"):
                counts[verdict] += int(value)
    return counts


def fold_results(spec, documents: dict) -> dict:
    """Fold a sweep's result documents into the ``dse-report/1`` body.

    ``documents`` maps job digest -> canonical result document (or
    None for a job that failed / never ran).  Cells appear in the
    sweep's job order; a missing document yields a cell with
    ``survived: false`` and no metrics, so a partially-failed sweep
    still folds deterministically.
    """
    cells = []
    for job in spec.jobs():
        document = documents.get(job.digest)
        cell = {
            "job_id": job.job_id,
            "digest": job.digest,
            "params": dict(job.params),
            "survived": document is not None,
        }
        if document is not None:
            report = document.get("report", {})
            cell["metrics"] = extract_metrics(report)
            cell["state_digest"] = report.get("state_digest")
        else:
            cell["metrics"] = None
            cell["state_digest"] = None
        cells.append(cell)
    survived = [c for c in cells if c["survived"]]
    body = {
        "schema": SCHEMA,
        "spec": spec.to_dict(),
        "sweep_id": spec.sweep_id,
        "points": len(cells),
        "cells": cells,
        "summary": {
            "survived": len(survived),
            "failed": len(cells) - len(survived),
            "total_energy_j": sum(
                c["metrics"]["total_energy_j"] or 0.0 for c in survived
            ),
            "total_elapsed_s": sum(
                c["metrics"]["elapsed_s"] or 0.0 for c in survived
            ),
        },
    }
    report = dict(body)
    report["digest"] = content_digest(body)
    return report


def report_json(report: dict) -> str:
    """The report as canonical (byte-stable) JSON, newline-terminated."""
    return canonical_json(report) + "\n"


def render(report: dict) -> str:
    """A printable per-point summary table for the CLI."""
    spec = report["spec"]
    axes = sorted(spec["sweep"])
    lines = [
        f"dse report: {report['points']} points "
        f"({report['summary']['survived']} survived)  "
        f"sweep {report['sweep_id']}  digest {report['digest'][:12]}",
        f"  {'job':<14} "
        + " ".join(f"{axis:>12}" for axis in axes)
        + f" {'GIPS':>8} {'W':>8} {'pJ/instr':>9}",
    ]
    for cell in report["cells"]:
        values = []
        for axis in axes:
            value = cell["params"].get(axis, "-")
            values.append(f"{str(value):>12}")
        metrics = cell["metrics"]
        if metrics is None:
            figures = f"{'failed':>8} {'-':>8} {'-':>9}"
        else:
            gips = metrics["gips"]
            power = metrics["mean_power_w"]
            epc = metrics["energy_per_instr_pj"]
            figures = (
                f"{gips:>8.4f} " if gips is not None else f"{'-':>8} "
            ) + (
                f"{power:>8.4f} " if power is not None else f"{'-':>8} "
            ) + (
                f"{epc:>9.2f}" if epc is not None else f"{'-':>9}"
            )
        lines.append(f"  {cell['job_id']:<14} " + " ".join(values)
                     + f" {figures}")
    return "\n".join(lines)
