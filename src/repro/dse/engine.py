"""The DSE engine: expand a sweep, execute it, fold the report.

Two execution paths share one result shape:

* **farm mode** (the real path): the sweep expands into the campaign
  farm — durable :class:`~repro.farm.queue.JobQueue`, worker
  processes, exit-75 preemption/resume, content-addressed
  :class:`~repro.farm.cache.ResultCache`.  A killed sweep resumes with
  ``repro dse run`` again; a repeated sweep completes from cache.
* **inline mode** (tests, benches, examples): each design point runs
  in-process via :class:`~repro.checkpoint.resume.ResumableRun`,
  producing the *identical* canonical result document the farm worker
  writes — so the folded ``dse-report/1`` is byte-identical between
  modes, which the test suite asserts.

The sweep directory is durable state: ``sweep.json`` (the spec),
``queue/`` (job records), ``cache/`` (result documents), ``work/``
(per-job checkpoints/heartbeats).  ``repro dse report`` and ``repro
dse pareto`` need only the directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.canonical import write_atomic
from repro.farm.cache import ResultCache
from repro.farm.pool import FarmReport, WorkerPool, farm_report
from repro.farm.queue import JobQueue
from repro.farm.spec import FarmError
from repro.farm.worker import result_document
from repro.dse.report import fold_results
from repro.dse.spec import SweepSpec

#: File the sweep's spec persists under inside the sweep directory.
SPEC_FILENAME = "sweep.json"


class SweepDirs:
    """The durable layout of one sweep directory.

    ``cache_dir`` may point outside the sweep directory: a shared
    result cache lets a re-run of the same spec in a *fresh* directory
    complete every point as a cache hit instead of re-simulating — the
    property the CI smoke job asserts at >=90%.
    """

    def __init__(self, directory, cache_dir=None):
        self.root = Path(directory)
        self.spec_path = self.root / SPEC_FILENAME
        self.queue_dir = self.root / "queue"
        self.cache_dir = Path(
            cache_dir if cache_dir is not None else self.root / "cache"
        )
        self.work_dir = self.root / "work"


def save_spec(spec: SweepSpec, directory) -> Path:
    """Persist the spec into the sweep directory (atomic replace)."""
    dirs = SweepDirs(directory)
    dirs.root.mkdir(parents=True, exist_ok=True)
    return write_atomic(
        dirs.spec_path,
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
    )


def load_spec(directory) -> SweepSpec:
    """Load the spec a sweep directory was submitted with."""
    dirs = SweepDirs(directory)
    if not dirs.spec_path.exists():
        raise FarmError(
            f"no {SPEC_FILENAME} in {dirs.root} — submit a sweep first"
        )
    return SweepSpec.from_file(dirs.spec_path)


def submit_sweep(spec: SweepSpec, directory) -> list:
    """Expand the sweep and enqueue its jobs; returns the job records.

    Idempotent: the queue dedupes on content digest, so re-submitting
    the same spec (or an overlapping one) only adds new points.
    """
    dirs = SweepDirs(directory)
    save_spec(spec, directory)
    queue = JobQueue(dirs.queue_dir)
    return queue.submit_all(spec.jobs())


def run_sweep(
    spec: SweepSpec,
    directory,
    num_workers: int = 2,
    preempt: dict | None = None,
    cache_dir=None,
    checkpoint_every: int | None = None,
) -> tuple[dict, FarmReport]:
    """Drive the sweep through the farm; returns (dse_report, farm_report).

    ``preempt`` maps job ids to fresh-event counts after which that
    job's next attempt exits 75 (the deterministic mid-run kill); the
    resumed attempt migrates to another worker and the folded report
    stays byte-identical — the property the CI smoke job checks.
    """
    dirs = SweepDirs(directory, cache_dir)
    submit_sweep(spec, directory)
    queue = JobQueue(dirs.queue_dir)
    cache = ResultCache(dirs.cache_dir)
    pool_kwargs = {}
    if checkpoint_every is not None:
        pool_kwargs["checkpoint_every"] = checkpoint_every
    pool = WorkerPool(
        queue, cache, num_workers=num_workers, work_root=dirs.work_dir,
        **pool_kwargs,
    )
    farm = pool.run(preempt=preempt)
    return collect_report(spec, directory, cache_dir=cache_dir), farm


def collect_report(
    spec: SweepSpec | None, directory, cache_dir=None
) -> dict:
    """Fold whatever results the sweep directory holds into the report.

    Usable mid-campaign (missing jobs fold as failed cells) and after
    the fact (``repro dse report`` with only the directory).
    """
    dirs = SweepDirs(directory, cache_dir)
    if spec is None:
        spec = load_spec(directory)
    cache = ResultCache(dirs.cache_dir)
    documents = {
        job.digest: cache.get(job.digest) for job in spec.jobs()
    }
    return fold_results(spec, documents)


def collect_farm_report(directory, cache_dir=None) -> FarmReport:
    """The underlying farm report for a sweep directory."""
    dirs = SweepDirs(directory, cache_dir)
    return farm_report(
        JobQueue(dirs.queue_dir), ResultCache(dirs.cache_dir), dirs.work_dir
    )


def run_inline(spec: SweepSpec, cache: ResultCache | None = None) -> dict:
    """Run every design point in-process and fold the report.

    No queue, no child processes — the fast path for benches and unit
    tests.  With a ``cache``, results are served from and stored into
    it using the same content addresses as the farm, so inline and
    farm runs interoperate on one sweep directory.
    """
    from repro.checkpoint.resume import ResumableRun

    documents: dict = {}
    for job in spec.jobs():
        document = cache.get(job.digest) if cache is not None else None
        if document is None:
            run = ResumableRun(job.workload, dict(job.params))
            run.run()
            document = result_document(job.config, run.final_report())
            if cache is not None:
                cache.put(job.digest, document)
        documents[job.digest] = document
    return fold_results(spec, documents)
