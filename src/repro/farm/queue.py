"""A durable, content-addressed job queue.

Every job is one JSON file in ``<dir>/jobs/`` — atomic-replace writes,
so a record is always either the old state or the new one, never a
torn write.  The lifecycle::

    pending --> running --> done
                   |------> failed
                   '------> preempted --> running --> ...

``preempted`` jobs (a worker exited with the resumable exit code 75,
or the farm process itself died mid-job) are claimable again: the next
worker resumes from the job's checkpoint store and — because resume is
a byte-identical replay — finishes exactly as an uninterrupted run
would.  Durability is the point: a farm can be killed and restarted and
:meth:`JobQueue.recover` turns orphaned ``running`` records back into
claimable ``preempted`` ones.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.canonical import canonical_json, write_atomic
from repro.farm.spec import FarmError, JobSpec

#: Legal job states.
STATES = ("pending", "running", "done", "failed", "preempted")
#: States a worker may claim a job from.
CLAIMABLE = ("pending", "preempted")
#: States that end a job's lifecycle.
TERMINAL = ("done", "failed")


class JobRecord:
    """One job's durable state: its spec plus lifecycle bookkeeping."""

    def __init__(self, spec: JobSpec, index: int, state: str = "pending",
                 attempts: int = 0, workers: list[int] | None = None,
                 cache_hit: bool = False, error: str | None = None):
        self.spec = spec
        #: Submission order — the deterministic claim order.
        self.index = index
        self.state = state
        #: Completed or interrupted execution attempts.
        self.attempts = attempts
        #: Worker slot of each attempt, in order.
        self.workers = list(workers or [])
        #: True when the job completed from the result cache.
        self.cache_hit = cache_hit
        self.error = error

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def digest(self) -> str:
        return self.spec.digest

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "digest": self.digest,
            "index": self.index,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "workers": list(self.workers),
            "cache_hit": self.cache_hit,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(
            spec=JobSpec.from_dict(data["spec"]),
            index=int(data["index"]),
            state=data["state"],
            attempts=int(data.get("attempts", 0)),
            workers=[int(w) for w in data.get("workers", [])],
            cache_hit=bool(data.get("cache_hit", False)),
            error=data.get("error"),
        )

    def __repr__(self) -> str:
        return f"<JobRecord {self.job_id} {self.state} attempts={self.attempts}>"


class JobQueue:
    """The on-disk queue: one atomic JSON record per job."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.jobs_dir = self.directory / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # -- storage ------------------------------------------------------------

    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _save(self, record: JobRecord) -> None:
        write_atomic(self._path(record.job_id),
                     canonical_json(record.to_dict()))

    def get(self, job_id: str) -> JobRecord:
        path = self._path(job_id)
        if not path.exists():
            raise FarmError(f"unknown job {job_id!r} in {self.jobs_dir}")
        return JobRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def jobs(self) -> list[JobRecord]:
        """Every record, in submission (claim) order."""
        records = [
            JobRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(self.jobs_dir.glob("*.json"))
        ]
        return sorted(records, key=lambda r: (r.index, r.job_id))

    # -- lifecycle ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue ``spec``; content-address dedupe returns the existing
        record for an already-submitted configuration."""
        path = self._path(spec.job_id)
        if path.exists():
            return self.get(spec.job_id)
        record = JobRecord(spec, index=len(list(self.jobs_dir.glob("*.json"))))
        self._save(record)
        return record

    def submit_all(self, specs) -> list[JobRecord]:
        """Enqueue many specs; returns their records in order."""
        return [self.submit(spec) for spec in specs]

    def claim(self, worker: int, job_id: str | None = None) -> JobRecord | None:
        """Claim a claimable job for worker slot ``worker``.

        Without ``job_id``, the next claimable job is taken: preempted
        jobs sort before never-started ones (finish what was
        interrupted first), ties break on submission order.  With
        ``job_id``, that specific job is claimed (it must be
        claimable).  Returns ``None`` when nothing is claimable.
        """
        if job_id is not None:
            record = self.get(job_id)
            if record.state not in CLAIMABLE:
                raise FarmError(
                    f"job {job_id!r} is {record.state}, not claimable"
                )
        else:
            claimable = [r for r in self.jobs() if r.state in CLAIMABLE]
            if not claimable:
                return None
            claimable.sort(key=lambda r: (r.state != "preempted", r.index))
            record = claimable[0]
        record.state = "running"
        record.attempts += 1
        record.workers.append(worker)
        self._save(record)
        return record

    def _transition(self, job_id: str, state: str, *,
                    error: str | None = None,
                    cache_hit: bool | None = None) -> JobRecord:
        record = self.get(job_id)
        record.state = state
        record.error = error
        if cache_hit is not None:
            record.cache_hit = cache_hit
        self._save(record)
        return record

    def complete(self, job_id: str, cache_hit: bool = False) -> JobRecord:
        """Mark a job done (``cache_hit`` when served from the cache)."""
        return self._transition(job_id, "done", cache_hit=cache_hit)

    def fail(self, job_id: str, error: str) -> JobRecord:
        return self._transition(job_id, "failed", error=error)

    def preempt(self, job_id: str) -> JobRecord:
        """Mark a running job preempted — claimable again, resumable
        from its checkpoint store."""
        return self._transition(job_id, "preempted")

    def recover(self) -> list[JobRecord]:
        """Flip orphaned ``running`` jobs (dead farm/worker) to
        ``preempted`` so a restarted farm can resume them."""
        recovered = []
        for record in self.jobs():
            if record.state == "running":
                recovered.append(self.preempt(record.job_id))
        return recovered

    # -- queries ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Jobs per state (every state present, zero included)."""
        counts = {state: 0 for state in STATES}
        for record in self.jobs():
            counts[record.state] += 1
        return counts

    def done(self) -> bool:
        """True when every job reached a terminal state."""
        jobs = self.jobs()
        return bool(jobs) and all(r.state in TERMINAL for r in jobs)

    def __len__(self) -> int:
        return len(list(self.jobs_dir.glob("*.json")))

    def __repr__(self) -> str:
        counts = self.counts()
        summary = " ".join(f"{s}={n}" for s, n in counts.items() if n)
        return f"<JobQueue {self.directory} {summary or 'empty'}>"
