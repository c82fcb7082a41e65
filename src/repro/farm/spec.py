"""Job specifications and matrix sweeps — the farm's unit of work.

A :class:`JobSpec` is one simulation to run: a registered workload name
(see :mod:`repro.checkpoint.workloads`) plus a JSON-able params dict.
Its identity is *content-addressed*: :attr:`JobSpec.digest` is the
SHA-256 of the canonical JSON of ``{"workload": ..., "params": ...}``,
so two specs with the same configuration are the same job — the key
the :class:`~repro.farm.cache.ResultCache` caches under and the
:class:`~repro.farm.queue.JobQueue` dedupes on.  Because every
registered workload is a pure function of its params, the digest names
the *result* as much as the job.

A :class:`MatrixSpec` is a sweep: a base params dict plus per-parameter
value lists whose Cartesian product expands — in deterministic order —
to the job list of a campaign (topology x frequency x seeds is the
canonical DSE shape).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from repro.canonical import canonical_json, content_digest


class FarmError(RuntimeError):
    """Invalid spec, queue state, or an impossible farm operation."""


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: a rebuildable workload plus its params."""

    workload: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workload:
            raise FarmError("job needs a workload name")
        try:
            canonical_json(self.params)
        except TypeError as error:
            raise FarmError(
                f"job params must be JSON-able: {error}"
            ) from error

    @property
    def config(self) -> dict:
        """The canonical configuration object the digest is taken over."""
        return {"workload": self.workload, "params": dict(self.params)}

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical config — the content address."""
        return content_digest(self.config)

    @property
    def job_id(self) -> str:
        """Short content-addressed id (first 12 digest hex chars)."""
        return self.digest[:12]

    def to_dict(self) -> dict:
        return self.config

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            workload=data["workload"], params=dict(data.get("params", {}))
        )

    def __repr__(self) -> str:
        return f"<JobSpec {self.workload!r} {self.job_id}>"


@dataclass(frozen=True)
class MatrixSpec:
    """A Cartesian sweep over workload parameters.

    JSON form (``repro farm submit --matrix``)::

        {
          "workload": "faults_stream",
          "base":  {"words": 16, "drop_rate": 0.05},
          "sweep": {
            "slices_x": [1, 2],
            "freq_mhz": [500, 250],
            "seed":     [0, 1, 2]
          }
        }

    ``base`` holds the parameters every job shares; each ``sweep`` key
    maps to the list of values that axis takes.  :meth:`jobs` expands
    the product with axes iterated in sorted key order and values in
    listed order, so the same matrix always yields the same job list in
    the same order — submission order is part of the campaign's
    deterministic identity.

    An axis value may also be a *dict*, in which case it is a **bundle**:
    its keys merge into the job's params instead of binding the axis
    name.  Bundled axes sweep co-varying parameters as one dimension —
    e.g. a ``campaign`` axis of ``[{"seed": 1, "kills": 1},
    {"seed": 2, "kills": 2}]`` varies seed and kill count together
    rather than as a 2x2 product.
    """

    workload: str
    base: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workload:
            raise FarmError("matrix needs a workload name")
        for axis, values in self.sweep.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise FarmError(
                    f"sweep axis {axis!r} needs a non-empty value list"
                )

    @property
    def num_jobs(self) -> int:
        """Size of the expanded matrix."""
        total = 1
        for values in self.sweep.values():
            total *= len(values)
        return total

    def jobs(self) -> list[JobSpec]:
        """The expanded job list, in deterministic order.

        Later axes (sorted last) vary fastest; duplicate configurations
        (e.g. a sweep axis repeated in ``base``) collapse to one job.
        """
        axes = sorted(self.sweep)
        specs: list[JobSpec] = []
        seen: set[str] = set()
        for combo in itertools.product(*(self.sweep[axis] for axis in axes)):
            params = dict(self.base)
            for axis, value in zip(axes, combo):
                if isinstance(value, dict):
                    params.update(value)
                else:
                    params[axis] = value
            spec = JobSpec(self.workload, params)
            if spec.digest not in seen:
                seen.add(spec.digest)
                specs.append(spec)
        return specs

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "base": dict(self.base),
            "sweep": {k: list(v) for k, v in self.sweep.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixSpec":
        if "workload" not in data:
            raise FarmError("matrix spec needs a 'workload' field")
        return cls(
            workload=data["workload"],
            base=dict(data.get("base", {})),
            sweep=dict(data.get("sweep", {})),
        )

    @classmethod
    def from_file(cls, path) -> "MatrixSpec":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise FarmError(f"unparseable matrix spec: {error}") from error
        return cls.from_dict(data)

    def __repr__(self) -> str:
        return (
            f"<MatrixSpec {self.workload!r} {len(self.sweep)} axes "
            f"{self.num_jobs} jobs>"
        )
