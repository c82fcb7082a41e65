"""Content-addressed result cache.

A completed job's result document is stored under the *full* SHA-256
digest of its canonical configuration (:attr:`JobSpec.digest`).
Because every registered workload is a deterministic function of its
params, the digest names the result: a hit returns bytes identical to
what re-simulating would produce — the property
``tests/farm/test_determinism.py`` pins down.  Repeated sweeps
therefore cost one directory read per unchanged job instead of a
simulation.

Entries are canonical JSON written with atomic replace; a partially
written entry can never be observed, and :meth:`ResultCache.get`
validates that the stored config digest matches the file name before
trusting the hit (a corrupted or hand-edited entry is a miss, not a
wrong answer).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.canonical import canonical_json, content_digest, write_atomic


class ResultCache:
    """A directory of ``<digest>.json`` result documents."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Hits/misses observed through this handle (process-local).
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """The cached result document, or ``None`` on a miss.

        A stored document whose recorded config no longer hashes to
        ``digest`` (corruption, truncation, manual edits) is treated as
        a miss — the job re-simulates and the entry is rewritten.
        """
        path = self._path(digest)
        if not path.exists():
            self.misses += 1
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if content_digest(document.get("config", {})) != digest:
            self.misses += 1
            return None
        self.hits += 1
        return document

    def put(self, digest: str, document: dict) -> Path:
        """Store ``document`` under ``digest`` (atomic replace).

        The document must carry the job's ``config`` so hits are
        self-validating; storing under a digest its config does not
        hash to is an error, not a silent poisoning.
        """
        if content_digest(document.get("config", {})) != digest:
            raise ValueError(
                f"document config does not hash to {digest[:12]}…; refusing "
                f"to poison the cache"
            )
        return write_atomic(self._path(digest), canonical_json(document))

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def __len__(self) -> int:
        return len(list(self.directory.glob("*.json")))

    def __repr__(self) -> str:
        return (
            f"<ResultCache {self.directory} entries={len(self)} "
            f"hits={self.hits} misses={self.misses}>"
        )
