"""Canonical JSON and atomic file writes: the one serialisation owner.

Every byte-identity guarantee in the package (checkpoint bundles,
metrics snapshots, trace and heat-map exports, farm records) rests on
one serialisation — sorted keys, compact separators — and every durable
record on one write discipline: write ``<name>.tmp`` beside the target,
then ``os.replace`` it into place, so a reader never sees a torn file.
This module imports nothing from :mod:`repro`, so any layer may use it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def canonical_json(payload) -> str:
    """Canonical serialisation: sorted keys, compact, byte-stable."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` via ``<name>.tmp`` + ``os.replace``.

    A writer killed mid-write leaves at most the ``.tmp`` partial,
    which readers ignore (and :meth:`CheckpointStore.orphans` prunes).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path
