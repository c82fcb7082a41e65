"""Versioned, checksummed, deterministic system snapshots.

A :class:`Snapshot` is the canonical record of a whole platform at one
instant: event-kernel clock and counters, every core (threads, SRAM
digest, chanend buffers), the fabric (switch ports, link credits,
in-flight tokens), the bit-exact energy ledger, the NanoOS task table,
the fault campaign's RNG stream, and the watchdog's ladder journal —
each captured through that component's own ``snapshot_state()`` hook.

What a snapshot is **not** is a pickled process image.  Queued events
are closures and task bodies are live generators; neither serialises.
Restore therefore works by *schedulable-state re-registration*: the
workload is rebuilt from its recorded setup (see
:mod:`repro.checkpoint.workloads`) and deterministically replayed to
the captured event count — the kernel is a pure function of its
configuration, so the replay reproduces the queue through each
component's own scheduling logic.  The snapshot then becomes the proof
obligation: :meth:`Snapshot.verify` compares every layer's fresh state
with the captured one and raises on the first diverging field, so a
resume either continues byte-identically or fails loudly.

Bundles are canonical JSON (sorted keys, compact separators) carrying a
schema version and a SHA-256 content digest; :meth:`Snapshot.load`
rejects tampered or truncated bundles.  Binary content (SRAM images)
is represented by digest, keeping bundles small without weakening the
identity check.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.canonical import canonical_json, content_digest, write_atomic
from repro.sim.state import verify_state

if TYPE_CHECKING:
    from repro.core.nos import NanoOS
    from repro.core.platform import SwallowSystem
    from repro.core.watchdog import Watchdog
    from repro.faults.campaign import FaultCampaign

#: Bundle format version; bump on any incompatible payload change.
SCHEMA_VERSION = 1


class CheckpointError(RuntimeError):
    """Invalid bundle, unsupported schema, or an impossible restore."""


class BundleIntegrityError(CheckpointError):
    """The bundle's content digest does not match its payload."""


class Snapshot:
    """One captured system state: versioned, digested, verifiable."""

    def __init__(self, payload: dict):
        self.payload = payload

    # -- capture ------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        system: "SwallowSystem",
        campaign: "FaultCampaign | None" = None,
        nos: "NanoOS | None" = None,
        watchdog: "Watchdog | None" = None,
        governor: object | None = None,
        setup: dict | None = None,
    ) -> "Snapshot":
        """Capture the platform (and any runtime layers) right now.

        ``setup`` records how to rebuild the workload — typically
        ``{"workload": name, "params": {...}}`` — and is required for a
        bundle to be resumable; a setup-less snapshot can still verify.
        Capture never mutates the system (in particular it does not
        close energy-integration windows), so checkpointing cannot
        perturb the trajectory it is checkpointing.
        """
        state = {"system": system.snapshot_state()}
        if campaign is not None:
            state["campaign"] = campaign.snapshot_state()
        if nos is not None:
            state["nos"] = nos.snapshot_state()
        if watchdog is not None:
            state["watchdog"] = watchdog.snapshot_state()
        if governor is not None:
            state["governor"] = governor.snapshot_state()
        body = {
            "schema": SCHEMA_VERSION,
            "setup": setup or {},
            "state": state,
        }
        payload = dict(body)
        payload["digest"] = content_digest(body)
        return cls(payload)

    # -- accessors ----------------------------------------------------------

    @property
    def schema(self) -> int:
        """Bundle format version."""
        return self.payload["schema"]

    @property
    def digest(self) -> str:
        """SHA-256 content digest of the bundle body."""
        return self.payload["digest"]

    @property
    def setup(self) -> dict:
        """The recorded workload setup (empty if not resumable)."""
        return self.payload["setup"]

    @property
    def state(self) -> dict:
        """The captured state tree."""
        return self.payload["state"]

    @property
    def events_processed(self) -> int:
        """Kernel event count at capture — the replay target."""
        return self.state["system"]["sim"]["events_processed"]

    @property
    def time_ps(self) -> int:
        """Simulation clock at capture."""
        return self.state["system"]["sim"]["now_ps"]

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> str:
        """The bundle as canonical JSON."""
        return canonical_json(self.payload)

    def save(self, path) -> None:
        """Write the bundle to ``path`` atomically (temp file + rename)."""
        write_atomic(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        """Parse and validate a bundle (schema + integrity digest)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(f"unparseable bundle: {error}") from error
        if not isinstance(payload, dict) or "schema" not in payload:
            raise CheckpointError("not a checkpoint bundle (no schema field)")
        if payload["schema"] != SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported bundle schema {payload['schema']!r}; "
                f"this build reads schema {SCHEMA_VERSION}"
            )
        recorded = payload.get("digest")
        body = {k: v for k, v in payload.items() if k != "digest"}
        actual = content_digest(body)
        if recorded != actual:
            raise BundleIntegrityError(
                f"bundle digest mismatch: recorded {recorded!r}, "
                f"content hashes to {actual!r}"
            )
        return cls(payload)

    @classmethod
    def load(cls, path) -> "Snapshot":
        """Read and validate a bundle from ``path``."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- verification -------------------------------------------------------

    def verify(
        self,
        system: "SwallowSystem",
        campaign: "FaultCampaign | None" = None,
        nos: "NanoOS | None" = None,
        watchdog: "Watchdog | None" = None,
        governor: object | None = None,
    ) -> None:
        """Check a replayed run against this snapshot, field by field.

        One deep compare per layer present in both the bundle and the
        call: the layer's fresh ``snapshot_state()`` against the
        captured one.  Raises :class:`repro.sim.state.StateMismatchError`
        naming the first diverging path (``system.cores.3.…``).  Passing
        verification means the replay reproduced every captured
        observable — the definition of a byte-identical resume.
        """
        layers = (
            ("system", "system", system),
            ("campaign", "faults", campaign),
            ("nos", "nos", nos),
            ("watchdog", "watchdog", watchdog),
            ("governor", "governor", governor),
        )
        state = self.state
        for name, path, layer in layers:
            if layer is not None and name in state:
                verify_state(layer.snapshot_state(), state[name], path)

    def __repr__(self) -> str:
        return (
            f"<Snapshot events={self.events_processed} "
            f"t={self.time_ps} ps digest={self.digest[:12]}>"
        )
