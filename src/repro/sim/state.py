"""Checkpoint state plumbing shared by every stateful component.

The checkpoint subsystem (:mod:`repro.checkpoint`) walks the platform
calling ``snapshot_state()`` hooks.  After a restore replay has
re-registered the schedulable state, the replayed state is *verified*
against the bundle rather than injected: :meth:`Snapshot.verify` takes
each layer's fresh ``snapshot_state()`` and deep-compares it with
:func:`verify_state`, which reports the first diverging path so a
mismatch pinpoints the component and field instead of one opaque digest
failure.
"""

from __future__ import annotations

from typing import Any


class StateMismatchError(RuntimeError):
    """A component's replayed state diverged from its checkpointed state."""


def verify_state(actual: Any, expected: Any, path: str = "state") -> None:
    """Deep-compare two state trees; raise on the first divergence.

    Both trees are canonical snapshot state: JSON-able nests of dicts,
    lists, strings, ints, floats, bools and None.  Floats must match
    exactly (the simulator is deterministic down to the last bit; a
    near-miss is still a diverged replay).
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            raise StateMismatchError(
                f"{path}: expected a mapping, found {type(actual).__name__}"
            )
        for key in expected.keys() | actual.keys():
            if key not in actual:
                raise StateMismatchError(f"{path}.{key}: missing after restore")
            if key not in expected:
                raise StateMismatchError(f"{path}.{key}: not in checkpoint bundle")
            verify_state(actual[key], expected[key], f"{path}.{key}")
        return
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)):
            raise StateMismatchError(
                f"{path}: expected a sequence, found {type(actual).__name__}"
            )
        if len(actual) != len(expected):
            raise StateMismatchError(
                f"{path}: length {len(actual)} != checkpointed {len(expected)}"
            )
        for index, (a, e) in enumerate(zip(actual, expected)):
            verify_state(a, e, f"{path}[{index}]")
        return
    # bool is an int subclass; require the exact type so True != 1 here.
    if type(actual) is not type(expected) or actual != expected:
        raise StateMismatchError(
            f"{path}: restored value {actual!r} != checkpointed {expected!r}"
        )
