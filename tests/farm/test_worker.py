"""Farm worker run files are written atomically.

A worker can be killed at any instant.  Every file it leaves for the
farm to read goes through a temp file and a rename, so a kill mid-write
leaves at most an ignored ``.tmp`` partial, never a torn record.
"""

import json
from pathlib import Path

import pytest

from repro.canonical import canonical_json
from repro.farm.worker import EXIT_PREEMPTED, execute_job, load_outcomes

CONFIG = {"workload": "faults_stream",
          "params": {"words": 4, "drop_rate": 0.0, "seed": 0}}


class Killed(BaseException):
    """Stands in for the worker process dying mid-write."""


def test_kill_mid_outcome_write_leaves_no_torn_file(tmp_path, monkeypatch):
    work = tmp_path / "job"
    first = execute_job(CONFIG, work, attempt=1, checkpoint_every=200,
                        heartbeat_every=None, preempt_after_events=300)
    assert first == EXIT_PREEMPTED
    [recorded] = load_outcomes(work)

    write_text = Path.write_text

    def dying_write(self, text, *args, **kwargs):
        if self.name.startswith("outcome-a2"):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise Killed
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", dying_write)
    with pytest.raises(Killed):
        execute_job(CONFIG, work, attempt=2, checkpoint_every=200,
                    heartbeat_every=None)
    monkeypatch.undo()

    assert not (work / "outcome-a2.json").exists()
    assert load_outcomes(work) == [recorded]


def test_outcome_is_canonical_json(tmp_path):
    work = tmp_path / "job"
    execute_job(CONFIG, work, checkpoint_every=200, heartbeat_every=None)
    text = (work / "outcome-a1.json").read_text(encoding="utf-8")
    assert text == canonical_json(json.loads(text))
    assert [o["attempt"] for o in load_outcomes(work)] == [1]
