"""Snapshot.save is atomic: a kill mid-write never tears a bundle."""

from pathlib import Path

import pytest

from repro.checkpoint import Snapshot, build_workload


class Killed(BaseException):
    """Stands in for the process dying mid-write."""


def test_kill_mid_save_keeps_the_previous_bundle(tmp_path, monkeypatch):
    context = build_workload("demo", {"seed": 3})
    context.system.sim.run(max_events=1000)
    path = tmp_path / "bundle.json"
    first = context.capture(setup={"workload": "demo"})
    first.save(path)
    context.system.sim.run(max_events=1000)
    second = context.capture(setup={"workload": "demo"})

    write_text = Path.write_text

    def dying_write(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise Killed

    monkeypatch.setattr(Path, "write_text", dying_write)
    with pytest.raises(Killed):
        second.save(path)
    monkeypatch.undo()

    assert Snapshot.load(path).digest == first.digest
    assert (tmp_path / "bundle.json.tmp").exists()   # the ignored partial
    second.save(path)
    assert Snapshot.load(path).digest == second.digest
    assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]
