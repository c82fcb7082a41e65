"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.__main__ import main


class TestInfo:
    def test_single_slice(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cores:            16" in out
        assert "8.0 GIPS" in out

    def test_480_core_machine(self, capsys):
        assert main(["info", "--slices-x", "5", "--slices-y", "6"]) == 0
        out = capsys.readouterr().out
        assert "cores:            480" in out
        assert "240.0 GIPS" in out


class TestTables:
    def test_tables_contain_all_sections(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "10880.0 pJ/bit" in out
        assert "XMOS XS1-L" in out and "YES" in out
        assert "SpiNNaker" in out
        assert "Fig. 2" in out


class TestDemo:
    def test_demo_runs_and_reports(self, capsys, tmp_path):
        assert main(["run", "demo", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Energy report" in out
        assert "recovery report: completed" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["received"] == [0, 1, 4, 9]


def _tamper_digest(bundle):
    payload = json.loads(bundle.read_text())
    payload["digest"] = "0" * 64
    bundle.write_text(json.dumps(payload))


def _tamper_schema(bundle):
    payload = json.loads(bundle.read_text())
    payload["schema"] = 999
    bundle.write_text(json.dumps(payload))


class TestCheckpointCli:
    def test_faults_kill_exits_resumable(self, capsys, tmp_path):
        """--kill-after-events simulates a crash: exit 75 + bundles on disk."""
        store = tmp_path / "store"
        code = main([
            "run", "faults_stream", "--params", '{"words": 8, "seed": 3}',
            "--checkpoint-every", "400",
            "--checkpoint-dir", str(store),
            "--kill-after-events", "1200",
        ])
        assert code == 75
        out = capsys.readouterr().out
        assert "killed after 1200 events" in out
        assert list(store.glob("checkpoint-*.json"))

    def test_checkpoint_then_resume_completes(self, capsys, tmp_path):
        """A bundle path as TARGET resumes that bundle to completion."""
        store = tmp_path / "store"
        assert main([
            "run", "faults_stream", "--params", '{"words": 8, "seed": 1}',
            "--checkpoint-every", "900", "--checkpoint-dir", str(store),
            "--kill-after-events", "900",
        ]) == 75
        capsys.readouterr()
        bundle = store / "checkpoint-000000000900.json"
        assert bundle.exists()
        assert main(["run", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "@ 900 events, verified" in out
        assert "recovery report: completed" in out
        assert "delivered         8 (intact)" in out

    def test_resume_from_store_matches_uninterrupted(self, capsys, tmp_path):
        """The CI soak flow in miniature: kill, rerun against the store,
        and diff the final JSON report against an uninterrupted run."""
        from repro.canonical import canonical_json
        from repro.checkpoint import build_workload

        store = tmp_path / "store"
        command = ["run", "faults_stream", "--params", '{"words": 8, "seed": 3}',
                   "--checkpoint-every", "300", "--checkpoint-dir", str(store),
                   "--retain", "2"]
        assert main([*command, "--kill-after-events", "1000"]) == 75
        assert len(list(store.glob("checkpoint-*.json"))) == 2
        capsys.readouterr()
        assert main([*command, "--out", str(tmp_path / "out")]) == 0
        assert "resumed from" in capsys.readouterr().out
        resumed = json.loads((tmp_path / "out" / "report.json").read_text())
        assert resumed.pop("recovery")["outcome"] == "completed"

        reference = build_workload("faults_stream", {"words": 8, "seed": 3})
        reference.system.run()
        assert canonical_json(resumed) == canonical_json(
            reference.final_report()
        )

    @pytest.mark.parametrize("target", [
        "unknown-workload", "missing-bundle", "tampered-digest",
        "tampered-schema",
    ])
    def test_bad_target_exits_2(self, capsys, tmp_path, target):
        """Bad targets end in one typed ``repro run:`` line, exit 2."""
        path = "bogus"
        if target != "unknown-workload":
            path = str(tmp_path / "bundle.json")
        if target.startswith("tampered"):
            assert main([
                "run", "demo", "--checkpoint-every", "500",
                "--checkpoint-dir", str(tmp_path / "store"),
                "--kill-after-events", "500",
            ]) == 75
            bundle = tmp_path / "store" / "checkpoint-000000000500.json"
            bundle.rename(path)
            tamper = {"tampered-digest": _tamper_digest,
                      "tampered-schema": _tamper_schema}[target]
            tamper(tmp_path / "bundle.json")
        capsys.readouterr()
        assert main(["run", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("repro run: "), err

    def test_store_of_another_workload_is_refused(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["run", "demo", "--checkpoint-every", "500",
                     "--checkpoint-dir", str(store),
                     "--kill-after-events", "500"]) == 75
        capsys.readouterr()
        assert main(["run", "faults_stream",
                     "--checkpoint-dir", str(store)]) == 2
        assert "holds checkpoints of 'demo'" in capsys.readouterr().err


class TestRunObservers:
    def test_span_pipeline_artifacts(self, capsys, tmp_path):
        """trace + profile + spans + heartbeat artifacts under --out."""
        assert main(["run", "span_pipeline", "--params", '{"seed": 4}',
                     "--observe", "trace,profile",
                     "--heartbeat-every", "500",
                     "--out", str(tmp_path)]) == 0
        written = {path.name for path in tmp_path.iterdir()}
        assert written == {
            "report.json", "trace.json", "profile.folded",
            "profile.trace.json", "spans.jsonl", "energy.folded",
            "heartbeat.jsonl",
        }
        trace = json.loads((tmp_path / "trace.json").read_text())
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"s", "f"} <= phases  # cross-core span flow arrows
        spans = (tmp_path / "spans.jsonl").read_text().splitlines()
        root = json.loads(spans[0])
        assert root["name"] == "pipeline" and root["end_ps"] is not None
        assert (tmp_path / "profile.folded").read_text().startswith("sim;")
        beats = (tmp_path / "heartbeat.jsonl").read_text().splitlines()
        assert json.loads(beats[-1])["final"] is True
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["delivered_ok"] is True

    def test_artifacts_are_byte_identical_across_runs(self, tmp_path):
        for tag in ("a", "b"):
            assert main(["run", "span_pipeline", "--observe", "trace",
                         "--out", str(tmp_path / tag)]) == 0
        for name in ("report.json", "trace.json", "spans.jsonl",
                     "energy.folded"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name


class TestParsing:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])
