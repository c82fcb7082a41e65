"""End-to-end tests for ``python -m repro run --observe netscope`` and
``topo --heat``.

The CLI contract the docs advertise: exported heat maps and counter
tracks are byte-identical across same-seed runs — including a run that
is killed mid-flight and resumed from its checkpoint store.
"""

import json

from repro.__main__ import EXIT_KILLED, main


def _netscope(tmp_path, tag, *extra):
    out = tmp_path / tag
    rc = main(["run", "faults_stream", "--params", '{"words": 8, "seed": 7}',
               "--observe", "netscope", "--out", str(out), *extra])
    return rc, out / "netscope.json", out / "netscope.counters.json"


class TestNetscopeCli:
    def test_fresh_runs_are_byte_identical(self, tmp_path, capsys):
        rc_a, heat_a, counters_a = _netscope(tmp_path, "a")
        assert rc_a == 0
        out = capsys.readouterr().out
        assert "netscope:" in out
        assert "blocked total" in out
        rc_b, heat_b, counters_b = _netscope(tmp_path, "b")
        assert rc_b == 0
        assert heat_a.read_bytes() == heat_b.read_bytes()
        assert counters_a.read_bytes() == counters_b.read_bytes()
        counters = json.loads(counters_a.read_text())["traceEvents"]
        assert {event["ph"] for event in counters} == {"C", "M"}

    def test_kill_resume_matches_uninterrupted(self, tmp_path, capsys):
        rc, reference, _ = _netscope(tmp_path, "reference")
        assert rc == 0
        capsys.readouterr()

        store = tmp_path / "store"
        rc, _, _ = _netscope(
            tmp_path, "killed",
            "--checkpoint-every", "400", "--checkpoint-dir", str(store),
            "--kill-after-events", "1500",
        )
        assert rc == EXIT_KILLED
        assert "rerun without --kill-after-events" in capsys.readouterr().out

        rc, resumed, _ = _netscope(
            tmp_path, "resumed",
            "--checkpoint-every", "400", "--checkpoint-dir", str(store),
        )
        assert rc == 0
        assert "resumed from" in capsys.readouterr().out
        assert resumed.read_bytes() == reference.read_bytes()

    def test_json_mode_emits_the_heatmap(self, tmp_path, capsys):
        """The heat map lands in the report and in netscope.json alike."""
        assert main(["run", "faults_stream",
                     "--params", '{"words": 6, "seed": 0}',
                     "--observe", "netscope", "--out", str(tmp_path)]) == 0
        heatmap = json.loads((tmp_path / "netscope.json").read_text())
        assert heatmap["schema"] == "netscope-heatmap/1"
        blocked = heatmap["blocked"]
        assert blocked["total_ps"] == sum(blocked["by_cause"].values())
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["netscope"] == heatmap

    def test_ascii_overlay_renders(self, tmp_path, capsys):
        assert main(["topo", "--heat", "--slices-x", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "heat ramp" in out
        assert "slice cut:" in out


class TestTopoHeat:
    def test_heat_overlay_is_deterministic(self, capsys):
        assert main(["topo", "--heat", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["topo", "--heat", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first
        assert "heat ramp" in first

    def test_topology_alias_still_draws_the_plain_map(self, capsys):
        assert main(["topology"]) == 0
        assert "=" in capsys.readouterr().out


class TestFarmHeatmapCli:
    def test_farm_report_merges_job_heatmaps(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({
            "workload": "faults_stream",
            "base": {"words": 4, "drop_rate": 0.0, "netscope": True},
            "sweep": {"seed": [0, 1], "slices_x": [1, 2]},
        }))
        farm = tmp_path / "farm"
        assert main(["farm", "run", "--dir", str(farm),
                     "--matrix", str(matrix), "--workers", "2",
                     "--checkpoint-every", "200", "--json"]) == 0
        capsys.readouterr()

        fleet_path = tmp_path / "fleet.json"
        assert main(["farm", "report", "--dir", str(farm),
                     "--heatmap-out", str(fleet_path)]) == 0
        assert str(fleet_path) in capsys.readouterr().out
        fleet = json.loads(fleet_path.read_text())
        assert fleet["schema"] == "netscope-fleet/1"
        assert fleet["jobs"] == 4
        assert set(fleet["grids"]) == {"1x1", "2x1"}
        for merged in fleet["grids"].values():
            assert merged["merged_from"] == 2

    def test_farm_report_notes_missing_heatmaps(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({
            "workload": "faults_stream",
            "base": {"words": 4, "drop_rate": 0.0},
            "sweep": {"seed": [0]},
        }))
        farm = tmp_path / "farm"
        assert main(["farm", "run", "--dir", str(farm),
                     "--matrix", str(matrix), "--workers", "1",
                     "--checkpoint-every", "200", "--json"]) == 0
        capsys.readouterr()
        assert main(["farm", "report", "--dir", str(farm),
                     "--heatmap-out", str(tmp_path / "fleet.json")]) == 0
        assert "no netscope heat maps" in capsys.readouterr().out
