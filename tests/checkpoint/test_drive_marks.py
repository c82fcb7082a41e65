"""Checkpoint marks, heartbeats and recovery are pure functions of a run.

:class:`ResumableRun` observes a run without perturbing it: it captures
at event-count and time marks, beats a heartbeat and honours a kill
point between kernel events.  The pins below were taken from the
reference per-event drive loop.  For every workload and mark kind they
fix the ``(events_processed, time_ps, digest)`` of every captured
bundle, the deterministic heartbeat core lines and the
:class:`RecoveryReport` bytes, so any drive loop must stop at exactly
the same events.
"""

import json

import pytest

from repro.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    ResumableRun,
    content_digest,
)
from repro.obs.perf import RunHeartbeat

#: workload -> (params, every_events, every_us, heartbeat every, kill at).
WORKLOADS = {
    "demo": ({"seed": 3}, 800, 1.0, 1000, 4000),
    "faults_stream": ({"words": 8, "seed": 2}, 250, 200.0, 300, 1000),
    # The 100 %-drop link at 20 us livelocks the stream; the watchdog
    # escalates to a rollback in every mode.
    "watchdog_stream": ({"words": 24, "seed": 0}, 400, 6.0, 500, 1500),
    "policy_rt": (
        {"policy": "ccedf", "tasks": 2, "seed": 1, "kills": 1, "k": 1},
        4000, 10.0, 5000, 15000,
    ),
}

MODES = ("every_events", "every_us", "heartbeat", "combined", "kill_resume")


class RecordingRun(ResumableRun):
    """A run that logs every bundle it captures, retained or not."""

    def __init__(self, *args, **kwargs):
        self.captured: list = []
        super().__init__(*args, **kwargs)

    def checkpoint(self):
        snapshot = super().checkpoint()
        self.captured.append(
            [snapshot.events_processed, snapshot.time_ps, snapshot.digest]
        )
        return snapshot


def observe(workload: str, mode: str, tmp_path) -> dict:
    """Drive one workload under one mark kind; return what it observed."""
    params, every_events, every_us, beat_every, kill = WORKLOADS[workload]
    by_events = CheckpointPolicy(every_events=every_events, retain=16)
    by_time = CheckpointPolicy(every_us=every_us, retain=16)
    heartbeat = None
    if mode == "kill_resume":
        store = CheckpointStore(tmp_path / f"{workload}-store", retain=16)
        first = RecordingRun(workload, params, policy=by_events, store=store)
        killed = first.run(kill_after_events=kill)
        assert first.killed
        run = RecordingRun.resume(store.latest(), policy=by_time)
        heartbeat = RunHeartbeat(beat_every, metrics=run.context.system.metrics)
        report = run.run(heartbeat=heartbeat)
        captured = first.captured + run.captured
        reports = [killed.to_json(), report.to_json()]
    else:
        policy = {
            "every_events": by_events,
            "every_us": by_time,
            "heartbeat": None,
            "combined": CheckpointPolicy(
                every_events=every_events, every_us=every_us, retain=16),
        }[mode]
        run = RecordingRun(workload, params, policy=policy)
        if mode in ("heartbeat", "combined"):
            heartbeat = RunHeartbeat(
                beat_every, metrics=run.context.system.metrics)
        report = run.run(heartbeat=heartbeat)
        captured = run.captured
        reports = [report.to_json()]
    return {
        "captured": captured,
        "heartbeat": heartbeat.core_jsonl() if heartbeat is not None else "",
        "reports": reports,
    }


def pin(observed: dict) -> tuple:
    """(captures, bundles digest, heartbeat digest, reports digest)."""
    return (
        len(observed["captured"]),
        content_digest(observed["captured"]),
        content_digest(observed["heartbeat"]),
        content_digest(observed["reports"]),
    )


#: (workload, mode) -> pin(observe(...)) under the reference drive loop.
GOLDEN = {
    ("demo", "every_events"): (
        10,
        "4987d1181704df47df43b4979c93e6d89da02fae34defcd32bfa8d55669b5832",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "de4dff7e527010fd6b0e30f1ed19fad18b823b9461096a7690b77fc94453c2b6",
    ),
    ("demo", "every_us"): (
        11,
        "733c1bc155c997488eec4b1ba9b7a7e406239113abc6cda2a778eb99bf985be8",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "ffff2468b529908293914fdba71ca53a07930e2f69f5db5727c10f13a90c8931",
    ),
    ("demo", "heartbeat"): (
        0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "191c3249ccc5c37bd939f534c9a418273df71387db12e9bf8df8a87bdbbd9886",
        "3ffdb5de13534b2ec5ddeccd312e67f49b114529164b731dd4ec8ffb6dea6853",
    ),
    ("demo", "combined"): (
        21,
        "ea9d95147fbcf8eb21c4cd8b9c45fb2a86b11e1e99229d92a55f7ad3cdfd2bcc",
        "30e1c234e8ebf071e52f0dd8db3ccd69d074d9dd19188bee942ed183c0eb2834",
        "cafdb6360af4e5aa50d9ccd86463f5710189171677cda0dbdb8b8cbf87a8e3e9",
    ),
    ("demo", "kill_resume"): (
        12,
        "e07b6f2f00ba0d96ecfb6da30ee98cb50060fb11d761cf7bfa2791332306d30e",
        "950980effb89c85cf70b572bf1905c93c18135df6c273a1125bb43a914e36eee",
        "9abdd136292d89c258acf4442c75b99066cbd81b9cd690246657a09f8b1c67eb",
    ),
    ("faults_stream", "every_events"): (
        8,
        "28bbe2b5ea72ced2dfc59daa066a82c1680a5fd6f077fa331733fd5dd6e19e1e",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "95cd47cc452d52997f884b7dcedaf8731d6e851c03d6f8a28f1fac7b38f94b3c",
    ),
    ("faults_stream", "every_us"): (
        5,
        "868e60abb8b8327a13eb38f26162150ce56d76025ebebf0e9522aa5fa4ce2153",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "0007b9681a5160b15710afac4414f6cf50d09fcfe96c8869e8a335ad17dea2f9",
    ),
    ("faults_stream", "heartbeat"): (
        0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "bf115d432aa0738f452a5be3b0fc1f0f726e44a8905a77124ac6a6c1374fbdf2",
        "392a6094c2a226a044cff6f7f4c51ee0377c2038996eab9502e2682c31541c39",
    ),
    ("faults_stream", "combined"): (
        13,
        "efd90c0f131c928f504bd68604fe0ea4fe6ef79a7d449492b2edc025c6e4e1ab",
        "5d3950bc8a841e0e823e8c6af397493daef17dd3063c017adbe12baa97ac3d75",
        "61269e56ade6b8d876e20d46cecf1d1a2f8f6142c56cfd02a3e4276662a0b10f",
    ),
    ("faults_stream", "kill_resume"): (
        7,
        "502ffc163816528917e7a175fc07f53deec1649ca0994deeff91fecfd3a34602",
        "24429290d06f6a3181a5d6d677ecfe802e074d99005eaa7390c6cc19ef78751b",
        "cbc90a3416ae2fab6f71eae5d836c0e991412fde6c0b4a1c9d6c4294ed37e82e",
    ),
    ("policy_rt", "every_events"): (
        7,
        "f0998209d7cdd5f133bb2e29ea83fc4b32ab828b14a427d8cc27b64ec080cc76",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "e721732ba75ae305c6f17ff8e2113381a12c79c9d5bd14dcca888f3bf95d973a",
    ),
    ("policy_rt", "every_us"): (
        19,
        "59eff83343fcdf64b55c249d85b25535463783bbfaa1c59d66f0f059cf8b9cad",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "6a5861a44caa231d9240f2056bece098df930fae3709a232b6864ed6784e6e6d",
    ),
    ("policy_rt", "heartbeat"): (
        0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "8866c9a170b74ace332f83525bb2a8b17d59915447001ca9f2d4950cecb51198",
        "7d53d1d7d71e175806a9d6f32c4c7b1cec69347a455845fcff5c0ad7d52f3bca",
    ),
    ("policy_rt", "combined"): (
        26,
        "469645b367cd1e2a85d094d19d3bfdce34aff61be621d6ada8860cd420182b6a",
        "e066156830db0804a2fcbf0d1523139c55555f04bef4cc24b8b568337f48f9d4",
        "c6f1f18e7b4402a92960abc38310a5a9dec6796325a0312190bf7445954b071a",
    ),
    ("policy_rt", "kill_resume"): (
        17,
        "947c7c954dddc59075ebb6d79a23ecfa350f67fc4fc1f168ef3961f86e053ab9",
        "97a880c93518af5025198f66001dae593b5deb4a7345f3f1aa6931e5d4be2e5e",
        "7a053d33aa62b0690e5f2dab2086955a0d0e02708cb6e28b92d372e91f3994dd",
    ),
    ("watchdog_stream", "every_events"): (
        8,
        "dbf8e24976a4bc6f3bb7c40c60c93de960985f5f52318ddd130827e4bdf18be8",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "15038b8bbfea9fb532d35df40ed3017f22db4a963a07a4d8a67239a3514682a4",
    ),
    ("watchdog_stream", "every_us"): (
        14,
        "e1443c129dadbacdfe693b540f9f9f75cd2503aec7acb0fae733265056c525b3",
        "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "74b4d96e392ec47b56308fb833fb8deff3ddf3b47a2456bd9a40f67bb1ca1a88",
    ),
    ("watchdog_stream", "heartbeat"): (
        0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "0487e49f034a8f6a744f91795c8f38e6f6f48e8c024345b1c108c89a4f0de1a7",
        "b875c02e6b3299bbeba930d01272e8e50c3331458f9c5d95e4a495178c277871",
    ),
    ("watchdog_stream", "combined"): (
        22,
        "c3f62d0bf50d488b235166e39c01ce8590f3ca10b1677906e75948655f560af5",
        "76c9e2578bd974e6339161ef8be34a8b14f73940397ff4042701b047f6816d86",
        "3da23cf1f5c3ba7d95e4c4a4f6c657650241626bd4e777c1fc719f2bbc3e0ec0",
    ),
    ("watchdog_stream", "kill_resume"): (
        15,
        "4ba0a41abc3904abc04200d6eeedf7e2593507f8e48f7c0c4a63cf1c69ee3779",
        "362f048951b529126a46e9f54d04e633a7c8dd5e9ef085ca58dd6b809f0efee2",
        "1e1d7b009ee507af8419f2b4375e57297aaac0b8120ef39701b4b571f21a74be",
    ),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_drive_marks_match_reference(tmp_path, workload, mode):
    observed = observe(workload, mode, tmp_path)
    assert pin(observed) == GOLDEN[(workload, mode)]
    if workload == "watchdog_stream":
        # The rollback pins only mean something if a rollback happened.
        assert json.loads(observed["reports"][-1])["rollbacks"] == 1
