"""The corpus generator is a pure function of (workload, seed)."""

import json

import pytest

import corpus


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_bytes(tmp_path, workload):
    corpus.generate(workload, 7, tmp_path / "a")
    corpus.generate(workload, 7, tmp_path / "b")
    corpus.generate(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_labels_cover_every_pair_once(tmp_path, workload):
    corpus.generate(workload, 3, tmp_path)
    labels = json.loads((tmp_path / "labels.json").read_text())
    for scene_file in (tmp_path / "scenes").glob("*.json"):
        scene = json.loads(scene_file.read_text())
        ids = sorted(a["id"] for a in scene["agents"])
        pairs = [tuple(x["pair"]) for x in labels[scene["scene_id"]]]
        assert sorted(pairs) == [(x, y) for i, x in enumerate(ids) for y in ids[i + 1:]]


def test_every_reject_reason_is_designed(tmp_path):
    reasons = set()
    for workload in corpus.WORKLOADS:
        corpus.generate(workload, 1, tmp_path / workload)
        labels = json.loads((tmp_path / workload / "labels.json").read_text())
        reasons |= {x["reason"] for scene in labels.values() for x in scene}
    assert reasons == {"Accepted", "NeverPathSharing", "SharedFromStart", "TimeGapTooLarge"}
