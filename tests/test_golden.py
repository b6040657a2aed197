"""Golden outputs: the sha256 of every file each subcommand writes.

A three-scene corpus (the canonical crossing, an asymmetric crossing and a
four-agent scene with one evaluated and one never-collapsing pair) runs
through every subcommand once. Each output file must match its committed
digest byte for byte; ``manifest.json`` is compared without its wall-clock
``timing_s``. A second corpus of one scene, the canonical crossing with a
vehicle parked beside it, runs through ``rollout``, ``baseline --model
oracle`` and ``eval`` with both baselines: the oracle rolls the parked
track, whose steps are all of zero length, so its path drops the repeated
points and gets a flat speed cap. A busy 10 Hz crossing (``busy_scene``),
where many pairs share an agent and a window and so many rollout rows
repeat, pins the CSV that ``rollout`` writes from its analysis. The digests
are committed values, never
computed from the program at test time. An intended output change regenerates only the
affected digests, with the reason in CHANGES.md.
"""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from interaction_eval import EvalConfig, analyse_scene, evaluate_scene, run_pipeline, save_scene
from interaction_eval.cli import main
from interaction_eval.pipeline import write_rollout_csv

from conftest import busy_scene, crossing_scene, four_agent_scene, parked_scene

MODE_FIXTURE = {
    "dt": 0.5,
    "pairs": [
        {"scene_id": "ex", "agent_a": "a", "agent_b": "b", "frames": [
            {"frame": 4, "gt": "CW", "ml": "CCW", "pred": ["CCW"], "feas": ["CCW", "CW"]},
            {"frame": 5, "gt": "CW", "ml": "CCW", "pred": ["CCW", "CW"],
             "feas": ["CCW", "CW"]},
            {"frame": 6, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
            {"frame": 7, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CW"]}]},
        {"scene_id": "ex", "agent_a": "a", "agent_b": "c", "frames": [
            {"frame": 2, "gt": "CCW", "ml": "CCW", "pred": ["CCW", "CW"],
             "feas": ["CCW", "CW"]},
            {"frame": 3, "gt": "CCW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
            {"frame": 4, "gt": "CCW", "ml": "CCW", "pred": ["CCW"], "feas": ["CCW", "CW"]}]},
    ],
}

# subcommand arguments, keyed by the directory each run writes into; paths are
# relative to the corpus root so that manifest.json records no temporary path
RUNS = {
    "filter": ["filter", "--scene-dir", "scenes", "--out", "filter/filter.csv"],
    "rollout": ["rollout", "--scene-dir", "scenes", "--out", "rollout/rollout.csv"],
    "report": ["report", "--scene-dir", "scenes", "--out-dir", "report"],
    "baseline-oracle": ["baseline", "--scene-dir", "scenes", "--model", "oracle",
                        "--out-dir", "baseline-oracle"],
    "eval-cv": ["eval", "--scene-dir", "scenes", "--pred", "cv", "--out-dir", "eval-cv"],
    "eval-oracle": ["eval", "--scene-dir", "scenes", "--pred", "oracle",
                    "--out-dir", "eval-oracle"],
    # reads back the prediction files that "baseline-oracle" wrote
    "eval-predfile": ["eval", "--scene-dir", "scenes", "--pred", "baseline-oracle",
                      "--out-dir", "eval-predfile"],
    "eval-fixture": ["eval", "--fixture", "fixture.json", "--out-dir", "eval-fixture"],
    "parked-rollout": ["rollout", "--scene-dir", "parked-scenes",
                       "--out", "parked-rollout/rollout.csv"],
    "parked-baseline-oracle": ["baseline", "--scene-dir", "parked-scenes", "--model", "oracle",
                               "--out-dir", "parked-baseline-oracle"],
    "parked-eval-cv": ["eval", "--scene-dir", "parked-scenes", "--pred", "cv",
                       "--out-dir", "parked-eval-cv"],
    "parked-eval-oracle": ["eval", "--scene-dir", "parked-scenes", "--pred", "oracle",
                           "--out-dir", "parked-eval-oracle"],
}

GOLDEN = {
    "filter/filter.csv":
        "11d30668032ddaa75c228c082e46a47c26e20ae69389d2519d5a02e98af6f924",
    "rollout/rollout.csv":
        "cbfda101abe8276796e8076e5f7fa4d7ebaad371c751e979d791968459d06700",
    "report/heatmap.csv":
        "295e4fed7d0c9d4015cc3fc37fba85a8d596ee3bed35713c9b9e76cd3c3618cd",
    "report/ihs_hist.csv":
        "65c9c8415dd45f49d5b628886172759eff18b9552f55e772b2eef426c12e495f",
    "baseline-oracle/asym.json":
        "8a33f730c74d49fda74f060aeefc83c0eb55cc318c15680732f50c59b9a1fd02",
    "baseline-oracle/crossing.json":
        "cf04c2c05e205be00f2830cca1832b6dab5bb65f2d6a1e5f7a5e67500937ba69",
    "baseline-oracle/four.json":
        "b32f5c7f32db72cb27264059f7ed04637c6096b4166f0162b746f6754cd72e9c",
    "eval-cv/curves.csv":
        "3848ff07e40a6ca01fc7bb150a27c4cf4da939a5420dc1ca7e8a4924c41510d6",
    "eval-cv/filter.csv":
        "11d30668032ddaa75c228c082e46a47c26e20ae69389d2519d5a02e98af6f924",
    "eval-cv/frames.csv":
        "c5cfcb48cd6200f793f8d140f3e348c97c4c6cf7701f6c26393f0451b2e0929e",
    "eval-cv/heatmap.csv":
        "295e4fed7d0c9d4015cc3fc37fba85a8d596ee3bed35713c9b9e76cd3c3618cd",
    "eval-cv/ihs_hist.csv":
        "65c9c8415dd45f49d5b628886172759eff18b9552f55e772b2eef426c12e495f",
    "eval-cv/manifest.json":
        "7c0ffc5d3e9fd3687bb1bb387f7e8ca8b5ef4ed29b3476864d8532781d006b09",
    "eval-cv/pairs.csv":
        "7d9c30d682bf21d704aeb44ad49c3bf6b05e8f87fc42ea2d55cbfe5f95d0145d",
    "eval-cv/report.json":
        "28e1279f7f5d623f91165d0b09666823d7afd4c7e1c853c7f2d9fdd072858767",
    "eval-oracle/curves.csv":
        "3848ff07e40a6ca01fc7bb150a27c4cf4da939a5420dc1ca7e8a4924c41510d6",
    "eval-oracle/filter.csv":
        "11d30668032ddaa75c228c082e46a47c26e20ae69389d2519d5a02e98af6f924",
    "eval-oracle/frames.csv":
        "c5cfcb48cd6200f793f8d140f3e348c97c4c6cf7701f6c26393f0451b2e0929e",
    "eval-oracle/heatmap.csv":
        "295e4fed7d0c9d4015cc3fc37fba85a8d596ee3bed35713c9b9e76cd3c3618cd",
    "eval-oracle/ihs_hist.csv":
        "65c9c8415dd45f49d5b628886172759eff18b9552f55e772b2eef426c12e495f",
    "eval-oracle/manifest.json":
        "7aed697b64bfa53c52a78c39a6ccf10b26eb24b4bad973e554b19832023eee81",
    "eval-oracle/pairs.csv":
        "7d9c30d682bf21d704aeb44ad49c3bf6b05e8f87fc42ea2d55cbfe5f95d0145d",
    "eval-oracle/report.json":
        "c26de173b61aa3bb4f79f271ea5a69dd5ac23cdc4ed46fafc5b3fd0f9a8a7f44",
    "eval-predfile/curves.csv":
        "3848ff07e40a6ca01fc7bb150a27c4cf4da939a5420dc1ca7e8a4924c41510d6",
    "eval-predfile/filter.csv":
        "11d30668032ddaa75c228c082e46a47c26e20ae69389d2519d5a02e98af6f924",
    "eval-predfile/frames.csv":
        "c5cfcb48cd6200f793f8d140f3e348c97c4c6cf7701f6c26393f0451b2e0929e",
    "eval-predfile/heatmap.csv":
        "295e4fed7d0c9d4015cc3fc37fba85a8d596ee3bed35713c9b9e76cd3c3618cd",
    "eval-predfile/ihs_hist.csv":
        "65c9c8415dd45f49d5b628886172759eff18b9552f55e772b2eef426c12e495f",
    "eval-predfile/manifest.json":
        "530ee159ebbf1051e356633787d8d855a85a1d934186656cb788ea8dd1ecac2d",
    "eval-predfile/pairs.csv":
        "7d9c30d682bf21d704aeb44ad49c3bf6b05e8f87fc42ea2d55cbfe5f95d0145d",
    "eval-predfile/report.json":
        "c26de173b61aa3bb4f79f271ea5a69dd5ac23cdc4ed46fafc5b3fd0f9a8a7f44",
    "eval-fixture/curves.csv":
        "4ed85d59cfec9b333d608a6ddd55ae6bc9f79dcaff2dd8c19a266f2e6449fe5d",
    "eval-fixture/frames.csv":
        "7724534489d4441ec11fe5a4b85f2f81e68a6bdcf5c6e3265b35ce0fe178fe4d",
    "eval-fixture/pairs.csv":
        "52bbc53edaf9409fb49dbedce1d8ff16c1602de76acf78bc322b65d4b2ec4a66",
    "eval-fixture/report.json":
        "1613e2f9a383074abc3e6cb8506336e5ad30467db910b5206d20a9e0367b4fc0",
    "parked-baseline-oracle/parked.json":
        "55b2c167dfa8480becd94d7ff6e6e37761808fb61248139b7c0c7c05c3d4b886",
    "parked-eval-cv/curves.csv":
        "24e4398309fda846491ef8880b1725ef02d4d172c1e0c3004d1dd0f1c330a137",
    "parked-eval-cv/filter.csv":
        "0229e464002391771e5f4f89b935ea93a64354ae3a03e8b628ce0e5d8403a69a",
    "parked-eval-cv/frames.csv":
        "436908ea2aea78ac98160371b42b5c20ef1e142cf10bbc1074e6e2bde10a2b14",
    "parked-eval-cv/heatmap.csv":
        "0e300ff76d02781f4022276b19347430c96d9c714a08fa80599e3b7955f2a73b",
    "parked-eval-cv/ihs_hist.csv":
        "e02e97e440c59161577863d31ba6432e6144b1809a4b1c411de03977e4b642ca",
    "parked-eval-cv/manifest.json":
        "a83e4aa841265c70c118d24369458300d4b200c32e25d062de48790957b6ba46",
    "parked-eval-cv/pairs.csv":
        "b5946ffa01122550f283e1a96cfc7a0aa90b2ee799d9baa2c1e4279b942a1b72",
    "parked-eval-cv/report.json":
        "37d058109c1da61b42f6359e50b6cfb10aa49238006506373d90abcc7494bcf1",
    "parked-eval-oracle/curves.csv":
        "24e4398309fda846491ef8880b1725ef02d4d172c1e0c3004d1dd0f1c330a137",
    "parked-eval-oracle/filter.csv":
        "0229e464002391771e5f4f89b935ea93a64354ae3a03e8b628ce0e5d8403a69a",
    "parked-eval-oracle/frames.csv":
        "436908ea2aea78ac98160371b42b5c20ef1e142cf10bbc1074e6e2bde10a2b14",
    "parked-eval-oracle/heatmap.csv":
        "0e300ff76d02781f4022276b19347430c96d9c714a08fa80599e3b7955f2a73b",
    "parked-eval-oracle/ihs_hist.csv":
        "e02e97e440c59161577863d31ba6432e6144b1809a4b1c411de03977e4b642ca",
    "parked-eval-oracle/manifest.json":
        "72cf6f479e50204c91eff8f00b08c92fab80b701961a53d2fdbf8a9ddc4c13b4",
    "parked-eval-oracle/pairs.csv":
        "b5946ffa01122550f283e1a96cfc7a0aa90b2ee799d9baa2c1e4279b942a1b72",
    "parked-eval-oracle/report.json":
        "8abcb0cd6dfbfb16e9f9f1320416f1b334dd9868e97d853d62944070a9e1fb09",
    "parked-rollout/rollout.csv":
        "29a4128ff2a68168b3f98e428d2414c7b271b21479091dc52ea24186ab07217b",
}

# the rollout CSV of busy_scene(): 12 agents, 24 accepted pairs, 17 timelines
BUSY_ROLLOUT = "2df83827d4ab34b6e55c030fd471aef122f4b7f44c2606e0b6d7373557010f6a"


def _digest(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("timing_s")
        data = json.dumps(manifest, indent=1, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def golden_scenes():
    """Each golden corpus's directory and its scenes."""
    return {"scenes": [crossing_scene(),
                       crossing_scene(v_a=8.0, v_b=5.0, gap_a=40.0, gap_b=37.0, scene_id="asym"),
                       four_agent_scene()],
            "parked-scenes": [parked_scene()]}


def save_golden_scenes(root):
    for name, scenes in golden_scenes().items():
        (root / name).mkdir()
        for scene in scenes:
            save_scene(scene, root / name / f"{scene.scene_id}.json")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    save_golden_scenes(root)
    (root / "filter").mkdir()
    (root / "rollout").mkdir()
    (root / "parked-rollout").mkdir()
    (root / "fixture.json").write_text(json.dumps(MODE_FIXTURE))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, args in RUNS.items():
            res = CliRunner().invoke(main, args)
            assert res.exit_code == 0, (name, res.output)
    finally:
        os.chdir(cwd)
    return {f"{name}/{p.name}": _digest(p)
            for name in RUNS for p in sorted((root / name).iterdir())}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_digests(outputs, run):
    got = {k: v for k, v in outputs.items() if k.startswith(run + "/")}
    want = {k: v for k, v in GOLDEN.items() if k.startswith(run + "/")}
    assert got == want


def test_manifest_counts_the_rendered_rejections(tmp_path):
    """On each golden scene, the manifest's count of rejected pairs, taken
    from the filter's fate table, equals the number of rejections that
    ``evaluate_scene``'s result renders."""
    save_golden_scenes(tmp_path)
    cfg = EvalConfig()
    counts = {}
    for name, scenes in golden_scenes().items():
        run_pipeline(tmp_path / name, "cv", tmp_path / f"{name}-eval", cfg)
        manifest = json.loads((tmp_path / f"{name}-eval" / "manifest.json").read_text())
        for scene in scenes:
            counts[scene.scene_id] = manifest["scenes"][scene.scene_id]["n_rejected_pairs"]
            assert counts[scene.scene_id] == len(evaluate_scene(scene, cfg).rejections)
    assert counts == {"crossing": 0, "asym": 0, "four": 4, "parked": 2}


def test_busy_scene_rollout_matches_golden_digest(tmp_path):
    """The busy crossing's timelines, one CSV row per frame of each accepted
    pair's window and one summary row per pair, byte for byte."""
    analysis = analyse_scene(busy_scene(), EvalConfig())
    assert len(analysis.pairs) == 24
    assert sum(ev.timeline is not None for ev in analysis.pairs) == 17
    write_rollout_csv(tmp_path / "rollout.csv", [analysis])
    assert _digest(tmp_path / "rollout.csv") == BUSY_ROLLOUT
