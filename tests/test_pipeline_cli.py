import csv
import functools
import gc
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    ConfigError,
    EvalConfig,
    JointPredictionSet,
    ParseError,
    analyse_scene,
    cv_predict,
    evaluate_scene,
    grade_scene,
    load_predictions,
    load_scene,
    run_pipeline,
    save_predictions,
    save_scene,
)
from interaction_eval import filtering, pipeline, sceneio
from interaction_eval.cli import main
from interaction_eval.pipeline import BASELINE_MODELS, DEFAULT_ORACLE_K, run_fixture

from conftest import crossing_scene, four_agent_scene
from test_filtering import stage_scene
from test_golden import golden_scenes

TABLE_FIXTURE = {
    "dt": 0.5,
    "pairs": [
        {
            "scene_id": "ex", "agent_a": "a", "agent_b": "b",
            "frames": [
                {"frame": 5, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 6, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 7, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 8, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 9, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 10, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 11, "gt": "CW", "ml": "CCW", "pred": ["CCW", "CW"],
                 "feas": ["CCW", "CW"]},
                {"frame": 12, "gt": "CW", "ml": "CCW", "pred": ["CCW", "CW"],
                 "feas": ["CCW", "CW"]},
                {"frame": 13, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 14, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
                {"frame": 15, "gt": "CW", "ml": "CW", "pred": ["CW"], "feas": ["CCW", "CW"]},
            ],
        }
    ],
}


# (corrupt, message): each corrupts frame 1 of a prediction file in place
BAD_PREDICTIONS = [
    (lambda fr: fr["samples"][0]["trajs"]["a"][2].__setitem__(0, float("nan")),
     "non-finite number NaN"),
    (lambda fr: fr["samples"][0].__setitem__("p", float("inf")),
     "non-finite number Infinity"),
    (lambda fr: [xy.append(0.0) for xy in fr["samples"][0]["trajs"]["b"]],
     "agent b: trajectory of shape (12, 3), expected (H, 2)"),
    (lambda fr: fr["samples"][0]["trajs"].__setitem__(
        "a", [x for xy in fr["samples"][0]["trajs"]["a"] for x in xy]),
     "agent a: trajectory of shape (24,), expected (H, 2)"),
    (lambda fr: fr["samples"].insert(0, dict(fr["samples"][0], p=0.1)),
     "samples not ordered by probability"),
    (lambda fr: [s["trajs"].__setitem__("z", s["trajs"].pop("b"))
                 for s in fr["samples"]],
     "frame 1: agent(s) z not in scene crossing"),
    (lambda fr: fr["samples"].clear(), "frame 1: no samples"),
    (lambda fr: fr["samples"][0]["trajs"]["a"][2].__setitem__(0, 10 ** 400),
     "OverflowError"),
    # the writer puts the bare literal 1e999, which decodes to inf
    (lambda fr: fr["samples"][0]["trajs"]["a"][2].__setitem__(0, "1e999"),
     "frame 1, sample 0, agent a: non-finite position"),
    (lambda fr: fr.__setitem__("frame", 0), "frame 0: listed more than once"),
    (lambda fr: fr["samples"][0].__setitem__("p", -0.5),
     "frame 1: negative probability -0.5"),
    (lambda fr: fr["samples"].append(
        {"p": 0.0, "trajs": {"a": fr["samples"][0]["trajs"]["a"]}}),
     "frame 1: samples disagree on agent ids"),
    (lambda fr: fr["samples"].append(dict(fr["samples"][0], p=0.5)),
     "frame 1: probabilities sum to 1.5"),
    (lambda fr: fr.__setitem__("frame", 1.6), "frame 1.6: frame numbers must be integers"),
    (lambda fr: fr.__setitem__("frame", True), "frame True: frame numbers must be integers"),
    # JSON strings and bools are not numbers, wherever a number belongs
    (lambda fr: fr["samples"][0].__setitem__("p", "1.0"),
     "frame 1, sample 0: p: '1.0' is not a number"),
    (lambda fr: fr["samples"][0].__setitem__("p", True),
     "frame 1, sample 0: p: True is not a number"),
    (lambda fr: fr["samples"][0]["trajs"]["a"][2].__setitem__(0, "3.5"),
     "frame 1, sample 0, agent a: values must be numbers, got numpy dtype <U"),
    (lambda fr: fr["samples"][0]["trajs"].__setitem__(
        "b", [[True, False] for _ in fr["samples"][0]["trajs"]["b"]]),
     "frame 1, sample 0, agent b: values must be numbers, got numpy dtype bool"),
    # a float array holds a bool among numbers as 1.0 or 0.0
    (lambda fr: fr["samples"][0]["trajs"]["a"][2].__setitem__(1, True),
     "frame 1, sample 0, agent a: values must be numbers, got a bool among them"),
    # the writer puts "<a again>" as a second "a" key of the same object
    (lambda fr: fr["samples"][0]["trajs"].__setitem__("<a again>",
                                                      fr["samples"][0]["trajs"]["a"]),
     "key 'a' listed more than once in one object"),
    # trajs must be an object of agent ids
    (lambda fr: fr["samples"][0].__setitem__("trajs", [[0.0, 1.0]]), "AttributeError"),
    (lambda fr: fr["samples"][0].__setitem__("trajs", "a"), "AttributeError"),
    (lambda fr: fr["samples"][0].__setitem__("trajs", None), "AttributeError"),
]
BAD_PREDICTION_IDS = [
    "nan", "infinity", "three_columns", "flat", "unordered", "unknown_agent", "empty_samples",
    "huge_int", "1e999", "duplicate_frame", "negative_p", "samples_disagree", "p_sum",
    "fractional_frame", "bool_frame", "string_p", "bool_p", "string_coordinate",
    "bool_coordinates", "bool_among_coordinates", "duplicate_agent", "trajs_list",
    "trajs_string", "trajs_null"]
# In a frame of one sample with p = 1 followed by five with p = 0, a sample
# appended with p = 0.5 breaks the order before the sum.
STACKED_FRAME_MESSAGES = {"p_sum": "frame 1: samples not ordered by probability"}


@pytest.fixture
def scene_dir(tmp_path):
    d = tmp_path / "scenes"
    d.mkdir()
    save_scene(crossing_scene(n=30), d / "crossing.json")
    return d


class TestSceneRoundTrip:
    def test_save_load(self, tmp_path):
        scene = crossing_scene(n=12)
        p = tmp_path / "s.json"
        save_scene(scene, p)
        back = load_scene(p)
        assert back.scene_id == scene.scene_id
        assert back.dt == scene.dt
        for a, b in zip(scene.agents, back.agents):
            np.testing.assert_allclose(a.trajectory.xy, b.trajectory.xy)
            np.testing.assert_allclose(a.trajectory.t, b.trajectory.t)

    def test_malformed_raises_parse_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_scene(p)
        p.write_text(json.dumps({"scene_id": "x", "dt": 0.5}))
        with pytest.raises(ParseError):
            load_scene(p)


class TestPredictionRoundTrip:
    def test_save_load(self, tmp_path, cfg):
        scene = crossing_scene(n=30)
        result = evaluate_scene(scene, cfg, baseline="cv")
        p = tmp_path / "pred.json"
        save_predictions(scene.scene_id, cfg.t_p, result.predictions, p)
        back = load_predictions(p, scene)
        assert set(back) == set(result.predictions)
        f = next(iter(back))
        assert back[f].agent_ids == result.predictions[f].agent_ids
        np.testing.assert_array_equal(back[f].lengths, result.predictions[f].lengths)
        np.testing.assert_allclose(back[f].xy, result.predictions[f].xy)

    def test_substitute_static(self, tmp_path, cfg):
        scene = crossing_scene(n=30)
        pred = {
            3: {"frame": 3, "samples": [
                {"p": 1.0, "trajs": {"a": [[0.0, 0.0]] * 12}}]},
        }
        p = tmp_path / "pred.json"
        p.write_text(json.dumps(
            {"scene_id": scene.scene_id, "horizon": 6.0,
             "frames": list(pred.values())}))
        bare = load_predictions(p, scene)
        assert bare[3].agent_ids == ("a",)
        filled = load_predictions(p, scene, substitute_static=True)
        assert filled[3].agent_ids == ("a", "b")
        assert filled[3].lengths.tolist() == [[12, 12]]
        np.testing.assert_allclose(filled[3].xy[0, 1],
                                   [scene.agents[1].trajectory.xy[3]] * 12)

    @staticmethod
    def write(path, scene, frames):
        path.write_text(json.dumps({"scene_id": scene.scene_id, "horizon": 6.0,
                                    "frames": frames}))

    def test_frame_without_agents_skips_its_pair(self, tmp_path, cfg):
        scene = crossing_scene(n=30)
        p = tmp_path / "pred.json"
        self.write(p, scene, [{"frame": 3, "samples": [{"p": 1.0, "trajs": {}}]}])
        preds = load_predictions(p, scene)
        assert preds[3].agent_ids == ()
        assert preds[3].xy.shape == (1, 0, 0, 2)
        result = evaluate_scene(scene, cfg, predictions=preds)
        assert [ev.skipped for ev in result.pairs] == ["NoPredictionFrames"]

    def test_shuffled_agents_load_in_first_sample_order(self, tmp_path):
        scene = crossing_scene(n=30)
        fa, fb = [[1.0, 2.0]] * 3, [[3.0, 4.0]] * 3
        p = tmp_path / "pred.json"
        self.write(p, scene, [{"frame": 3, "samples": [
            {"p": 0.5, "trajs": {"b": fb, "a": fa}},
            {"p": 0.5, "trajs": {"a": fa, "b": fb}}]}])
        pset = load_predictions(p, scene)[3]
        assert pset.agent_ids == ("b", "a")
        np.testing.assert_array_equal(pset.xy[:, 0], [fb, fb])
        np.testing.assert_array_equal(pset.xy[:, 1], [fa, fa])

    def test_ragged_round_trip(self, tmp_path):
        scene = crossing_scene(n=30)
        rng = np.random.default_rng(3)
        lengths = [[4, 9], [12, 1], [7, 7]]
        pset = JointPredictionSet.from_samples(5, [
            (p, {"a": rng.normal(0.0, 5.0, (ha, 2)), "b": rng.normal(0.0, 5.0, (hb, 2))})
            for p, (ha, hb) in zip((0.5, 0.3, 0.2), lengths)])
        assert pset.xy.shape == (3, 2, 12, 2)
        p = tmp_path / "pred.json"
        save_predictions(scene.scene_id, 6.0, {5: pset}, p)
        written = json.loads(p.read_text())["frames"][0]["samples"]
        assert [[len(s["trajs"][aid]) for aid in ("a", "b")] for s in written] == lengths
        back = load_predictions(p, scene)[5]
        assert back.agent_ids == pset.agent_ids
        assert back.p.tolist() == pset.p.tolist()
        np.testing.assert_array_equal(back.lengths, lengths)
        # equal futures, and 0.0 padding past each length on both sides
        np.testing.assert_array_equal(back.xy, pset.xy)


@st.composite
def prediction_frames(draw):
    """One frame's decoded samples over agents of ``four_agent_scene``: K
    samples, each naming the same agents, later ones maybe in another order,
    with futures of one length or of ragged lengths, and points of floats,
    ints or both."""
    k = draw(st.integers(1, 6))
    ids = draw(st.permutations(["a", "b", "c", "d"]))[:draw(st.integers(1, 4))]
    h = draw(st.integers(1, 12))
    ragged = draw(st.booleans())
    value = {"floats": st.floats(-1e6, 1e6), "ints": st.integers(-10 ** 6, 10 ** 6),
             "mixed": st.floats(-1e6, 1e6) | st.integers(-10 ** 6, 10 ** 6)}[
        draw(st.sampled_from(["floats", "ints", "mixed"]))]
    probs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)), reverse=True)
    samples = []
    for i in range(k):
        order = ids if i == 0 else draw(st.permutations(ids))
        trajs = {}
        for aid in order:
            n = draw(st.integers(1, 12)) if ragged else h
            trajs[aid] = draw(st.lists(st.lists(value, min_size=2, max_size=2),
                                       min_size=n, max_size=n))
        samples.append({"p": probs[i] / k, "trajs": trajs})
    return samples


class TestStackedFrames:
    """A frame whose futures share one length loads as one stack; the result
    equals ``from_samples`` over one array per future, byte for byte."""

    @given(prediction_frames())
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_per_future_arrays(self, tmp_path_factory, samples):
        scene = four_agent_scene()
        path = tmp_path_factory.mktemp("stack") / "pred.json"
        path.write_text(json.dumps({"scene_id": scene.scene_id, "horizon": 6.0,
                                    "frames": [{"frame": 3, "samples": samples}]}))
        lengths = {len(f) for s in samples for f in s["trajs"].values()}
        assert (sceneio._stacked_futures(samples) is None) == (len(lengths) > 1)
        got = load_predictions(path, scene)[3]
        want = JointPredictionSet.from_samples(3, [
            (s["p"], {aid: sceneio.numbers(pts, aid, path) for aid, pts in s["trajs"].items()})
            for s in samples])
        assert got.agent_ids == want.agent_ids
        assert got.p.tobytes() == want.p.tobytes()
        assert got.lengths.dtype == want.lengths.dtype
        assert got.lengths.tobytes() == want.lengths.tobytes()
        assert got.xy.shape == want.xy.shape
        assert got.xy.tobytes() == want.xy.tobytes()
        assert not (got.xy.flags.writeable or got.p.flags.writeable
                    or got.lengths.flags.writeable)

    def test_examples_stack_and_fall_back(self):
        uniform = [{"p": 0.5, "trajs": {"a": [[0, 1.5], [2, 3]], "b": [[4, 5], [6, 7.5]]}},
                   {"p": 0.5, "trajs": {"b": [[1, 1], [2, 2]], "a": [[3, 3], [4, 4]]}}]
        assert sceneio._stacked_futures(uniform).shape == (2, 2, 2, 2)
        ragged = [{"p": 1.0, "trajs": {"a": [[0, 1]], "b": [[4, 5], [6, 7]]}}]
        assert sceneio._stacked_futures(ragged) is None
        # one shape, but not (K, A, H, 2)
        for futures in ([[0, 1, 2], [3, 4, 5]], [0, 1, 2, 3], [[[0, 1]], [[2, 3]]]):
            assert sceneio._stacked_futures([{"p": 1.0, "trajs": {"a": futures}}]) is None
        for bad in ("3.5", None, 10 ** 400, [1, 2]):
            frame = json.loads(json.dumps(uniform))
            frame[1]["trajs"]["a"][1][0] = bad
            assert sceneio._stacked_futures(frame) is None, bad


class TestCollectorPause:
    """``read_json`` pauses the cyclic collector while a file is decoded and
    converted, and puts it back as the caller had it."""

    @pytest.fixture
    def pred_file(self, tmp_path):
        """A file of 30 frames of 6 samples: about 5,000 JSON lists, enough to
        set off several collections if the collector ran."""
        scene = crossing_scene(n=30)
        futures = {aid: [[float(i), 2.0 * i] for i in range(12)] for aid in ("a", "b")}
        path = tmp_path / "pred.json"
        TestPredictionRoundTrip.write(path, scene, [
            {"frame": f, "samples": [{"p": 0.125, "trajs": futures}] * 6} for f in range(30)])
        return scene, path

    def test_no_collection_during_a_load(self, pred_file):
        scene, path = pred_file
        collections = []
        callback = lambda phase, info: collections.append(phase)  # noqa: E731
        gc.collect()  # so that the few allocations outside the pause set off none
        gc.callbacks.append(callback)
        try:
            load_predictions(path, scene)
            during = len(collections)
        finally:
            gc.callbacks.remove(callback)
        assert during == 0
        assert gc.isenabled()

    def test_enabled_after_a_load_and_a_parse_error(self, pred_file, tmp_path):
        scene, path = pred_file
        load_predictions(path, scene)
        assert gc.isenabled()
        bad = tmp_path / "bad.json"
        bad.write_text(path.read_text().replace('"p": 0.125', '"p": "0.125"', 1))
        with pytest.raises(ParseError, match="is not a number"):
            load_predictions(bad, scene)
        assert gc.isenabled()
        with pytest.raises(ParseError):
            load_scene(tmp_path)
        assert gc.isenabled()

    def test_stays_off_when_the_caller_turned_it_off(self, pred_file, tmp_path):
        scene, path = pred_file
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        gc.disable()
        try:
            load_predictions(path, scene)
            assert not gc.isenabled()
            with pytest.raises(ParseError):
                load_predictions(bad, scene)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestEvaluateScene:
    def test_cv_baseline_unimodal_collapse(self, cfg):
        scene = crossing_scene(n=30)
        result = evaluate_scene(scene, cfg, baseline="cv")
        assert len(result.pairs) == 1
        assert result.pairs[0].record.metrics.collapse_rate == pytest.approx(1.0)

    def test_oracle_baseline_covers(self, cfg):
        scene = crossing_scene(v_a=8.0, v_b=5.0, gap_a=40.0, gap_b=37.0, n=30)
        result = evaluate_scene(scene, cfg, baseline="oracle", oracle_k=9)
        assert len(result.pairs) == 1
        m = result.pairs[0].record.metrics
        assert m.dt_covered is None  # covered from the start of the interval

    def test_unknown_baseline_is_config_error(self, cfg):
        with pytest.raises(ConfigError, match="unknown baseline model 'lstm'"):
            evaluate_scene(crossing_scene(n=30), cfg, baseline="lstm")

    @pytest.mark.parametrize("baseline", ["cv", "oracle"])
    def test_predictions_and_baseline_is_config_error(self, cfg, monkeypatch, baseline):
        """Given predictions are never dropped for a baseline's: both at once
        are refused before the scene is filtered."""
        scene = crossing_scene(n=30)
        preds = evaluate_scene(scene, cfg, baseline="cv").predictions
        filtered = []
        monkeypatch.setattr(pipeline, "filter_scene",
                            lambda *args: filtered.append(args))
        with pytest.raises(ConfigError, match=f"predictions and the '{baseline}' baseline"):
            evaluate_scene(scene, cfg, predictions=preds, baseline=baseline)
        assert filtered == []

    @pytest.mark.parametrize("baseline", ["cv", "oracle"])
    def test_grading_renders_no_rejection(self, cfg, tmp_path, monkeypatch, baseline):
        """``evaluate_scene`` and ``run_pipeline``'s ``eval`` path count the
        rejected pairs from the fate table and make no ``PairRejection``;
        reading ``rejections`` renders them, once."""
        made = []
        rejection = filtering.PairRejection
        monkeypatch.setattr(filtering, "PairRejection",
                            lambda *args, **kw: made.append(args) or rejection(*args, **kw))
        scene = four_agent_scene()
        (tmp_path / "scenes").mkdir()
        save_scene(scene, tmp_path / "scenes" / "four.json")
        result = evaluate_scene(scene, cfg, baseline=baseline)
        run_pipeline(tmp_path / "scenes", baseline, tmp_path / "out", cfg)
        assert made == []
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["scenes"]["four"]["n_rejected_pairs"] == 4
        assert result.rejections is result.rejections
        assert len(made) == len(result.rejections) == 4


GOLDEN_SCENES = [scene for scenes in golden_scenes().values() for scene in scenes]


@functools.cache
def golden_predictions(index: int, model: str, k: int) -> dict[int, JointPredictionSet]:
    """A baseline's prediction sets for the golden scene ``GOLDEN_SCENES[index]``."""
    return evaluate_scene(GOLDEN_SCENES[index], EvalConfig(), baseline=model,
                          oracle_k=k).predictions


def pair_view(ev):
    """A PairEvaluation's values, its timeline's included, as comparable data."""
    tl = ev.timeline
    return (ev.pair, ev.skipped, ev.record, list(ev.frame_records),
            None if tl is None else (tl.t.tolist(), tl.h_feas, tl.h_gt, tl.collapse_idx,
                                     tl.final_idx, tl.start_idx))


class TestStages:
    """``evaluate_scene`` is ``analyse_scene`` then ``grade_scene``; one
    analysis grades any number of prediction sets and is never changed."""

    @given(index=st.integers(0, len(GOLDEN_SCENES) - 1),
           model=st.sampled_from(BASELINE_MODELS), k=st.sampled_from([1, 5, 9]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_grading_an_analysis_equals_evaluate_scene_property(self, index, model, k, data):
        """On a golden scene, a ``cv`` or ``oracle`` set with any of its frames
        dropped (so that some pairs have no gradable frame) grades pair for
        pair as ``evaluate_scene`` grades it."""
        cfg = EvalConfig()
        scene = GOLDEN_SCENES[index]
        full = golden_predictions(index, model, k if model == "oracle" else DEFAULT_ORACLE_K)
        dropped = data.draw(st.sets(st.sampled_from(sorted(full)))) if full else set()
        preds = {fr: pset for fr, pset in full.items() if fr not in dropped}
        staged = grade_scene(analyse_scene(scene, cfg), preds, cfg)
        whole = evaluate_scene(scene, cfg, predictions=preds)
        assert [pair_view(ev) for ev in staged.pairs] == [pair_view(ev) for ev in whole.pairs]
        assert staged.rejections == whole.rejections
        assert staged.predictions is preds
        assert whole.predictions == preds

    def test_grading_leaves_the_analysis_and_earlier_grades_unchanged(self, cfg):
        index = next(i for i, s in enumerate(GOLDEN_SCENES) if s.scene_id == "crossing")
        analysis = analyse_scene(GOLDEN_SCENES[index], cfg)
        assert analysis.predictions == {}
        assert all(ev.record is None and ev.frame_records == [] for ev in analysis.pairs)
        before = [pair_view(ev) for ev in analysis.pairs]
        cv = grade_scene(analysis, golden_predictions(index, "cv", DEFAULT_ORACLE_K), cfg)
        first = [pair_view(ev) for ev in cv.pairs]
        oracle = grade_scene(analysis, golden_predictions(index, "oracle", 9), cfg)
        assert [pair_view(ev) for ev in analysis.pairs] == before
        assert [pair_view(ev) for ev in cv.pairs] == first
        assert analysis.predictions == {}
        # the two sets grade differently: at k=9 the oracle covers the crossing
        [cv_pair], [oracle_pair] = cv.pairs, oracle.pairs
        assert cv_pair.record.metrics.collapse_rate == 1.0
        assert oracle_pair.record.metrics.collapse_rate < 1.0

    def test_rollout_and_report_grade_nothing(self, scene_dir, tmp_path, monkeypatch):
        """``rollout`` and ``report`` render from the analysis alone; ``eval``
        shows that the spies see a grading pass."""
        graded = []
        for name in ("grade_scene", "_prediction_classes"):
            original = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *args, _name=name, _f=original, **kw:
                                graded.append(_name) or _f(*args, **kw))
        runner = CliRunner()
        for args in (["rollout", "--out", str(tmp_path / "rollout.csv")],
                     ["report", "--out-dir", str(tmp_path / "report")]):
            res = runner.invoke(main, args + ["--scene-dir", str(scene_dir)])
            assert res.exit_code == 0, res.output
        assert graded == []
        res = runner.invoke(main, ["eval", "--scene-dir", str(scene_dir), "--pred", "cv",
                                   "--out-dir", str(tmp_path / "eval")])
        assert res.exit_code == 0, res.output
        assert set(graded) == {"grade_scene", "_prediction_classes"}


class TestRunPipeline:
    def test_outputs_and_determinism(self, scene_dir, tmp_path, cfg):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        rep1 = run_pipeline(scene_dir, "cv", out1, cfg)
        rep2 = run_pipeline(scene_dir, "cv", out2, cfg)
        for name in ("pairs.csv", "frames.csv", "curves.csv",
                     "report.json", "filter.csv", "heatmap.csv", "ihs_hist.csv"):
            f1, f2 = out1 / name, out2 / name
            assert f1.exists(), name
            assert f1.read_bytes() == f2.read_bytes(), name
        assert rep1.to_dict() == rep2.to_dict()
        # manifest matches except for the wall-clock timing field
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("timing_s"), m2.pop("timing_s")
        assert m1 == m2

    def test_csv_line_endings(self, scene_dir, tmp_path, cfg):
        out = tmp_path / "o"
        run_pipeline(scene_dir, "cv", out, cfg)
        raw = (out / "pairs.csv").read_bytes()
        assert b"\r" not in raw

    def test_prediction_directory_source(self, scene_dir, tmp_path, cfg):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        scene = load_scene(scene_dir / "crossing.json")
        result = evaluate_scene(scene, cfg, baseline="cv")
        save_predictions(scene.scene_id, cfg.t_p, result.predictions,
                         pred_dir / f"{scene.scene_id}.json")
        rep_dir = run_pipeline(scene_dir, pred_dir, tmp_path / "od", cfg)
        rep_cv = run_pipeline(scene_dir, "cv", tmp_path / "ob", cfg)
        assert rep_dir.to_dict() == rep_cv.to_dict()


class TestFixture:
    def test_reference_mode_table(self, tmp_path):
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(TABLE_FIXTURE))
        report = run_fixture(p, tmp_path / "out")
        assert report.mode_collapse_rate == pytest.approx(100.0 * 9 / 11)
        pair = report  # aggregate over the single pair
        assert pair.dt_correct_mean == pytest.approx(1.5)
        assert pair.pct_covered_at_tpred == pytest.approx(100.0)
        assert pair.consistency_rate == pytest.approx(0.0)


class TestCli:
    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_filter_command(self, scene_dir, tmp_path):
        out = tmp_path / "filter.csv"
        res = self.run("filter", "--scene-dir", str(scene_dir), "--out", str(out))
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["agent_a"] == "a"
        assert float(rows[0]["dt_ps"]) == pytest.approx(2.0)

    def test_rollout_command(self, scene_dir, tmp_path):
        out = tmp_path / "rollout.csv"
        res = self.run("rollout", "--scene-dir", str(scene_dir), "--out", str(out))
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader(out.read_text().splitlines()))
        summary = [r for r in rows if r["row"] == "summary"]
        assert len(summary) == 1
        assert float(summary[0]["t_h_collapse"]) == pytest.approx(4.5)

    def test_baseline_then_eval(self, scene_dir, tmp_path):
        pred_dir = tmp_path / "preds"
        res = self.run("baseline", "--scene-dir", str(scene_dir),
                       "--model", "oracle", "--k", "5", "--out-dir", str(pred_dir))
        assert res.exit_code == 0, res.output
        assert (pred_dir / "crossing.json").exists()
        res = self.run("eval", "--scene-dir", str(scene_dir),
                       "--pred", str(pred_dir), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_pairs"] == 1

    def test_eval_cv_baseline(self, scene_dir, tmp_path):
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", "cv",
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        report = json.loads(res.stdout)
        assert report["mode_collapse_rate"] == pytest.approx(100.0)

    def test_eval_fixture(self, tmp_path):
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(TABLE_FIXTURE))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        report = json.loads(res.stdout)
        assert report["mode_collapse_rate"] == pytest.approx(100.0 * 9 / 11)

    # every option of eval but --fixture and --out-dir, by test id
    FIXTURE_REFUSED = {
        "scene-dir": ["--scene-dir", "."],
        "pred": ["--pred", "cv"],
        "k": ["--k", "0"],
        "k-at-default": ["--k", str(DEFAULT_ORACLE_K)],
        "substitute-static": ["--substitute-static"],
        "d-collision": ["--d-collision", "3.0"],
        "dt-ps-max": ["--dt-ps-max", "2.0"],
        "a-lon-max": ["--a-lon-max", "4.0"],
        "a-lat-max": ["--a-lat-max", "4.0"],
        "horizon": ["--horizon", "3"],
        "theta-hat": ["--theta-hat", "0.5"],
        "interp-factor": ["--interp-factor", "2"],
        "t-min": ["--t-min", "0.0"],
    }

    def test_fixture_cases_cover_every_option(self):
        given = {extra[0] for extra in self.FIXTURE_REFUSED.values()}
        assert given == {param.opts[0] for param in main.commands["eval"].params} - {
            "--fixture", "--out-dir"}

    @pytest.mark.parametrize("extra", list(FIXTURE_REFUSED.values()),
                             ids=list(FIXTURE_REFUSED))
    def test_exit_code_fixture_with_scene_option(self, tmp_path, extra):
        # a fixture run reads none of these, so it refuses them, even at
        # their default values
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(TABLE_FIXTURE))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"), *extra)
        assert res.exit_code == 2, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["message"] == f"{extra[0]} cannot be used with --fixture"
        assert not (tmp_path / "out").exists()

    def test_report_command(self, scene_dir, tmp_path):
        res = self.run("report", "--scene-dir", str(scene_dir),
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        assert (tmp_path / "out" / "heatmap.csv").exists()
        assert (tmp_path / "out" / "ihs_hist.csv").exists()

    def test_skipped_pairs_do_not_abort_rollout_or_report(self, tmp_path):
        """A pair whose timeline never has two feasible classes is skipped as
        DegenerateInterval, as eval records it, not an abort."""
        d = tmp_path / "scenes"
        d.mkdir()
        save_scene(crossing_scene(gap_a=10.0, gap_b=40.0), d / "degenerate.json")
        out = tmp_path / "rollout.csv"
        res = self.run("rollout", "--scene-dir", str(d), "--out", str(out))
        assert res.exit_code == 0, res.output
        summary = [r for r in csv.DictReader(out.read_text().splitlines())
                   if r["row"] == "summary"]
        assert [(r["agent_a"], r["agent_b"], r["t_h_collapse"]) for r in summary] == \
               [("a", "b", "DegenerateInterval")]
        res = self.run("report", "--scene-dir", str(d), "--out-dir", str(tmp_path / "rep"))
        assert res.exit_code == 0, res.output
        heat = list(csv.DictReader((tmp_path / "rep" / "heatmap.csv").read_text().splitlines()))
        assert sum(int(r["count"]) for r in heat) == 1

    def test_one_sample_window_is_skipped_not_an_abort(self, tmp_path):
        """With ``--t-min`` before the scene, the filter accepts ``stage_scene(0)``'s
        (g1a, x1), co-observed at one sample: it is skipped as
        DegenerateInterval, and the corpus's other scene is graded."""
        d = tmp_path / "scenes"
        d.mkdir()
        save_scene(stage_scene(0), d / "stage-0.json")
        save_scene(crossing_scene(n=30), d / "crossing.json")  # the same dt, 0.5 s
        res = self.run("eval", "--scene-dir", str(d), "--pred", "cv", "--t-min", "-3.5",
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["scenes"]["stage-0"]["skipped"] == {"DegenerateInterval": 1,
                                                            "NoCollapse": 2}
        assert manifest["scenes"]["crossing"]["skipped"] == {}
        out = tmp_path / "rollout.csv"
        res = self.run("rollout", "--scene-dir", str(d), "--t-min", "-3.5", "--out", str(out))
        assert res.exit_code == 0, res.output
        summary = [(r["scene_id"], r["agent_a"], r["agent_b"], r["t_h_collapse"])
                   for r in csv.DictReader(out.read_text().splitlines())
                   if r["row"] == "summary" and r["scene_id"] == "stage-0"]
        assert ("stage-0", "g1a", "x1", "DegenerateInterval") in summary

    def test_eval_filter_csv_matches_filter_command(self, tmp_path):
        """eval writes filter.csv in filter order, skipped pairs included."""
        d = tmp_path / "scenes"
        d.mkdir()
        save_scene(four_agent_scene(), d / "four.json")
        res = self.run("filter", "--scene-dir", str(d), "--out", str(tmp_path / "f.csv"))
        assert res.exit_code == 0, res.output
        res = self.run("eval", "--scene-dir", str(d), "--pred", "cv",
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        filtered = (tmp_path / "f.csv").read_bytes()
        assert filtered.count(b"\n") == 3  # header, (a, b), (c, d)
        assert (tmp_path / "out" / "filter.csv").read_bytes() == filtered

    def test_exit_code_mixed_time_steps(self, scene_dir, tmp_path):
        save_scene(crossing_scene(dt=0.25, n=60, scene_id="fine"), scene_dir / "fine.json")
        for args in (["eval", "--pred", "cv"], ["report"]):
            res = self.run(*args, "--scene-dir", str(scene_dir),
                           "--out-dir", str(tmp_path / "out"))
            assert res.exit_code == 3, res.output
            err = json.loads(res.stderr.strip().splitlines()[-1])
            assert err["error"] == "ParseError"
            assert "mixed time steps 0.25 s, 0.5 s" in err["message"]

    def test_exit_code_config_error(self, scene_dir, tmp_path):
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", "cv",
                       "--out-dir", str(tmp_path / "out"), "--horizon", "0.7")
        assert res.exit_code == 2
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["filter", "--out", "filter.csv"],
        ["rollout", "--out", "rollout.csv"],
        ["baseline", "--model", "cv", "--out-dir", "preds"],
        ["eval", "--pred", "cv", "--out-dir", "out"],
        ["report", "--out-dir", "out"],
    ], ids=["filter", "rollout", "baseline", "eval", "report"])
    def test_exit_code_bad_d_collision(self, scene_dir, tmp_path, command, value):
        # every subcommand reaches the same error exit
        *args, out = command
        res = self.run(*args, str(tmp_path / out), "--scene-dir", str(scene_dir),
                       "--d-collision", value)
        assert res.exit_code == 2, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "d_collision" in err["message"]

    def test_help_shows_config_defaults(self):
        res = self.run("filter", "--help")
        assert res.exit_code == 0, res.output
        assert "[default: 1.5]" in res.output
        assert "[default: 4]" in res.output

    @pytest.mark.parametrize("dt", ["0", "NaN", "1e999", "-0.5"])
    def test_exit_code_fixture_bad_dt(self, tmp_path, dt):
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(TABLE_FIXTURE).replace('"dt": 0.5', f'"dt": {dt}', 1))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "dt must be finite and > 0" in err["message"]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("dt", ["true", '"0.5"'], ids=["bool", "string"])
    def test_exit_code_fixture_dt_not_a_number(self, tmp_path, dt):
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(TABLE_FIXTURE).replace('"dt": 0.5', f'"dt": {dt}', 1))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert f"dt: {json.loads(dt)!r} is not a number" in err["message"]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", [
        ["eval", "--pred", "oracle"],
        ["baseline", "--model", "oracle"],
    ], ids=["eval", "baseline"])
    def test_exit_code_oracle_k_zero(self, scene_dir, tmp_path, command):
        out = tmp_path / "out"
        res = self.run(*command, "--scene-dir", str(scene_dir), "--out-dir", str(out),
                       "--k", "0")
        assert res.exit_code == 2, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "oracle k must be >= 1, got 0" in err["message"]
        assert not any(out.glob("*.json"))  # raised before any scene is evaluated

    @pytest.mark.parametrize("k", ["5", str(DEFAULT_ORACLE_K)], ids=["k", "k-at-default"])
    @pytest.mark.parametrize("command,reason", [
        (["eval", "--pred", "cv"], "--pred cv"),
        (["eval", "--pred", "{preds}"], "--pred {preds}"),
        (["baseline", "--model", "cv"], "--model cv"),
    ], ids=["eval-cv", "eval-dir", "baseline-cv"])
    def test_exit_code_k_without_oracle(self, scene_dir, tmp_path, command, reason, k):
        # only the oracle reads --k; without it the option is refused, even
        # at its default value, so the manifest never records a k no run read
        preds = tmp_path / "preds"
        preds.mkdir()
        out = tmp_path / "out"
        res = self.run(*[arg.format(preds=preds) for arg in command], "--scene-dir",
                       str(scene_dir), "--out-dir", str(out), "--k", k)
        assert res.exit_code == 2, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["message"] == f"--k cannot be used with {reason.format(preds=preds)}"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["cv", "oracle"])
    def test_exit_code_substitute_static_with_baseline(self, scene_dir, tmp_path, model):
        # a baseline predicts every agent, so no prediction is substituted
        out = tmp_path / "out"
        res = self.run("eval", "--pred", model, "--scene-dir", str(scene_dir),
                       "--out-dir", str(out), "--substitute-static")
        assert res.exit_code == 2, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["message"] == f"--substitute-static cannot be used with --pred {model}"
        assert not out.exists()

    def test_k_and_substitute_static_where_read(self, scene_dir, tmp_path):
        preds = tmp_path / "preds"
        res = self.run("baseline", "--scene-dir", str(scene_dir), "--model", "oracle",
                       "--k", "2", "--out-dir", str(preds))
        assert res.exit_code == 0, res.output
        for pred, extra in (("oracle", ["--k", "2"]), (str(preds), ["--substitute-static"])):
            out = tmp_path / f"out-{len(extra)}"
            res = self.run("eval", "--pred", pred, "--scene-dir", str(scene_dir),
                           "--out-dir", str(out), *extra)
            assert res.exit_code == 0, res.output
            inputs = json.loads((out / "manifest.json").read_text())["inputs"]
            assert (inputs["oracle_k"], inputs["substitute_static"]) == (
                (2, False) if pred == "oracle" else (DEFAULT_ORACLE_K, True))

    @pytest.mark.parametrize("agents", [("a", "b"), ("b", "a")], ids=["same-order", "swapped"])
    def test_exit_code_fixture_repeated_pair(self, tmp_path, agents):
        # one scene's unordered pair listed twice would be graded twice
        fixture = json.loads(json.dumps(TABLE_FIXTURE))
        again = dict(fixture["pairs"][0], agent_a=agents[0], agent_b=agents[1])
        fixture["pairs"].append(again)
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert (f"scene ex, pair ({agents[0]}, {agents[1]}): pair listed more than once"
                in err["message"])
        assert not (tmp_path / "out").exists()

    def test_fixture_same_pair_in_two_scenes(self, tmp_path):
        fixture = json.loads(json.dumps(TABLE_FIXTURE))
        fixture["pairs"].append(dict(fixture["pairs"][0], scene_id="other"))
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["n_pairs"] == 2

    def test_exit_code_fixture_no_frames(self, tmp_path):
        fixture = json.loads(json.dumps(TABLE_FIXTURE))
        fixture["pairs"][0]["frames"] = []
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert err["message"].endswith("scene ex, pair (a, b): no frames listed")

    def test_exit_code_fixture_empty_feasible_set(self, tmp_path):
        fixture = json.loads(json.dumps(TABLE_FIXTURE))
        fixture["pairs"][0]["frames"][2]["feas"] = []
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "scene ex, pair (a, b), frame 7: empty feasible set" in err["message"]

    def test_exit_code_fixture_repeated_frame(self, tmp_path):
        fixture = json.loads(json.dumps(TABLE_FIXTURE))
        fixture["pairs"][0]["frames"].append(dict(fixture["pairs"][0]["frames"][2]))
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "scene ex, pair (a, b), frame 7: listed more than once" in err["message"]
        assert not (tmp_path / "out" / "frames.csv").exists()

    def test_exit_code_fixture_repeated_key(self, tmp_path):
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(TABLE_FIXTURE).replace('"gt": "CW"', '"gt": "CW", "gt": "CCW"', 1))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "key 'gt' listed more than once in one object" in err["message"]

    def test_exit_code_fixture_directory(self, tmp_path):
        res = self.run("eval", "--fixture", str(tmp_path), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{tmp_path}: ")

    @pytest.mark.parametrize("frame", [7.5, True], ids=["fractional_frame", "bool_frame"])
    def test_exit_code_fixture_non_integer_frame(self, tmp_path, frame):
        fixture = json.loads(json.dumps(TABLE_FIXTURE))
        fixture["pairs"][0]["frames"][2]["frame"] = frame
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert f"frame {frame!r}: frame numbers must be integers" in err["message"]

    @pytest.mark.parametrize("field", ["dt", "frame"])
    def test_exit_code_fixture_huge_integer(self, tmp_path, field):
        """An integer a float cannot hold, as the time step or a frame number."""
        fixture = json.loads(json.dumps(TABLE_FIXTURE))
        if field == "dt":
            fixture["dt"] = 10 ** 400
        else:
            fixture["pairs"][0]["frames"][2]["frame"] = 10 ** 400
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        res = self.run("eval", "--fixture", str(p), "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "malformed mode fixture: OverflowError" in err["message"]

    def test_exit_code_baseline_name_shadows_directory(self, scene_dir, tmp_path,
                                                       monkeypatch):
        """With a cv/ prediction directory in the working directory, --pred cv
        is ambiguous and exits 2; --pred ./cv reads the directory."""
        monkeypatch.chdir(tmp_path)
        scene = load_scene(scene_dir / "crossing.json")
        (tmp_path / "cv").mkdir()
        save_predictions(scene.scene_id, 6.0,
                         evaluate_scene(scene, EvalConfig(), baseline="oracle").predictions,
                         tmp_path / "cv" / "crossing.json")
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", "cv",
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 2, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "write ./cv" in err["message"]
        assert not (tmp_path / "out" / "report.json").exists()
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", "./cv",
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 0, res.output
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())[
            "inputs"]["pred_source"] == "./cv"

    def test_path_argument_names_a_directory(self, scene_dir, tmp_path, monkeypatch):
        """Only a string names a baseline: run_pipeline reads Path("./cv") as
        the cv/ directory, while the CLI's --pred cv stays ambiguous."""
        monkeypatch.chdir(tmp_path)
        cfg = EvalConfig()
        cv_baseline = run_pipeline(scene_dir, "cv", tmp_path / "cv_baseline", cfg)
        scene = load_scene(scene_dir / "crossing.json")
        (tmp_path / "cv").mkdir()
        save_predictions(scene.scene_id, 6.0,
                         evaluate_scene(scene, cfg, baseline="oracle").predictions,
                         tmp_path / "cv" / "crossing.json")
        from_path = run_pipeline(scene_dir, Path("./cv"), tmp_path / "path", cfg)
        assert from_path.to_dict() == run_pipeline(scene_dir, "./cv", tmp_path / "dir",
                                                   cfg).to_dict()
        # the files hold oracle predictions, not the cv baseline's
        assert from_path.to_dict() != cv_baseline.to_dict()
        with pytest.raises(ConfigError, match="write ./cv"):
            run_pipeline(scene_dir, "cv", tmp_path / "out", cfg)
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", "cv",
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 2, res.output

    def test_exit_code_parse_error(self, tmp_path):
        d = tmp_path / "scenes"
        d.mkdir()
        (d / "bad.json").write_text("{oops")
        res = self.run("filter", "--scene-dir", str(d),
                       "--out", str(tmp_path / "f.csv"))
        assert res.exit_code == 3

    def test_exit_code_scene_file_not_utf8(self, tmp_path):
        d = tmp_path / "scenes"
        d.mkdir()
        (d / "bad.json").write_bytes(b'{"scene_id": "\xff"}')
        res = self.run("filter", "--scene-dir", str(d), "--out", str(tmp_path / "f.csv"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "can't decode byte 0xff" in err["message"]

    @pytest.mark.parametrize("corrupt,message", BAD_PREDICTIONS, ids=BAD_PREDICTION_IDS)
    def test_exit_code_bad_prediction_file(self, scene_dir, tmp_path, corrupt, message):
        self.check_bad_prediction_file(scene_dir, tmp_path, corrupt, message, samples=1)

    @pytest.mark.parametrize("corrupt,message", BAD_PREDICTIONS, ids=BAD_PREDICTION_IDS)
    def test_exit_code_bad_prediction_file_in_stacked_frame(self, scene_dir, tmp_path, request,
                                                            corrupt, message):
        """The same bad values inside an otherwise uniform 6-sample frame, one
        that loads as one stack when it holds no bad value."""
        message = STACKED_FRAME_MESSAGES.get(request.node.callspec.id, message)
        self.check_bad_prediction_file(scene_dir, tmp_path, corrupt, message, samples=6)

    def check_bad_prediction_file(self, scene_dir, tmp_path, corrupt, message, samples):
        scene = load_scene(scene_dir / "crossing.json")
        preds = evaluate_scene(scene, EvalConfig(), baseline="cv").predictions
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        path = pred_dir / "crossing.json"
        save_predictions(scene.scene_id, 6.0, preds, path)
        data = json.loads(path.read_text())
        frame = data["frames"][1]
        first = frame["samples"][0]
        frame["samples"] += [dict(json.loads(json.dumps(first)), p=0.0)
                             for _ in range(samples - 1)]
        corrupt(frame)
        path.write_text(json.dumps(data).replace('"1e999"', "1e999")
                        .replace('"<a again>"', '"a"'))
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", str(pred_dir),
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert message in err["message"]

    def test_exit_code_prediction_file_of_another_scene(self, scene_dir, tmp_path):
        scene = load_scene(scene_dir / "crossing.json")
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        save_predictions("elsewhere", 6.0, evaluate_scene(scene, EvalConfig(),
                                                          baseline="cv").predictions,
                         pred_dir / "crossing.json")
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", str(pred_dir),
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "predictions for scene elsewhere, loaded for scene crossing" in err["message"]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("corrupt,message", [
        (lambda d: d["agents"][1].__setitem__("id", "a"), "DuplicateAgentId"),
        (lambda d: d["agents"][0]["states"][3].__setitem__("x", float("nan")),
         "NonFiniteCoordinate"),
        (lambda d: d["agents"][0]["states"][6].__setitem__("t", float("nan")),
         "NonFiniteCoordinate: agent a: non-finite value at sample 6"),
        (lambda d: d["agents"][0]["states"][3].__setitem__("y", 10 ** 400), "OverflowError"),
        (lambda d: d.__setitem__("dt", "0.5"), "dt: '0.5' is not a number"),
        (lambda d: d["agents"][1].__setitem__("width", True),
         "agent b: width: True is not a number"),
        (lambda d: d["agents"][1].__setitem__("length", "4.5"),
         "agent b: length: '4.5' is not a number"),
        (lambda d: d["agents"][0]["states"][3].__setitem__("x", "1.0"),
         "agent a: x, y: values must be numbers, got numpy dtype <U"),
        (lambda d: [s.__setitem__("t", i == 1) for i, s in enumerate(d["agents"][0]["states"])],
         "agent a: t: values must be numbers, got numpy dtype bool"),
        (lambda d: d["agents"][1]["states"][0].__setitem__("t", False),
         "agent b: t: values must be numbers, got a bool among them"),
    ], ids=["duplicate_id", "nan_coordinate", "nan_timestamp", "huge_int", "string_dt",
            "bool_width", "string_length", "string_coordinate", "bool_timestamps",
            "bool_among_timestamps"])
    def test_exit_code_bad_scene_file(self, scene_dir, tmp_path, corrupt, message):
        path = scene_dir / "crossing.json"
        data = json.loads(path.read_text())
        corrupt(data)
        path.write_text(json.dumps(data))
        res = self.run("filter", "--scene-dir", str(scene_dir),
                       "--out", str(tmp_path / "f.csv"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "crossing.json" in err["message"]
        assert message in err["message"]

    @pytest.mark.parametrize("sizes", [
        {"width": float("nan")},
        {"length": "1e999"},
        {"width": "1e999", "length": "1e999"},
    ], ids=["nan_width", "1e999_length", "1e999_both"])
    def test_exit_code_non_finite_agent_size(self, scene_dir, tmp_path, sizes):
        path = scene_dir / "crossing.json"
        data = json.loads(path.read_text())
        data["agents"][1].update(sizes)
        # the writer puts NaN as is and 1e999 as the bare literal, which decodes to inf
        path.write_text(json.dumps(data).replace('"1e999"', "1e999"))
        res = self.run("eval", "--scene-dir", str(scene_dir), "--pred", "cv",
                       "--out-dir", str(tmp_path / "out"))
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "crossing.json" in err["message"]
        assert "SceneValidationError: agent b: invalid dimensions" in err["message"]

    def test_scene_without_ground_truth_ahead_does_not_abort(self, scene_dir, tmp_path):
        """A scene whose only prediction frame is its last sample has nothing to
        measure displacement against; it drops out of the displacement average
        instead of aborting the corpus."""
        cfg = EvalConfig()
        scene = load_scene(scene_dir / "crossing.json")
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        cv = evaluate_scene(scene, cfg, baseline="cv").predictions
        save_predictions(scene.scene_id, cfg.t_p, cv, pred_dir / "crossing.json")
        late = crossing_scene(n=30, scene_id="late")
        both = tmp_path / "both"
        both.mkdir()
        save_scene(scene, both / "crossing.json")
        save_scene(late, both / "late.json")
        last = late.agents[0].trajectory.n - 1
        save_predictions("late", cfg.t_p, {last: cv_predict(late, last, cfg)},
                         pred_dir / "late.json")
        outs = {}
        for name, d in (("one", scene_dir), ("two", both)):
            outs[name] = tmp_path / name
            res = self.run("eval", "--scene-dir", str(d), "--pred", str(pred_dir),
                           "--out-dir", str(outs[name]))
            assert res.exit_code == 0, res.output
        for f in ("pairs.csv", "frames.csv", "report.json"):
            assert (outs["two"] / f).read_bytes() == (outs["one"] / f).read_bytes(), f

    def test_exit_code_empty_corpus(self, tmp_path):
        d = tmp_path / "scenes"
        d.mkdir()
        res = self.run("filter", "--scene-dir", str(d),
                       "--out", str(tmp_path / "f.csv"))
        assert res.exit_code == 4
