import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    DisplacementMetrics,
    EmptyCorpus,
    EmptyFeasibleSet,
    FrameRecord,
    HomotopyClass,
    JointPredictionSet,
    PairMetrics,
    PairRecord,
    aggregate,
    displacement_metrics,
    frame_flags,
    Scene,
    Trajectory,
    pair_time_metrics,
    validate_scene,
)
from interaction_eval.types import agent_frame_index

from conftest import crossing_scene, make_agent, straight_traj

CW = HomotopyClass.CW
CCW = HomotopyClass.CCW
BOTH = frozenset({CW, CCW})
ONLY_CW = frozenset({CW})
ONLY_CCW = frozenset({CCW})


def flag(frame, gt=CW, ml=CW, pred=ONLY_CW, feas=BOTH):
    return frame_flags(frame, gt, ml, pred, feas)


class TestFrameFlags:
    def test_correct_covered_collapse(self):
        f = frame_flags(0, CW, CW, ONLY_CW, BOTH)
        assert f.correct and f.covered and f.collapse

    def test_covered_without_correct(self):
        f = frame_flags(0, CW, CCW, BOTH, BOTH)
        assert not f.correct and f.covered and not f.collapse

    def test_no_collapse_when_feasible_subset_predicted(self):
        f = frame_flags(0, CW, CW, BOTH, ONLY_CW)
        assert not f.collapse

    def test_empty_feasible_raises(self):
        with pytest.raises(EmptyFeasibleSet):
            frame_flags(0, CW, CW, ONLY_CW, frozenset())


class TestPairTimeMetrics:
    def test_from_start(self):
        flags = [flag(i) for i in range(5)]
        m = pair_time_metrics(flags, 0.5)
        assert m.dt_correct is None
        assert m.dt_covered is None
        assert m.consistent

    def test_last_frame_wrong_gives_zero(self):
        flags = [flag(i) for i in range(4)] + [flag(4, ml=CCW)]
        m = pair_time_metrics(flags, 0.5)
        assert m.dt_correct == 0.0

    def test_seconds_before_final(self):
        flags = [flag(0, ml=CCW), flag(1, ml=CCW)] + [flag(i) for i in range(2, 6)]
        m = pair_time_metrics(flags, 0.5)
        # last incorrect frame is 1, final frame is 5 -> 4 frames * 0.5 s
        assert m.dt_correct == pytest.approx(2.0)

    def test_consistency_counts_ml_changes(self):
        one_change = [flag(0, ml=CCW), flag(1), flag(2)]
        two_changes = [flag(0, ml=CCW), flag(1), flag(2, ml=CCW)]
        assert pair_time_metrics(one_change, 0.5).consistent
        assert not pair_time_metrics(two_changes, 0.5).consistent

    def test_collapse_rate_over_two_feasible_frames(self):
        flags = (
            [flag(i, pred=ONLY_CW, feas=BOTH) for i in range(3)]
            + [flag(3, pred=BOTH, feas=BOTH)]
            + [flag(4, pred=ONLY_CW, feas=ONLY_CW)]
        )
        m = pair_time_metrics(flags, 0.5)
        # 3 collapsed of 4 two-feasible frames; the single-feasible frame
        # does not enter the denominator
        assert m.collapse_rate == pytest.approx(3 / 4)
        assert m.n_two_feasible == 4


def _pair(dt_correct, dt_covered=None, consistent=True):
    m = PairMetrics(dt_correct=dt_correct, dt_covered=dt_covered,
                    consistent=consistent, collapse_rate=0.0,
                    n_frames=4, n_two_feasible=4)
    return PairRecord(scene_id="s", agent_a="a", agent_b="b",
                      t_h_start=0.0, t_h_final=2.0, t_h_collapse=2.5, metrics=m)


class TestAggregate:
    def test_mean_excludes_from_start_and_zero(self):
        pairs = [_pair(None), _pair(0.0), _pair(1.0), _pair(3.0)]
        frames = [FrameRecord("s", "a", "b", 0.0, 1.0, flag(0))]
        rep = aggregate(pairs, frames, bin_width=0.5)
        assert rep.dt_correct_mean == pytest.approx(2.0)
        assert rep.pct_correct_at_tpred == pytest.approx(25.0)
        assert rep.pct_correct_at_0s == pytest.approx(25.0)

    def test_frame_rates_pooled(self):
        pairs = [_pair(None)]
        frames = [
            FrameRecord("s", "a", "b", 0.0, 1.5, flag(0)),
            FrameRecord("s", "a", "b", 0.5, 1.0, flag(1, ml=CCW)),
            FrameRecord("s", "a", "b", 1.0, 0.5, flag(2, pred=BOTH)),
        ]
        rep = aggregate(pairs, frames, bin_width=0.5)
        assert rep.mode_correct_rate == pytest.approx(100.0 * 2 / 3)
        assert rep.mode_covered_rate == pytest.approx(100.0)
        assert rep.mode_collapse_rate == pytest.approx(100.0 * 2 / 3)

    def test_curves_binned_by_time_to_collapse(self):
        pairs = [_pair(None)]
        frames = [
            FrameRecord("s", "a", "b", 0.0, 1.0, flag(0)),
            FrameRecord("s", "a", "b", 0.5, 0.5, flag(1, ml=CCW)),
            FrameRecord("s", "a", "b", 0.5, 0.5, flag(2)),
        ]
        rep = aggregate(pairs, frames, bin_width=0.5)
        by_dt = {c["dt_collapse"]: c for c in rep.curves}
        assert by_dt[1.0]["correct_rate"] == pytest.approx(100.0)
        assert by_dt[0.5]["correct_rate"] == pytest.approx(50.0)
        assert by_dt[0.5]["n"] == 2


class TestDisplacement:
    def test_uniform_offset(self):
        scene = crossing_scene(n=20)
        # Predict GT shifted by exactly 1 m for every agent and step.
        frame = 3
        horizon = 8
        trajs = {}
        for agent in scene.agents:
            gt = agent.trajectory.xy[frame + 1: frame + 1 + horizon]
            trajs[agent.id] = gt + np.array([0.6, 0.8])
        pred = JointPredictionSet.from_samples(frame, [(1.0, trajs)])
        d = displacement_metrics([pred], scene)
        assert d.ml_ade == pytest.approx(1.0, abs=1e-12)
        assert d.ml_fde == pytest.approx(1.0, abs=1e-12)
        assert d.joint_min_ade == pytest.approx(1.0, abs=1e-12)

    def test_joint_min_is_scene_level(self):
        scene = crossing_scene(n=20)
        frame, horizon = 3, 8

        def sample(off_a, off_b):
            gt_a = scene.agents[0].trajectory.xy[frame + 1: frame + 1 + horizon]
            gt_b = scene.agents[1].trajectory.xy[frame + 1: frame + 1 + horizon]
            return (0.5, {
                "a": gt_a + np.array([off_a, 0.0]),
                "b": gt_b + np.array([off_b, 0.0]),
            })

        # Sample 1: perfect for a, bad for b. Sample 2: mediocre for both.
        pred = JointPredictionSet.from_samples(frame, [sample(0.0, 4.0), sample(1.0, 1.0)])
        d = displacement_metrics([pred], scene)
        # Joint minimum picks the best whole sample (mean error 1.0), never
        # the per-agent mix-and-match (which would be 0.5).
        assert d.joint_min_ade == pytest.approx(1.0, abs=1e-12)
        assert d.ml_ade == pytest.approx(2.0, abs=1e-12)

    def test_truncates_to_ground_truth(self):
        scene = crossing_scene(n=10)
        frame = 7
        trajs = {}
        for agent in scene.agents:
            gt = agent.trajectory.xy[frame + 1:]
            # predict 12 steps though only 2 remain in GT
            pad = np.vstack([gt + 1000.0] * 6)[:12 - len(gt)]
            trajs[agent.id] = np.vstack([gt, pad])
        pred = JointPredictionSet.from_samples(frame, [(1.0, trajs)])
        d = displacement_metrics([pred], scene)
        assert d.ml_ade == pytest.approx(0.0, abs=1e-12)


def loop_displacement_metrics(predictions, scene):
    """Reference: the per-(frame, sample, agent) loop the array code replaced,
    in the set's agent order."""
    ml_err, ml_fin, jmin_ade, jmin_fde = [], [], [], []
    for pred in predictions:
        per_sample_ade, per_sample_fde = [], []
        for k in range(len(pred.p)):
            errs, fins = [], []
            for a, aid in enumerate(pred.agent_ids):
                future = pred.xy[k, a, :pred.lengths[k, a]]
                agent = scene.agent(aid)
                i = agent_frame_index(scene, agent, pred.frame)
                if i is None:
                    continue
                avail = agent.trajectory.n - 1 - i
                h = min(len(future), avail)
                if h < 1:
                    continue
                gt = agent.trajectory.xy[i + 1:i + 1 + h]
                e = np.hypot(*(future[:h] - gt).T)
                errs.append(e)
                fins.append(float(e[-1]))
            if not errs:
                continue
            per_sample_ade.append(float(np.mean(np.concatenate(errs))))
            per_sample_fde.append(float(np.mean(fins)))
            if k == 0:
                ml_err.extend(np.concatenate(errs).tolist())
                ml_fin.extend(fins)
        if per_sample_ade:
            jmin_ade.append(min(per_sample_ade))
            jmin_fde.append(min(per_sample_fde))
    if not ml_err:
        raise EmptyCorpus("no overlapping prediction/ground-truth samples")
    return DisplacementMetrics(
        ml_ade=float(np.mean(ml_err)),
        ml_fde=float(np.mean(ml_fin)),
        joint_min_ade=float(np.mean(jmin_ade)),
        joint_min_fde=float(np.mean(jmin_fde)),
    )


def random_case(seed, ragged=None, shuffled=None):
    """A scene whose agents enter and leave at different frames, and
    predictions at frames inside, near the end of and past their tracks.

    A frame's samples share one horizon unless ``ragged`` (then every future
    has its own length); they list the agents in one order unless
    ``shuffled``. Either left as None is drawn per frame. Errors span five orders of magnitude, so that a change in
    the order of a sum shows in the last bits.
    """
    rng = np.random.default_rng(seed)
    dt = float(rng.choice([0.1, 0.5]))
    agents, end = [], 0
    for k in range(int(rng.integers(1, 7))):
        first, n = int(rng.integers(0, 15)), int(rng.integers(2, 60))
        traj = straight_traj(rng.uniform(-50.0, 50.0, 2), rng.uniform(-10.0, 10.0, 2),
                             n, t0=first * dt, dt=dt)
        xy = traj.xy + rng.normal(0.0, 0.3, traj.xy.shape)
        agents.append(make_agent(f"g{k}", Trajectory(t=traj.t, xy=xy, dt=dt)))
        end = max(end, first + n)
    scene = validate_scene(Scene(scene_id=f"disp-{seed}", dt=dt, agents=tuple(agents)))
    origin = min(int(round(a.trajectory.t[0] / dt)) for a in agents)
    frames = rng.choice(end - origin + 3, size=min(8, end - origin + 3), replace=False)
    preds = []
    for frame in sorted(int(f) for f in frames):
        ids = [a.id for a in agents if rng.random() < 0.8] or [agents[0].id]
        k_samples, horizon = int(rng.integers(1, 7)), int(rng.integers(1, 60))
        frame_ragged = rng.random() < 0.3 if ragged is None else ragged
        frame_shuffled = rng.random() < 0.2 if shuffled is None else shuffled
        samples = []
        for _ in range(k_samples):
            order = list(rng.permutation(ids)) if frame_shuffled else ids
            trajs = {}
            for aid in order:
                h = int(rng.integers(1, horizon + 1)) if frame_ragged else horizon
                scale = 10.0 ** rng.uniform(-3.0, 2.0)
                trajs[str(aid)] = (scene.agent(str(aid)).trajectory.xy[-1]
                                   + rng.normal(0.0, scale, (h, 2)))
            samples.append((1.0 / k_samples, trajs))
        preds.append(JointPredictionSet.from_samples(frame, samples))
    return scene, preds


def assert_bit_equal(scene, preds):
    try:
        expected = loop_displacement_metrics(preds, scene)
    except EmptyCorpus:
        with pytest.raises(EmptyCorpus):
            displacement_metrics(preds, scene)
        return
    got = displacement_metrics(preds, scene)
    for f in dataclasses.fields(DisplacementMetrics):
        assert getattr(got, f.name) == getattr(expected, f.name), f.name


class TestDisplacementArrayCode:
    """displacement_metrics grades each frame's samples from one error
    array; it must equal the per-sample loop bit for bit."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           ragged=st.sampled_from([None, False, True]),
           shuffled=st.sampled_from([None, False, True]))
    @settings(max_examples=300, deadline=None)
    def test_equals_loop(self, seed, ragged, shuffled):
        assert_bit_equal(*random_case(seed, ragged, shuffled))

    def test_truncated_horizon_and_missing_agent(self):
        # b leaves the recording early; at frame 7 a has 2 steps left, b none
        a = make_agent("a", straight_traj((0.0, 0.0), (6.0, 0.0), 10))
        b = make_agent("b", straight_traj((0.0, 9.0), (5.0, 0.0), 6))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        rng = np.random.default_rng(5)
        preds = [JointPredictionSet.from_samples(f, [
            (0.25, {"a": rng.normal(0.0, 3.0, (12, 2)), "b": rng.normal(0.0, 3.0, (12, 2))})
            for _ in range(4)]) for f in (2, 5, 7, 9, 12)]
        assert_bit_equal(scene, preds)
        assert displacement_metrics(preds[2:3], scene) == loop_displacement_metrics(
            preds[2:3], scene)
        with pytest.raises(EmptyCorpus):
            displacement_metrics(preds[3:], scene)

    def test_no_sets_raise_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            displacement_metrics([], crossing_scene(n=10))

    def test_sets_of_every_shape_in_one_scene(self):
        # a covers frames 0-11, b frames 0-5 and c frames 5-14; the sets
        # differ in K, A and H and in the order of their agents
        a = make_agent("a", straight_traj((0.0, 0.0), (6.0, 0.0), 12))
        b = make_agent("b", straight_traj((0.0, 9.0), (5.0, 0.0), 6))
        c = make_agent("c", straight_traj((30.0, -20.0), (0.0, 4.0), 10, t0=2.5))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b, c)))
        rng = np.random.default_rng(11)

        def pred(frame, k, futures):
            # k samples of {agent id: horizon}; sample j's futures are j * h // (k + 1)
            # steps shorter, and their errors span orders of magnitude
            return JointPredictionSet.from_samples(frame, [
                ((k - j) / (k * (k + 1) / 2), {
                    aid: scene.agent(aid).trajectory.xy[-1] + 10.0 ** rng.uniform(-2.0, 1.5)
                    * rng.normal(0.0, 1.0, (h - j * h // (k + 1), 2))
                    for aid, h in futures.items()})
                for j in range(k)])

        preds = [
            pred(2, 3, {"a": 4, "b": 4}),  # both present, b cut to its 3 steps
            pred(3, 1, {"c": 7, "a": 5}),  # before c's first sample
            pred(8, 2, {"a": 5, "b": 5, "c": 5}),  # after b's last sample
            pred(10, 4, {"c": 6}),  # c's horizon cut to its 4 recorded steps
            pred(20, 2, {"b": 3, "a": 3}),  # more than a horizon past a's and b's tracks
            pred(11, 6, {"b": 2, "c": 9}),  # b absent, c present
        ]
        assert {p.xy.shape[:3] for p in preds} == {
            (3, 2, 4), (1, 2, 7), (2, 3, 5), (4, 1, 6), (2, 2, 3), (6, 2, 9)}
        assert displacement_metrics(preds, scene) == loop_displacement_metrics(preds, scene)
        # a set of one sample alone
        assert displacement_metrics(preds[1:2], scene) == loop_displacement_metrics(
            preds[1:2], scene)
        with pytest.raises(EmptyCorpus):
            displacement_metrics(preds[4:5], scene)
