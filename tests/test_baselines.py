import dataclasses
import itertools
import traceback
import warnings

import numpy as np
import pytest

from interaction_eval import (
    HomotopyClass,
    Scene,
    VehicleDims,
    baselines,
    collision,
    cv_predict,
    evaluate_scene,
    filter_scene_with_rejections,
    interaction_timeline,
    is_collision,
    oracle_predict,
    rollout,
    types,
    validate_scene,
)
from interaction_eval.errors import NoFeasibleCombo
from interaction_eval.rollout import (
    PathRollout,
    ProfileKind,
    max_scene_speed,
)
from interaction_eval.types import (
    JointPredictionSet,
    agent_frame_index,
    trajectory_kinematics,
)

from conftest import (
    as_traj,
    crossing_scene,
    four_agent_scene,
    make_agent,
    random_crossing_scene,
    ref_is_collision,
    straight_traj,
    winding_angle,
)


class TestFrameIndexing:
    def test_origin_is_earliest_start(self):
        a = make_agent("a", straight_traj((0, 0), (1, 0), 10, t0=2.0))
        b = make_agent("b", straight_traj((5, 5), (1, 0), 10, t0=0.5))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        assert scene.t_origin == pytest.approx(0.5)

    def test_global_to_local_mapping(self):
        a = make_agent("a", straight_traj((0, 0), (1, 0), 10, t0=2.0))
        b = make_agent("b", straight_traj((5, 5), (1, 0), 10, t0=0.5))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        assert agent_frame_index(scene, b, 0) == 0
        assert agent_frame_index(scene, a, 0) is None  # not yet observed
        assert agent_frame_index(scene, a, 3) == 0
        assert agent_frame_index(scene, a, 5) == 2
        assert agent_frame_index(scene, b, 100) is None


class TestConstantVelocity:
    def test_single_unit_probability_sample(self, cfg):
        scene = crossing_scene(n=30)
        pred = cv_predict(scene, 3, cfg)
        assert pred.p.tolist() == [1.0]
        assert pred.agent_ids == ("a", "b")

    def test_extrapolates_current_motion(self, cfg):
        scene = crossing_scene(n=30)
        pred = cv_predict(scene, 3, cfg)
        fut = pred.xy[0, pred.agent_ids.index("a")]
        assert pred.lengths.tolist() == [[12, 12]]
        assert fut.shape == (cfg.horizon_frames(scene.dt), 2)
        # agent a moves east at 6 m/s from x = -40 + 3*3
        np.testing.assert_allclose(fut[0], [-28.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(fut[-1], [-40 + 3 * 15, 0.0], atol=1e-9)

    def test_stationary_agent_stays_put(self, cfg):
        a = make_agent("a", straight_traj((3, 4), (0, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        fut = cv_predict(scene, 3, cfg).xy[0, 0]
        np.testing.assert_allclose(fut, [[3.0, 4.0]] * 12)


class TestOracle:
    def test_top_k_count_and_probabilities(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, [3], pairs, 5, cfg)[3]
        assert pred.xy.shape[0] == 5
        probs = pred.p.tolist()
        assert all(p > 0 for p in probs)
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0)

    def test_k_larger_than_combo_count(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, [3], pairs, 50, cfg)[3]
        assert len(pred.p) <= 9  # at most 3^2 combinations for one pair

    def test_frame_with_no_agent(self, cfg):
        """A call whose frames hold no agent rolls nothing and returns one
        empty sample, without a warning."""
        scene = crossing_scene()
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = oracle_predict(scene, [40], pairs, 5, cfg)[40]
        assert pred.agent_ids == ()
        assert pred.p.tolist() == [1.0]
        assert pred.xy.shape == (1, 0, 0, 2)

    def test_non_interacting_agent_stays_constant_velocity(self, cfg):
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        c = make_agent("c", straight_traj((0, 300), (6, 0), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b, c)))
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        assert {(p.agent_a, p.agent_b) for p in pairs} == {("a", "b")}
        pred = oracle_predict(scene, [3], pairs, 9, cfg)[3]
        c = pred.agent_ids.index("c")
        futures = {tuple(pred.xy[k, c, pred.lengths[k, c] - 1]) for k in range(len(pred.p))}
        assert len(futures) == 1  # same constant-velocity future in all samples
        # in every sample, c's future is its own constant-velocity roll from
        # frame 3 past its start position
        v_max, horizon = max_scene_speed(scene), cfg.horizon_frames(scene.dt)
        traj = scene.agent("c").trajectory
        i = agent_frame_index(scene, scene.agent("c"), 3)
        path = PathRollout(traj, i, float(trajectory_kinematics(traj)[1][i]), v_max,
                           v_max * (horizon + 1) * scene.dt + 10.0, cfg)
        want = path.roll(ProfileKind.CONST_VEL, horizon)[1:]
        assert len(pred.p) > 1
        for k in range(len(pred.p)):
            assert np.array_equal(pred.xy[k, c, :pred.lengths[k, c]], want)

    def test_combos_are_collision_free(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, [6], pairs, 9, cfg)[6]
        dims = {ag.id: VehicleDims(ag.width, ag.length) for ag in scene.agents}
        for xy_a, xy_b in pred.xy:
            assert not is_collision(xy_a, xy_b, dims["a"], dims["b"], cfg.interp_factor)

    def test_full_enumeration_covers_feasible_classes(self, cfg):
        """With K covering all combinations, the oracle's predicted class set
        over a critical pair equals the rollout-feasible set."""
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        frame = 2
        pred = oracle_predict(scene, [frame], pairs, 100, cfg)[frame]
        classes = set()
        for xy_a, xy_b in pred.xy:
            d = winding_angle(xy_a, xy_b)
            classes.add(HomotopyClass.CW if d < 0 else HomotopyClass.CCW)
        assert classes == set(interaction_timeline(scene, pairs[0], cfg).h_feas[frame])


def reference_oracle_predict(scene, t, pairs, k, cfg):
    """The oracle at one frame ``t``, as it was before its collision tables:
    every combination calls the frozen per-pair collision check for each
    critical pair and recomputes the mean speed of every rollout it selects.
    Kept as the reference."""
    v_max = max_scene_speed(scene)
    horizon = cfg.horizon_frames(scene.dt)
    interacting = sorted({aid for p in pairs for aid in (p.agent_a, p.agent_b)})
    rollouts, present = {}, []
    for agent in scene.agents:
        i = agent_frame_index(scene, agent, t)
        if i is None:
            continue
        _, speeds = trajectory_kinematics(agent.trajectory)
        extend = v_max * (horizon + 1) * scene.dt + 10.0
        path = PathRollout(agent.trajectory, i, float(speeds[i]), v_max, extend, cfg)
        rollouts[agent.id] = {
            kind: path.roll(kind, horizon)
            for kind in (ProfileKind.ACCEL, ProfileKind.CONST_VEL, ProfileKind.DECEL)
        }
        present.append(agent)
    choices = [
        (agent.id,
         (ProfileKind.ACCEL, ProfileKind.CONST_VEL, ProfileKind.DECEL)
         if agent.id in interacting else (ProfileKind.CONST_VEL,))
        for agent in present
    ]
    dims = {a.id: VehicleDims(a.width, a.length) for a in present}
    check_pairs = [(p.agent_a, p.agent_b) for p in pairs
                   if p.agent_a in rollouts and p.agent_b in rollouts]
    candidates = []
    for combo in itertools.product(*(profiles for _, profiles in choices)):
        assignment = dict(zip((aid for aid, _ in choices), combo))
        collides = any(
            ref_is_collision(as_traj(rollouts[a][assignment[a]], scene.dt),
                             as_traj(rollouts[b][assignment[b]], scene.dt),
                             dims[a], dims[b], cfg.interp_factor)
            for a, b in check_pairs
        )
        if collides:
            continue
        speeds = []
        for aid, kind in assignment.items():
            xy = rollouts[aid][kind]
            step = np.hypot(*(np.diff(xy, axis=0).T))
            speeds.append(step.mean() / scene.dt)
        avg_speed = float(np.mean(speeds)) if speeds else 0.0
        order_key = tuple(list(ProfileKind).index(kind) for kind in combo)
        candidates.append((-avg_speed, order_key, assignment, avg_speed))
    if not candidates:
        raise NoFeasibleCombo(f"all profile combinations collide at frame {t}")
    candidates.sort(key=lambda c: (c[0], c[1]))
    top = candidates[:k]
    total = sum(c[3] for c in top)
    samples = []
    for _, _, assignment, avg_speed in top:
        p = avg_speed / total if total > 0 else 1.0 / len(top)
        trajs = {aid: rollouts[aid][kind][1:] for aid, kind in assignment.items()}
        samples.append((p, trajs))
    return JointPredictionSet.from_samples(t, samples)


def _outcome(predict, *args):
    try:
        return predict(*args)
    except NoFeasibleCombo as e:
        return type(e)


def _holds_arrays(value) -> bool:
    """Whether a value is an array, or a list, tuple or dict of arrays."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(isinstance(v, np.ndarray) for v in value)
    return isinstance(value, np.ndarray)


def _present_frames(scene, frames):
    """Each agent's frames, of ``frames``, at which it is present."""
    return {agent.id: {f for f in frames if agent_frame_index(scene, agent, f) is not None}
            for agent in scene.agents}


class TestOracleCollisionTables:
    def test_matches_per_combo_reference(self, cfg):
        """One call over several frames gives, at each frame, the same samples,
        order, probabilities and trajectories as the per-frame,
        per-combination loop. Where that loop raises at some frame, the call
        raises the same NoFeasibleCombo, naming the first such frame. In the
        last four scenes every agent drives at the speed limit, so its
        ACCEL and CONST_VEL rollouts are equal and many combinations tie on
        speed: they keep ProfileKind order."""
        feasible = infeasible = multi_pair = 0
        for seed, speed in [(seed, None) for seed in range(16)] + [(27, 6.0), (30, 6.0),
                                                                   (35, 6.0), (39, 6.0)]:
            scene = random_crossing_scene(seed, speed=speed)
            pairs = filter_scene_with_rejections(scene, cfg)[0]
            k = (1, 3, 5, 100)[seed % 4]
            want = {}
            for frame in range(0, 26, 5):
                try:
                    want[frame] = reference_oracle_predict(scene, frame, pairs, k, cfg)
                except NoFeasibleCombo as e:
                    want[frame] = str(e)
            failed = [frame for frame, w in want.items() if isinstance(w, str)]
            if failed:
                with pytest.raises(NoFeasibleCombo) as info:
                    oracle_predict(scene, set(want), pairs, k, cfg)
                assert str(info.value) == want[failed[0]], seed
                infeasible += 1
            # the frames where the loop succeeds, in one call, in any order
            frames = [frame for frame in want if frame not in failed]
            got = oracle_predict(scene, frames[::-1], pairs, k, cfg)
            assert list(got) == frames, seed
            for frame in frames:
                assert got[frame].frame == want[frame].frame == frame
                assert got[frame].agent_ids == want[frame].agent_ids, (seed, frame)
                assert got[frame].p.tolist() == want[frame].p.tolist(), (seed, frame)
                assert np.array_equal(got[frame].lengths, want[frame].lengths), (seed, frame)
                assert np.array_equal(got[frame].xy, want[frame].xy), (seed, frame)
                feasible += 1
                multi_pair += len(pairs) > 1
        # the corpus exercises both outcomes and frames with several pairs
        assert feasible > 80 and infeasible > 0 and multi_pair > 40

    @pytest.mark.parametrize("agent_c", [None, 0.0, 3.0], ids=["crossing", "two_pairs", "late"])
    def test_nine_checks_per_pair(self, cfg, monkeypatch, agent_c):
        """One call checks every critical pair's 3x3 tables at every frame its
        agents share with one ``collisions`` call for the scene's pairs (they
        fit in one run of ``collision.chunk_bounds``), never with
        ``is_collision``."""
        scene = crossing_scene(n=30)
        if agent_c is not None:  # c comes south on the other lane: it crosses a, not b
            c = make_agent("c", straight_traj((-2.0, 45.0), (0.0, -6.0), 30 - int(2 * agent_c),
                                              t0=agent_c))
            scene = validate_scene(Scene(scene_id="three", dt=0.5, agents=scene.agents + (c,)))
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        assert len(pairs) == (1 if agent_c is None else 2)
        calls = {"is_collision": [], "collisions": []}

        def counted(name):
            original = getattr(baselines, name)

            def wrapper(*args):
                result = original(*args)
                calls[name].append(result)
                return result
            monkeypatch.setattr(baselines, name, wrapper)

        for name in calls:
            counted(name)
        frames = range(0, 20, 3)
        present = _present_frames(scene, frames)
        _outcome(oracle_predict, scene, frames, pairs, 5, cfg)
        assert calls["is_collision"] == []
        # nine row pairs at each frame both agents of a pair are present
        assert [hit.shape for hit in calls["collisions"]] == [
            (sum(9 * len(present[p.agent_a] & present[p.agent_b]) for p in pairs),)]
        if agent_c:
            assert len(present["c"]) < len(present["a"])

    @pytest.mark.parametrize("budget", [None, 1], ids=["one_run", "run_per_pair"])
    def test_pairs_of_different_sizes(self, cfg, monkeypatch, budget):
        """With every agent of its own size, checked in one run or in a run
        per pair, the tables give what the per-combination loop gives."""
        if budget:
            monkeypatch.setattr(collision, "_CHUNK_SAMPLES", budget)
        checked = 0
        for seed in (1, 2, 5, 6, 9, 13):
            base = random_crossing_scene(seed)
            scene = validate_scene(Scene(scene_id=base.scene_id, dt=base.dt, agents=tuple(
                dataclasses.replace(a, width=1.6 + 0.3 * j, length=3.6 + 1.2 * j)
                for j, a in enumerate(base.agents))))
            pairs = filter_scene_with_rejections(scene, cfg)[0]
            for frame in range(0, 20, 4):
                want = _outcome(reference_oracle_predict, scene, frame, pairs, 3, cfg)
                got = _outcome(oracle_predict, scene, [frame], pairs, 3, cfg)
                if want is NoFeasibleCombo:
                    assert got is NoFeasibleCombo, (seed, frame)
                    continue
                assert got[frame].p.tolist() == want.p.tolist(), (seed, frame)
                assert np.array_equal(got[frame].xy, want.xy), (seed, frame)
                checked += len(pairs) > 1
        assert checked > 5

    @pytest.mark.parametrize("frames", [range(0, 10), range(0, 20)], ids=["c_absent", "all"])
    def test_track_admitted_once_per_call(self, cfg, monkeypatch, frames):
        """One call admits each present agent's track to closed-form rolling
        (``rollout._closed_form_starts``) once, however many frames it
        predicts."""
        base = crossing_scene(n=30)
        c = make_agent("c", straight_traj((-2.0, 45.0), (0.0, -6.0), 20, t0=5.0))
        z = make_agent("z", straight_traj((-30.0, 300.0), (6.0, 0.0), 30))
        scene = validate_scene(Scene(scene_id="late", dt=0.5, agents=base.agents + (c, z)))
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        seen = []
        admit = rollout._closed_form_starts

        def counted(xy, *args):
            seen.append(id(xy))
            return admit(xy, *args)
        monkeypatch.setattr(rollout, "_closed_form_starts", counted)
        _outcome(oracle_predict, scene, frames, pairs, 5, cfg)
        present = [a for a in scene.agents if _present_frames(scene, frames)[a.id]]
        assert sorted(seen) == sorted(id(a.trajectory.xy) for a in present)
        assert ("c" in {a.id for a in present}) == (frames.stop > 10)

    def test_failure_traceback_holds_no_arrays(self, cfg):
        """A caller that keeps a NoFeasibleCombo traceback keeps none of the
        call's rolls: no frame of it holds an array, or a list, tuple or
        dict of arrays."""
        scene = random_crossing_scene(8)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        with pytest.raises(NoFeasibleCombo, match="collide at frame 5$") as info:
            oracle_predict(scene, range(0, 26, 5), pairs, 5, cfg)
        frames = list(traceback.walk_tb(info.value.__traceback__.tb_next))  # past this test
        assert frames
        for frame, _ in frames:
            held = [name for name, value in frame.f_locals.items() if _holds_arrays(value)]
            assert held == [], frame.f_code.co_name


@pytest.mark.parametrize("model", ["cv", "oracle"])
def test_kinematics_once_per_scene(cfg, monkeypatch, model):
    """Grading a baseline computes each agent's kinematics once per scene
    (``Scene.kinematics``, which also gives the speed limit), not once per
    predicted frame, and predicts what each frame predicts alone."""
    scene = four_agent_scene()
    seen = []
    kinematics = types.trajectory_kinematics

    def counted(traj):
        seen.append(traj)
        return kinematics(traj)
    monkeypatch.setattr(types, "trajectory_kinematics", counted)
    result = evaluate_scene(scene, cfg, baseline=model)
    assert len(result.predictions) > 1
    assert [id(t) for t in seen] == [id(a.trajectory) for a in scene.agents]
    pairs = filter_scene_with_rejections(scene, cfg)[0]
    for frame, got in result.predictions.items():
        fresh = Scene(scene.scene_id, scene.dt, scene.agents)  # nothing cached
        alone = (cv_predict(fresh, frame, cfg) if model == "cv"
                 else oracle_predict(fresh, [frame], pairs, 5, cfg)[frame])
        assert got.agent_ids == alone.agent_ids
        assert got.p.tolist() == alone.p.tolist()
        assert np.array_equal(got.xy, alone.xy) and np.array_equal(got.lengths, alone.lengths)


def reference_cv_predict(scene, t, cfg):
    """``cv_predict`` as it was before it packed its own array: each present
    agent's future in a dict, packed by ``from_samples``. Kept as the
    reference."""
    horizon = cfg.horizon_frames(scene.dt)
    trajs = {}
    for agent in scene.agents:
        i = agent_frame_index(scene, agent, t)
        if i is None:
            continue
        headings, speeds = trajectory_kinematics(agent.trajectory)
        step = speeds[i] * scene.dt * np.array([np.cos(headings[i]), np.sin(headings[i])])
        trajs[agent.id] = agent.trajectory.xy[i] + np.outer(np.arange(1, horizon + 1), step)
    return JointPredictionSet.from_samples(t, [(1.0, trajs)])


def assert_same_set(got, want):
    """Two prediction sets agree in agent order and in the bytes, shape,
    dtype, C-contiguity and read-only flag of each array."""
    assert got.frame == want.frame
    assert type(got.agent_ids) is tuple and got.agent_ids == want.agent_ids
    for name in ("p", "xy", "lengths"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.shape, g.dtype) == (w.shape, w.dtype), name
        assert g.tobytes() == w.tobytes(), name
        assert g.flags.c_contiguous and w.flags.c_contiguous, name
        assert not g.flags.writeable and not w.flags.writeable, name


# the three scenes of the golden corpus (test_golden.py), then random crossings
PACKING_SCENES = [
    crossing_scene(),
    crossing_scene(v_a=8.0, v_b=5.0, gap_a=40.0, gap_b=37.0, scene_id="asym"),
    four_agent_scene(),
] + [random_crossing_scene(seed) for seed in range(8)]


class TestPackedSets:
    """Each baseline packs its sets from its own arrays, and gets the set that
    ``from_samples`` packs from the same per-agent futures."""

    def test_cv_matches_from_samples(self, cfg):
        empty = 0
        for scene in PACKING_SCENES:
            for frame in range(-1, 31):  # frames -1 and 30 hold no agent
                want = reference_cv_predict(scene, frame, cfg)
                assert_same_set(cv_predict(scene, frame, cfg), want)
                empty += want.agent_ids == ()
        assert empty == 2 * len(PACKING_SCENES)
        assert want.xy.shape == (1, 0, 0, 2)

    def test_oracle_matches_from_samples(self, cfg):
        """At every frame where the oracle has a collision-free combination,
        one call over those frames gives the reference's sets. The frames
        cover a bystander (in no critical pair), a K past the number of free
        combinations and a frame with no agent present."""
        bystander = short = sets = 0
        for n, scene in enumerate(PACKING_SCENES):
            pairs = filter_scene_with_rejections(scene, cfg)[0]
            interacting = {aid for p in pairs for aid in (p.agent_a, p.agent_b)}
            k = (1, 3, 5, 100)[n % 4]
            want = {}
            for frame in range(0, 31, 5):
                try:
                    want[frame] = reference_oracle_predict(scene, frame, pairs, k, cfg)
                except NoFeasibleCombo:
                    continue
            got = oracle_predict(scene, list(want), pairs, k, cfg)
            assert list(got) == list(want), scene.scene_id
            for frame, w in want.items():
                assert_same_set(got[frame], w)
                bystander += bool(set(w.agent_ids) - interacting)
                short += len(w.p) < k
                sets += 1
        assert sets > 70 and bystander > 20 and short > 15
        assert want[30].agent_ids == () and want[30].xy.shape == (1, 0, 0, 2)
