import itertools
from collections import Counter

import numpy as np
import pytest

from interaction_eval import (
    HomotopyClass,
    Scene,
    VehicleDims,
    baselines,
    cv_predict,
    evaluate_scene,
    filter_scene_with_rejections,
    interaction_timeline,
    is_collision,
    oracle_predict,
    types,
    validate_scene,
    winding_angle,
)
from interaction_eval.baselines import ORACLE_PROFILES
from interaction_eval.errors import NoFeasibleCombo
from interaction_eval.rollout import (
    PROFILE_ORDER,
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
        pred = oracle_predict(scene, 3, pairs, 5, cfg)
        assert pred.xy.shape[0] == 5
        probs = pred.p.tolist()
        assert all(p > 0 for p in probs)
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0)

    def test_k_larger_than_combo_count(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, 3, pairs, 50, cfg)
        assert len(pred.p) <= 9  # at most 3^2 combinations for one pair

    def test_non_interacting_agent_stays_constant_velocity(self, cfg, monkeypatch):
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        c = make_agent("c", straight_traj((0, 300), (6, 0), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b, c)))
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        assert {(p.agent_a, p.agent_b) for p in pairs} == {("a", "b")}
        rolled = []
        rollout_rows = baselines.rollout_rows

        def counted(rows, *args, **kwargs):
            out = rollout_rows(rows, *args, **kwargs)
            rolled.extend(kind for rolls in out for kind in rolls)
            return out
        monkeypatch.setattr(baselines, "rollout_rows", counted)
        pred = oracle_predict(scene, 3, pairs, 9, cfg)
        c = pred.agent_ids.index("c")
        futures = {tuple(pred.xy[k, c, pred.lengths[k, c] - 1]) for k in range(len(pred.p))}
        assert len(futures) == 1  # same constant-velocity future in all samples
        # three profiles for each of a and b, and c is rolled at constant velocity only
        assert Counter(rolled) == Counter([*ORACLE_PROFILES] * 2 + [ProfileKind.CONST_VEL])

    def test_combos_are_collision_free(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, 6, pairs, 9, cfg)
        dims = {ag.id: VehicleDims(ag.width, ag.length) for ag in scene.agents}
        for xy_a, xy_b in pred.xy:
            assert not is_collision(xy_a, xy_b, dims["a"], dims["b"], cfg.interp_factor)

    def test_full_enumeration_covers_feasible_classes(self, cfg):
        """With K covering all combinations, the oracle's predicted class set
        over a critical pair equals the rollout-feasible set."""
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        frame = 2
        pred = oracle_predict(scene, frame, pairs, 100, cfg)
        classes = set()
        for xy_a, xy_b in pred.xy:
            d = winding_angle(xy_a, xy_b)
            classes.add(HomotopyClass.CW if d < 0 else HomotopyClass.CCW)
        assert classes == set(interaction_timeline(scene, pairs[0], cfg).h_feas[frame])


def reference_oracle_predict(scene, t, pairs, k, cfg):
    """The oracle as it was before its collision tables: every combination
    calls the frozen per-pair collision check for each critical pair and
    recomputes the mean speed of every rollout it selects. Kept as the
    reference."""
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
        order_key = tuple(PROFILE_ORDER[kind] for kind in combo)
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


class TestOracleCollisionTables:
    def test_matches_per_combo_reference(self, cfg):
        """Same samples, order, probabilities and trajectories as the per-combo
        loop, or the same exception, on feasible and infeasible frames."""
        feasible = infeasible = multi_pair = 0
        for seed in range(16):
            scene = random_crossing_scene(seed)
            pairs = filter_scene_with_rejections(scene, cfg)[0]
            k = (1, 3, 5, 100)[seed % 4]
            for frame in range(0, 26, 5):
                want = _outcome(reference_oracle_predict, scene, frame, pairs, k, cfg)
                got = _outcome(oracle_predict, scene, frame, pairs, k, cfg)
                if want is NoFeasibleCombo:
                    assert got is NoFeasibleCombo, (seed, frame)
                    infeasible += 1
                    continue
                assert isinstance(got, JointPredictionSet), (seed, frame)
                assert got.frame == want.frame
                assert got.agent_ids == want.agent_ids, (seed, frame)
                assert got.p.tolist() == want.p.tolist(), (seed, frame)
                assert np.array_equal(got.lengths, want.lengths), (seed, frame)
                assert np.array_equal(got.xy, want.xy), (seed, frame)
                feasible += 1
                multi_pair += len(pairs) > 1
        # the corpus exercises both outcomes and frames with several pairs
        assert feasible > 80 and infeasible > 0 and multi_pair > 40

    @pytest.mark.parametrize("three_agents", [False, True], ids=["crossing", "two_pairs"])
    def test_nine_checks_per_pair(self, cfg, monkeypatch, three_agents):
        """Each frame lays each interacting agent's three rollouts out once and
        checks each critical pair's 3x3 table with one ``collisions`` call,
        never with ``is_collision``."""
        scene = crossing_scene(n=30)
        if three_agents:  # c comes south on the other lane: it crosses a, not b
            c = make_agent("c", straight_traj((-2.0, 45.0), (0.0, -6.0), 30))
            scene = validate_scene(Scene(scene_id="three", dt=0.5, agents=scene.agents + (c,)))
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        assert len(pairs) == (2 if three_agents else 1)
        interacting = {aid for p in pairs for aid in (p.agent_a, p.agent_b)}
        calls = {"is_collision": [], "collisions": [], "disk_tracks": []}

        def counted(name):
            original = getattr(baselines, name)

            def wrapper(*args):
                result = original(*args)
                calls[name].append(result)
                return result
            monkeypatch.setattr(baselines, name, wrapper)

        for name in calls:
            counted(name)
        for frame in range(0, 20, 3):
            for made in calls.values():
                made.clear()
            _outcome(oracle_predict, scene, frame, pairs, 5, cfg)
            assert calls["is_collision"] == [], frame
            assert len(calls["collisions"]) == len(pairs), frame
            assert all(hit.shape == (9,) for hit in calls["collisions"]), frame
            # one disk layout per interacting agent, one row per profile
            assert len(calls["disk_tracks"]) == len(interacting), frame
            assert all(len(t.lengths) == 3 for t in calls["disk_tracks"]), frame


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
                 else oracle_predict(fresh, frame, pairs, 5, cfg))
        assert got.agent_ids == alone.agent_ids
        assert got.p.tolist() == alone.p.tolist()
        assert np.array_equal(got.xy, alone.xy) and np.array_equal(got.lengths, alone.lengths)
