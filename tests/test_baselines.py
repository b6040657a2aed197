import itertools

import numpy as np
import pytest

from interaction_eval import (
    EvalConfig,
    HomotopyClass,
    Scene,
    Trajectory,
    cv_predict,
    filter_scene_with_rejections,
    interaction_timeline,
    oracle_predict,
    validate_scene,
    winding_angle,
)
from interaction_eval.types import agent_frame_index, scene_time_origin

from conftest import crossing_scene, make_agent, straight_traj


class TestFrameIndexing:
    def test_origin_is_earliest_start(self):
        a = make_agent("a", straight_traj((0, 0), (1, 0), 10, t0=2.0))
        b = make_agent("b", straight_traj((5, 5), (1, 0), 10, t0=0.5))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        assert scene_time_origin(scene) == pytest.approx(0.5)

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
        assert len(pred.samples) == 1
        assert pred.samples[0].p == pytest.approx(1.0)

    def test_extrapolates_current_motion(self, cfg):
        scene = crossing_scene(n=30)
        pred = cv_predict(scene, 3, cfg)
        fut = pred.samples[0].trajs["a"]
        assert fut.shape == (cfg.horizon_frames(scene.dt), 2)
        # agent a moves east at 6 m/s from x = -40 + 3*3
        np.testing.assert_allclose(fut[0], [-28.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(fut[-1], [-40 + 3 * 15, 0.0], atol=1e-9)

    def test_stationary_agent_stays_put(self, cfg):
        a = make_agent("a", straight_traj((3, 4), (0, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        fut = cv_predict(scene, 3, cfg).samples[0].trajs["a"]
        np.testing.assert_allclose(fut, [[3.0, 4.0]] * 12)


class TestOracle:
    def test_top_k_count_and_probabilities(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, 3, pairs, 5, cfg)
        assert len(pred.samples) == 5
        probs = [s.p for s in pred.samples]
        assert all(p > 0 for p in probs)
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0)

    def test_k_larger_than_combo_count(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, 3, pairs, 50, cfg)
        assert len(pred.samples) <= 9  # at most 3^2 combinations for one pair

    def test_non_interacting_agent_stays_constant_velocity(self, cfg):
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        c = make_agent("c", straight_traj((0, 300), (6, 0), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b, c)))
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, 3, pairs, 9, cfg)
        futures = {tuple(np.asarray(s.trajs["c"])[-1]) for s in pred.samples}
        assert len(futures) == 1  # same constant-velocity future in all samples

    def test_combos_are_collision_free(self, cfg):
        from interaction_eval import VehicleDims, is_collision

        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        pred = oracle_predict(scene, 6, pairs, 9, cfg)
        dims = {ag.id: VehicleDims(ag.width, ag.length) for ag in scene.agents}
        for s in pred.samples:
            t = scene.dt * np.arange(len(s.trajs["a"]))
            ta = Trajectory(t=t, xy=s.trajs["a"], dt=scene.dt)
            tb = Trajectory(t=t, xy=s.trajs["b"], dt=scene.dt)
            assert not is_collision(ta, tb, dims["a"], dims["b"], cfg.interp_factor)

    def test_full_enumeration_covers_feasible_classes(self, cfg):
        """With K covering all combinations, the oracle's predicted class set
        over a critical pair equals the rollout-feasible set."""
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        frame = 2
        pred = oracle_predict(scene, frame, pairs, 100, cfg)
        classes = set()
        for s in pred.samples:
            t = scene.dt * np.arange(len(s.trajs["a"]))
            ta = Trajectory(t=t, xy=s.trajs["a"], dt=scene.dt)
            tb = Trajectory(t=t, xy=s.trajs["b"], dt=scene.dt)
            d = winding_angle(ta, tb).delta_theta
            classes.add(HomotopyClass.CW if d < 0 else HomotopyClass.CCW)
        assert classes == set(interaction_timeline(scene, pairs[0], cfg).h_feas[frame])
