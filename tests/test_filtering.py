import numpy as np
import pytest

from interaction_eval import (
    CriticalPair,
    EvalConfig,
    PairRejection,
    RejectReason,
    Scene,
    Trajectory,
    classify_pair,
    filter_scene_with_rejections,
    pairwise_distance_matrix,
    path_sharing_sets,
    resample_trajectory,
    validate_scene,
)

from conftest import crossing_scene, make_agent, straight_traj


def brute_force_sharing(ta, tb, cfg):
    """Independent oracle: path-sharing sets by direct nested comparison."""
    da = resample_trajectory(ta, cfg.interp_factor)
    db = resample_trajectory(tb, cfg.interp_factor)
    i_a, i_b = set(), set()
    for i in range(da.n):
        for j in range(db.n):
            if np.hypot(*(da.xy[i] - db.xy[j])) < cfg.d_collision:
                i_a.add(i // cfg.interp_factor)
                i_b.add(j // cfg.interp_factor)
    return sorted(i_a), sorted(i_b)


class TestDistanceMatrix:
    def test_shape_and_values(self, cfg):
        scene = crossing_scene(n=10)
        a, b = scene.agents
        field = pairwise_distance_matrix(
            a.trajectory, b.trajectory, cfg.interp_factor
        )
        dense_n = (10 - 1) * cfg.interp_factor + 1
        assert field.d.shape == (dense_n, dense_n)
        # Spot-check one entry against direct computation.
        da = resample_trajectory(a.trajectory, cfg.interp_factor)
        db = resample_trajectory(b.trajectory, cfg.interp_factor)
        assert field.d[5, 7] == pytest.approx(np.hypot(*(da.xy[5] - db.xy[7])))


class TestPathSharing:
    def test_matches_brute_force(self, cfg):
        scene = crossing_scene(n=30)
        a, b = scene.agents
        field = pairwise_distance_matrix(a.trajectory, b.trajectory, cfg.interp_factor)
        res = path_sharing_sets(field, cfg.d_collision)
        exp_a, exp_b = brute_force_sharing(a.trajectory, b.trajectory, cfg)
        assert list(res.i_ps_a) == exp_a
        assert list(res.i_ps_b) == exp_b

    def test_first_share_times(self, cfg):
        scene = crossing_scene(n=30)
        a, b = scene.agents
        field = pairwise_distance_matrix(a.trajectory, b.trajectory, cfg.interp_factor)
        res = path_sharing_sets(field, cfg.d_collision)
        # A enters B's path corridor before B reaches A's (frozen oracle values).
        assert res.t_ps_a == pytest.approx(6.5)
        assert res.t_ps_b == pytest.approx(8.5)
        assert res.dt_ps == pytest.approx(2.0)


class TestClassification:
    def test_crossing_accepted(self, cfg):
        scene = crossing_scene(n=30)
        a, b = scene.agents
        res = classify_pair(scene, a.id, b.id, cfg)
        assert isinstance(res, CriticalPair)
        assert res.sharing.dt_ps == pytest.approx(2.0)

    def test_parallel_rejected_never_sharing(self, cfg):
        a = make_agent("a", straight_traj((0, 0), (6, 0), 30))
        b = make_agent("b", straight_traj((0, 3), (6, 0), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        res = classify_pair(scene, "a", "b", cfg)
        assert isinstance(res, PairRejection)
        assert res.reason is RejectReason.NEVER_PATH_SHARING

    def test_car_following_rejected_from_start(self, cfg):
        lead = make_agent("lead", straight_traj((10, 0), (6, 0), 30))
        trail = make_agent("trail", straight_traj((0, 0), (6, 0), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(lead, trail)))
        res = classify_pair(scene, "lead", "trail", cfg)
        assert isinstance(res, PairRejection)
        assert res.reason is RejectReason.SHARED_FROM_START

    def test_large_time_gap_rejected(self, cfg):
        # Both cross the origin but more than dt_ps_max apart in time.
        a = make_agent("a", straight_traj((-12, 0), (6, 0), 40))
        b = make_agent("b", straight_traj((0, -80), (0, 6), 40))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        res = classify_pair(scene, "a", "b", cfg)
        assert isinstance(res, PairRejection)
        assert res.reason is RejectReason.TIME_GAP_TOO_LARGE

    def test_t_min_override(self):
        # Raising t_min past the first-share time turns acceptance into rejection.
        scene = crossing_scene(n=30)
        a, b = scene.agents
        loose = classify_pair(scene, "a", "b", EvalConfig())
        strict = classify_pair(scene, "a", "b", EvalConfig().with_(t_min=7.0))
        assert isinstance(loose, CriticalPair)
        assert isinstance(strict, PairRejection)
        assert strict.reason is RejectReason.SHARED_FROM_START


class TestSceneFiltering:
    def test_filter_scene_returns_critical_pairs(self, cfg):
        scene = crossing_scene(n=30)
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        assert len(pairs) == 1
        assert {pairs[0].agent_a, pairs[0].agent_b} == {"a", "b"}

    def test_rejections_reported(self, cfg):
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        c = make_agent("c", straight_traj((0, 300), (6, 0), 30))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b, c)))
        pairs, rejections = filter_scene_with_rejections(scene, cfg)
        assert len(pairs) == 1
        assert len(rejections) == 2
        assert all(r.reason is RejectReason.NEVER_PATH_SHARING for r in rejections)

    def test_pair_order_deterministic(self, cfg):
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        scene1 = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        scene2 = validate_scene(Scene(scene_id="s", dt=0.5, agents=(b, a)))
        p1 = filter_scene_with_rejections(scene1, cfg)[0][0]
        p2 = filter_scene_with_rejections(scene2, cfg)[0][0]
        assert (p1.agent_a, p1.agent_b) == (p2.agent_a, p2.agent_b)
