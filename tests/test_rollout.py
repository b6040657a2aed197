import numpy as np
import pytest

from interaction_eval import (
    DegenerateInterval,
    EvalConfig,
    HomotopyClass,
    NoCollapse,
    PathRollout,
    ProfileKind,
    Scene,
    filter_scene_with_rejections,
    interaction_timeline,
    max_scene_speed,
    validate_scene,
)
from interaction_eval.collision import VehicleDims
from interaction_eval.homotopy import classify_pair_windows, gt_mode_sequence
from interaction_eval import rollout
from interaction_eval.rollout import rollout_rows
from interaction_eval.types import common_window, trajectory_kinematics

from conftest import (
    as_traj,
    circle_traj,
    crossing_scene,
    four_agent_scene,
    make_agent,
    random_crossing_scene,
    ref_is_collision,
    straight_traj,
)

A_LON = 1.47


def roll_from(agent, start_frame, kind, v0, v_max, cfg, n_steps):
    """Roll an agent from one of its recorded frames, with its path extended
    far enough for n_steps at the speed limit v_max."""
    traj = agent.trajectory
    extend = v_max * (n_steps + 1) * traj.dt + 10.0
    return PathRollout(traj, start_frame, v0, v_max, extend, cfg).roll(kind, n_steps)


def analytic_accel_distance(v0, v_max, a, t):
    """Closed-form arc length of a clamped constant-acceleration profile."""
    t_star = (v_max - v0) / a
    if t <= t_star:
        return v0 * t + 0.5 * a * t * t
    return v0 * t_star + 0.5 * a * t_star**2 + v_max * (t - t_star)


class TestSpeedProfiles:
    def test_signed_accelerations(self, cfg):
        # one frame from 5 m/s on a straight path: s = v0 dt + a dt^2 / 2
        agent = make_agent("a", straight_traj((0, 0), (5, 0), 10))
        for kind, a in ((ProfileKind.ACCEL, A_LON), (ProfileKind.DECEL, -A_LON),
                        (ProfileKind.CONST_VEL, 0.0)):
            roll = roll_from(agent, 0, kind, 5.0, 10.0, cfg, n_steps=1)
            assert roll[1, 0] == pytest.approx(5.0 * 0.5 + 0.5 * a * 0.5**2, abs=1e-9), kind

    def test_initial_speed_clamped_to_cap(self, cfg):
        agent = make_agent("a", straight_traj((0, 0), (12, 0), 10))
        path = PathRollout(agent.trajectory, 0, 12.0, 10.0, 50.0, cfg)
        assert path.v0 == pytest.approx(10.0)
        # unclamped, the closed form would advance 12 m/s * 0.5 s per frame
        np.testing.assert_allclose(np.diff(path.roll(ProfileKind.CONST_VEL, 4)[:, 0]), 5.0,
                                   atol=1e-9)


class TestStraightRollouts:
    def test_accel_matches_closed_form(self, cfg):
        agent = make_agent("a", straight_traj((0, 0), (4, 0), 40))
        roll = roll_from(agent, 0, ProfileKind.ACCEL, 4.0, 9.0, cfg, n_steps=30)
        for k in (5, 15, 30):
            expect = analytic_accel_distance(4.0, 9.0, A_LON, 0.5 * k)
            assert roll[k, 0] == pytest.approx(expect, abs=1e-9)

    def test_decel_stops_at_braking_distance(self, cfg):
        agent = make_agent("a", straight_traj((0, 0), (6, 0), 40))
        roll = roll_from(agent, 0, ProfileKind.DECEL, 6.0, 9.0, cfg, n_steps=30)
        stop = 6.0**2 / (2.0 * A_LON)
        assert roll[-1, 0] == pytest.approx(stop, abs=1e-9)
        # monotone, never reverses
        assert np.all(np.diff(roll[:, 0]) >= -1e-12)

    def test_const_vel_keeps_speed(self, cfg):
        agent = make_agent("a", straight_traj((0, 0), (6, 0), 40))
        roll = roll_from(agent, 0, ProfileKind.CONST_VEL, 6.0, 9.0, cfg, n_steps=20)
        np.testing.assert_allclose(np.diff(roll[:, 0]), 3.0, atol=1e-9)

    def test_starts_at_recorded_position_and_time(self, cfg):
        agent = make_agent("a", straight_traj((-10, 2), (6, 0), 40))
        roll = roll_from(agent, 4, ProfileKind.CONST_VEL, 6.0, 9.0, cfg, n_steps=10)
        np.testing.assert_allclose(roll[0], agent.trajectory.xy[4])

    def test_path_extended_beyond_recorded_end(self, cfg):
        # 10 recorded frames cover 27 m; an accelerating rollout needs more.
        agent = make_agent("a", straight_traj((0, 0), (6, 0), 10))
        roll = roll_from(agent, 0, ProfileKind.ACCEL, 6.0, 20.0, cfg, n_steps=20)
        assert roll[-1, 0] > 27.0
        np.testing.assert_allclose(roll[:, 1], 0.0, atol=1e-9)


class TestCurvatureCap:
    def test_lateral_limit_on_circle(self, cfg):
        # radius 10 circle: cap = sqrt(a_lat * R) = sqrt(11.8) ~ 3.44 m/s
        n = 60
        traj = circle_traj(10.0, 0.35, n)
        agent = make_agent("a", traj)
        roll = roll_from(agent, 0, ProfileKind.ACCEL, 3.0, 12.0, cfg, n_steps=20)
        step = np.hypot(*np.diff(roll, axis=0).T)
        v_cap = np.sqrt(cfg.a_lat_max * 10.0)
        # speeds within the recorded arc never exceed the lateral limit
        arc_len = 10.0 * 0.35 * 0.5 * (n - 1)
        dist = np.cumsum(step)
        inside = dist < arc_len * 0.8
        assert np.all(step[inside] / 0.5 <= v_cap * 1.05)

    def test_straight_path_unaffected(self, cfg):
        agent = make_agent("a", straight_traj((0, 0), (8, 0), 30))
        roll = roll_from(agent, 0, ProfileKind.CONST_VEL, 8.0, 8.0, cfg, n_steps=20)
        np.testing.assert_allclose(np.diff(roll[:, 0]), 4.0, atol=1e-9)


class TestSceneSpeed:
    def test_max_scene_speed(self):
        scene = crossing_scene(v_a=8.0, v_b=5.0)
        assert max_scene_speed(scene) == pytest.approx(8.0)


class TestFeasibleSets:
    def test_early_frame_has_both_orders(self, cfg):
        scene = crossing_scene(n=30)
        pair = filter_scene_with_rejections(scene, cfg)[0][0]
        feas = interaction_timeline(scene, pair, cfg).h_feas[0]
        assert feas == frozenset({HomotopyClass.CW, HomotopyClass.CCW})

    def test_late_frame_single_order(self, cfg):
        scene = crossing_scene(n=30)
        pair = filter_scene_with_rejections(scene, cfg)[0][0]
        tl = interaction_timeline(scene, pair, cfg)
        feas = tl.h_feas[tl.collapse_idx]
        assert len(feas) == 1


class TestTimeline:
    def test_crossing_timeline(self, cfg):
        scene = crossing_scene(n=30)
        pair = filter_scene_with_rejections(scene, cfg)[0][0]
        tl = interaction_timeline(scene, pair, cfg)
        sizes = [len(f) for f in tl.h_feas]
        # frozen oracle values for the canonical crossing scene
        assert tl.collapse_idx == 9
        assert tl.final_idx == 8
        assert tl.h_gt[tl.final_idx] is HomotopyClass.CW
        assert sizes[: tl.collapse_idx] == [2] * tl.collapse_idx
        assert all(s == 1 for s in sizes[tl.collapse_idx:])
        assert tl.t_h_collapse == tl.t_h_final + scene.dt
        assert tl.start_idx <= tl.final_idx
        assert tl.start_idx >= tl.final_idx - cfg.horizon_frames(scene.dt)

    def test_no_collapse_raises(self, cfg):
        # Symmetric simultaneous arrival: near the end every rollout ordering
        # collides, so no single class ever becomes inevitable.
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 15))
        b = make_agent("b", straight_traj((0, -40.6), (0, 6), 15))
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        pair = filter_scene_with_rejections(scene, cfg)[0][0]
        with pytest.raises(NoCollapse):
            interaction_timeline(scene, pair, cfg)

    def test_gt_class_in_feasible_set_before_collapse(self, cfg):
        scene = crossing_scene(n=30)
        pair = filter_scene_with_rejections(scene, cfg)[0][0]
        tl = interaction_timeline(scene, pair, cfg)
        for i in range(tl.collapse_idx, len(tl.h_feas)):
            assert tl.h_gt[i] in tl.h_feas[i] or len(tl.h_feas[i]) == 0

    def test_roll_stack_has_two_profile_slots(self, cfg, monkeypatch):
        """The timeline's one roll stack holds each start frame's ACCEL and
        DECEL rolls and no third slot: constant velocity is never rolled."""
        stacks = []
        rollout_rows = rollout.rollout_rows

        def recorded(*args):
            stacks.append(rollout_rows(*args))
            return stacks[-1]
        monkeypatch.setattr(rollout, "rollout_rows", recorded)
        scene = crossing_scene(n=30)
        pair = filter_scene_with_rejections(scene, cfg)[0][0]
        n = len(interaction_timeline(scene, pair, cfg).t)
        (stack,) = stacks
        # a's rows, then b's, one per start frame but the last
        assert stack.shape == (2 * (n - 1), 2, n, 2)


def reference_interaction_timeline(scene, pair, cfg):
    """The timeline as it was before the batched collision check: rolls and
    checks one frame at a time with the frozen per-pair collision check.
    Returns the timeline's fields, or the exception type it raises."""
    agent_a = scene.agent(pair.agent_a)
    agent_b = scene.agent(pair.agent_b)
    wa, wb, times = common_window(agent_a.trajectory, agent_b.trajectory)
    n = wa.n
    v_max = max_scene_speed(scene)
    _, speeds_a = trajectory_kinematics(wa)
    _, speeds_b = trajectory_kinematics(wb)
    dims_a = VehicleDims(agent_a.width, agent_a.length)
    dims_b = VehicleDims(agent_b.width, agent_b.length)
    kinds = (ProfileKind.ACCEL, ProfileKind.DECEL)
    feas = []
    for i in range(n - 1):
        n_steps = n - 1 - i
        rolls_a = rollout_rows([(wa, i, float(speeds_a[i]), n_steps)], kinds, v_max, cfg)[0]
        rolls_b = rollout_rows([(wb, i, float(speeds_b[i]), n_steps)], kinds, v_max, cfg)[0]
        feasible = set()
        for ka, kb in ((ProfileKind.DECEL, ProfileKind.ACCEL),
                       (ProfileKind.ACCEL, ProfileKind.DECEL)):
            ra, rb = rolls_a[kinds.index(ka)], rolls_b[kinds.index(kb)]
            if not ref_is_collision(as_traj(ra, wa.dt), as_traj(rb, wb.dt), dims_a, dims_b,
                                    cfg.interp_factor):
                feasible.add(classify_pair_windows(ra, rb, cfg.theta_hat))
        feas.append(frozenset(feasible))
    sizes = [len(f) for f in feas]
    collapse_idx = 0
    for i in range(len(sizes)):
        if all(s == 1 for s in sizes[i:]):
            collapse_idx = i
            break
    else:
        return NoCollapse
    two = [i for i, s in enumerate(sizes) if s == 2]
    if not two:
        return DegenerateInterval
    final_idx = two[-1]
    horizon = cfg.horizon_frames(wa.dt)
    gt = gt_mode_sequence(wa.xy, wb.xy, horizon, cfg.theta_hat)
    start_idx = final_idx
    for i in range(final_idx, max(0, final_idx - horizon) - 1, -1):
        if gt[i] != gt[final_idx]:
            break
        start_idx = i
    return (times, tuple(feas), tuple(gt), collapse_idx, final_idx, start_idx)


def _timeline_fields(scene, pair, cfg):
    try:
        tl = interaction_timeline(scene, pair, cfg)
    except (NoCollapse, DegenerateInterval) as e:
        return type(e)
    return (tl.t, tl.h_feas, tl.h_gt, tl.collapse_idx, tl.final_idx, tl.start_idx)


def _assert_same_timeline(got, want, where):
    if isinstance(want, type):
        assert got is want, where
        return
    assert not isinstance(got, type), where
    assert np.array_equal(got[0], want[0]), where
    assert got[1:] == want[1:], where


class TestTimelineMatchesPerFrameReference:
    """The batched collision check gives every timeline field the per-frame
    loop gave, or the same exception."""

    @pytest.mark.parametrize("scene", [
        crossing_scene(),
        crossing_scene(v_a=8.0, v_b=5.0, gap_a=40.0, gap_b=37.0, scene_id="asym"),
        four_agent_scene(),
        crossing_scene(n=91, dt=0.1, gap_a=30, gap_b=36),
    ], ids=["crossing", "asym", "four", "crossing_10hz"])
    def test_golden_and_10hz_scenes(self, cfg, scene):
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        assert pairs
        for pair in pairs:
            _assert_same_timeline(_timeline_fields(scene, pair, cfg),
                                  reference_interaction_timeline(scene, pair, cfg), pair)

    def test_random_crossings(self):
        outcomes = set()
        for seed in range(12):
            scene = random_crossing_scene(seed)
            cfg = EvalConfig(interp_factor=(1, 2, 4)[seed % 3])
            for pair in filter_scene_with_rejections(scene, cfg)[0]:
                want = reference_interaction_timeline(scene, pair, cfg)
                _assert_same_timeline(_timeline_fields(scene, pair, cfg), want, (seed, pair))
                outcomes.add(want if isinstance(want, type) else "timeline")
        # the corpus reaches a collapse and at least one raising outcome
        assert "timeline" in outcomes and len(outcomes) > 1
