from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    CriticalPair,
    DegenerateInterval,
    EvalConfig,
    HomotopyClass,
    InteractionTimeline,
    NoCollapse,
    PathRollout,
    ProfileKind,
    Scene,
    Trajectory,
    filter_scene_with_rejections,
    interaction_timeline,
    interaction_timelines,
    max_scene_speed,
    validate_scene,
)
from interaction_eval.collision import VehicleDims
from interaction_eval.homotopy import classify_pair_windows, gt_mode_sequence
from interaction_eval import collision, rollout
from interaction_eval.rollout import rollout_rows
from interaction_eval.types import common_window, trajectory_kinematics

from conftest import (
    _ARMS,
    DT,
    as_traj,
    busy_scene,
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
        # a's rows, then b's, one per start frame but the last, back to
        # back: the roll from frame i holds n - i samples
        assert stack.shape == (2, 2 * sum(range(2, n + 1)), 2)


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
        rolls_a = rollout_rows([(wa, i, float(speeds_a[i]), n_steps)], kinds, v_max, cfg)
        rolls_b = rollout_rows([(wb, i, float(speeds_b[i]), n_steps)], kinds, v_max, cfg)
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


def _fields(tl):
    """A timeline's fields, or the type of the exception given in its place."""
    if isinstance(tl, Exception):
        return type(tl)
    return (tl.t, tl.h_feas, tl.h_gt, tl.collapse_idx, tl.final_idx, tl.start_idx)


def _timeline_fields(scene, pair, cfg):
    try:
        return _fields(interaction_timeline(scene, pair, cfg))
    except (NoCollapse, DegenerateInterval) as e:
        return _fields(e)


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


@st.composite
def shared_window_scenes(draw):
    """A 2 Hz scene of 3-5 agents on a common frame grid, and a list of its
    agent pairs in which agents recur. Each agent is seen from frame 0, 1
    or 3 to frame 3, n - 2 or n - 1, so that pair windows coincide, overlap
    and differ, and a window may hold one sample. An agent drives straight
    along an arm of a crossing, is parked, drives and then parks (its stopped
    rows keep one point of path and take the window's heading), or circles
    at 6-9 m/s on a radius of 5-8 m, where the lateral speed cap binds.
    Vehicle sizes differ from agent to agent."""
    n = draw(st.integers(8, 14))
    agents = []
    for k in range(draw(st.integers(3, 5))):
        s0 = draw(st.sampled_from([0, 1, 3]))
        end = draw(st.sampled_from([e for e in (3, n - 2, n - 1) if e > s0]))
        frames = np.arange(s0, end + 1)
        (sx, sy), (ox, oy), (hx, hy) = _ARMS[draw(st.integers(0, 3))]
        kind = draw(st.sampled_from(["straight", "straight", "parked", "drive_park", "curve"]))
        speed = draw(st.floats(3.0, 9.0))
        # at the crossing at 2-4 s, unless it parks first
        gap = speed * draw(st.floats(2.0, 4.0))
        start = np.array([sx * gap + ox, sy * gap + oy])
        if kind == "curve":
            radius = draw(st.floats(5.0, 8.0))
            th = draw(st.floats(6.0, 9.0)) / radius * DT * frames + draw(st.floats(0, 6.3))
            xy = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
        else:
            moved = {"straight": frames, "parked": 0 * frames,
                     "drive_park": np.minimum(frames, draw(st.integers(1, n - 2)))}[kind]
            xy = start + np.outer(speed * DT * moved, (hx, hy))
        width = draw(st.floats(1.5, 2.6))
        agents.append(make_agent(f"a{k}", Trajectory(t=DT * frames, xy=xy, dt=DT), width=width,
                                 length=width + draw(st.floats(0.0, 4.0))))
    scene = validate_scene(Scene(scene_id="shared", dt=DT, agents=tuple(agents)))
    ids = [a.id for a in agents]
    combos = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(combos + [(b, a) for a, b in combos]),
                           min_size=1, max_size=8))
    return scene, [CriticalPair(a, b, 0.0, 0.0, 0.0, 0.0) for a, b in chosen]


def _bits(*values):
    return tuple(np.array(values, dtype=float).view(np.int64).tolist())


def _roll_key(scene, traj, start):
    """A timeline row's key, from the track it is rolled along: the agent
    whose samples the window holds, the timestamps of its start and of the
    window's end, and the bits of its start speed and kinematic heading."""
    (agent,) = [a for a in scene.agents if np.shares_memory(a.trajectory.xy, traj.xy)]
    headings, speeds = trajectory_kinematics(traj)
    return (agent.id, *_bits(traj.t[start], traj.t[-1], speeds[start], headings[start]))


class TestSceneStage:
    """``interaction_timelines`` over a scene's pairs gives each pair what
    the frozen per-pair reference gives it, and rolls each distinct row
    once."""

    @staticmethod
    def check(scene, pairs, cfg):
        """Each pair's outcome against the reference, and the one
        ``rollout_rows`` call against the keys of every pair's rows; returns
        the keys of the rows it rolled."""
        calls = []

        def spy(rows, *args):
            calls.append([(_roll_key(scene, traj, start), n_steps == traj.n - 1 - start)
                          for traj, start, _, n_steps in rows])
            return rollout_rows(rows, *args)
        with mock.patch.object(rollout, "rollout_rows", spy):
            got = interaction_timelines(scene, pairs, cfg)
        assert len(got) == len(pairs)
        want_keys = set()
        for pair, tl in zip(pairs, got):
            wa, wb, _ = common_window(scene.agent(pair.agent_a).trajectory,
                                      scene.agent(pair.agent_b).trajectory)
            if wa.n < 2:
                assert isinstance(tl, DegenerateInterval), pair
                continue
            want_keys |= {_roll_key(scene, w, i) for w in (wa, wb) for i in range(wa.n - 1)}
            assert isinstance(tl, (InteractionTimeline, NoCollapse, DegenerateInterval)), pair
            _assert_same_timeline(_fields(tl), reference_interaction_timeline(scene, pair, cfg),
                                  pair)
        if not want_keys:
            assert calls == []
            return []
        # one roll per distinct key, in one call
        (rolled,) = calls
        assert all(steps_ok for _, steps_ok in rolled)
        keys = [key for key, _ in rolled]
        assert len(set(keys)) == len(keys)
        assert set(keys) == want_keys
        return keys

    @given(shared_window_scenes(), st.sampled_from([1, 2, 4]), st.sampled_from([None, 1, 100]))
    @settings(max_examples=100, deadline=None)
    def test_stage_equals_per_pair_reference_property(self, case, interp_factor, budget):
        """Also with collision checks in runs of one pair, or of a few."""
        with mock.patch.object(collision, "_CHUNK_SAMPLES", budget or collision._CHUNK_SAMPLES):
            self.check(*case, EvalConfig(interp_factor=interp_factor))

    def test_stopped_rows_keyed_on_heading(self, cfg):
        """p drives north and parks at frame 2. x is seen from frame 3 and y
        from frame 0, both to the end, so both of p's windows end together
        and hold p's parked rows from frame 3 on, at v0 = 0 and with one
        point of path left. The late window has no heading yet (0) and the
        early one carries north (pi / 2): the rows differ only there, and
        each is rolled."""
        frames = np.arange(12)
        p = make_agent("p", Trajectory(t=DT * frames, dt=DT, xy=np.stack(
            [np.full(12, 2.0), -6.0 + 2.0 * np.minimum(frames, 2)], axis=1)))
        x = make_agent("x", straight_traj((-20.0, -2.0), (6.0, 0.0), 9, t0=3 * DT))
        y = make_agent("y", straight_traj((30.0, 2.0), (-6.0, 0.0), 12))
        scene = validate_scene(Scene(scene_id="parks", dt=DT, agents=(p, x, y)))
        pairs = [CriticalPair(a, b, 0.0, 0.0, 0.0, 0.0) for a, b in (("p", "x"), ("p", "y"))]
        keys = self.check(scene, pairs, cfg)
        parked = [key for key in keys if key[0] == "p" and key[3] == 0]
        assert len(parked) == 2 * 8
        assert len({key[:4] for key in parked}) == 8

    def test_busy_scene_rows_shared(self, cfg):
        """On the busy crossing, where every window is the whole scene, one
        call rolls each agent's rows once, and the timelines equal those of
        the one-pair stage."""
        scene = busy_scene()
        pairs = filter_scene_with_rejections(scene, cfg)[0]
        sizes = []

        def spy(rows, *args):
            sizes.append(len(rows))
            return rollout_rows(rows, *args)
        with mock.patch.object(rollout, "rollout_rows", spy):
            got = interaction_timelines(scene, pairs, cfg)
        # the 24 pairs' 4,320 rows hold each agent's 90 start frames once
        assert len(pairs) == 24
        assert sizes == [12 * 90]
        for tl, pair in zip(got[::5], pairs[::5]):
            _assert_same_timeline(_fields(tl), _timeline_fields(scene, pair, cfg), pair)
