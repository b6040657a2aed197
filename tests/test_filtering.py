import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    ConfigError,
    CriticalPair,
    EmptyOverlap,
    EvalConfig,
    PairRejection,
    RejectReason,
    Scene,
    Trajectory,
    analyse_scene,
    classify_pair,
    filter_scene_with_rejections,
    resample_trajectory,
    validate_scene,
)
from interaction_eval import filtering
from interaction_eval.types import common_window

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


class TestPathSharing:
    def test_matches_brute_force(self, cfg):
        scene = crossing_scene(n=30)
        a, b = scene.agents
        for factor in (1, 3, 4):
            cfg_f = dataclasses.replace(cfg, interp_factor=factor)
            res = classify_pair(scene, "a", "b", cfg_f)
            assert isinstance(res, CriticalPair), factor
            exp_a, exp_b = brute_force_sharing(a.trajectory, b.trajectory, cfg_f)
            assert res.t_ps_a == a.trajectory.t[exp_a[0]], factor
            assert res.t_ps_b == b.trajectory.t[exp_b[0]], factor

    def test_first_share_times(self, cfg):
        res = classify_pair(crossing_scene(n=30), "a", "b", cfg)
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
        assert res.dt_ps == pytest.approx(2.0)

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
        strict = classify_pair(scene, "a", "b", dataclasses.replace(EvalConfig(), t_min=7.0))
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

    def test_repeated_id_is_one_agent(self, cfg):
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 30))
        again = make_agent("a", straight_traj((0, -52), (0, 6), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        scene = Scene(scene_id="s", dt=0.5, agents=(a, again, b))
        pairs, rejections = filter_scene_with_rejections(scene, cfg)
        assert [(p.agent_a, p.agent_b) for p in pairs] == [("a", "b")]
        assert rejections == []

    def test_pair_order_deterministic(self, cfg):
        a = make_agent("a", straight_traj((-40, 0), (6, 0), 30))
        b = make_agent("b", straight_traj((0, -52), (0, 6), 30))
        scene1 = validate_scene(Scene(scene_id="s", dt=0.5, agents=(a, b)))
        scene2 = validate_scene(Scene(scene_id="s", dt=0.5, agents=(b, a)))
        p1 = filter_scene_with_rejections(scene1, cfg)[0][0]
        p2 = filter_scene_with_rejections(scene2, cfg)[0][0]
        assert (p1.agent_a, p1.agent_b) == (p2.agent_a, p2.agent_b)


def full_matrix_classify_pair(scene, a, b, cfg):
    """Reference: classify_pair as it was before its SharedFromStart exit,
    deciding every pair from the full resampled distance matrix."""
    wa, wb, t = common_window(scene.agent(a).trajectory, scene.agent(b).trajectory)
    factor = cfg.interp_factor
    diff = (resample_trajectory(wa, factor).xy[:, None, :]
            - resample_trajectory(wb, factor).xy[None, :, :])
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    shared = d < cfg.d_collision
    rows = np.flatnonzero(shared.any(axis=1))
    if not rows.size:
        return PairRejection(a, b, RejectReason.NEVER_PATH_SHARING)
    cols = np.flatnonzero(shared.any(axis=0))
    t_ps_a = float(t[rows[0] // factor])
    t_ps_b = float(t[cols[0] // factor])
    t_min = cfg.t_min if cfg.t_min is not None else float(t[0])
    if t_ps_a <= t_min:
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=a)
    if t_ps_b <= t_min:
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=b)
    dt_ps = abs(t_ps_b - t_ps_a)
    if dt_ps > cfg.dt_ps_max:
        return PairRejection(a, b, RejectReason.TIME_GAP_TOO_LARGE, detail=f"{dt_ps:.3f}")
    return CriticalPair(agent_a=a, agent_b=b, t_ps_a=t_ps_a, t_ps_b=t_ps_b, dt_ps=dt_ps,
                        min_distance=float(d.diagonal().min()))


def reference_distances(xa, xb):
    """Frozen reference: ``filtering._distances`` as it was, the Euclidean
    distance of every row of ``xa`` to every row of ``xb``."""
    dx = np.subtract.outer(xa[:, 0], xb[:, 0])
    dy = np.subtract.outer(xa[:, 1], xb[:, 1])
    return np.sqrt(dx * dx + dy * dy)


def reference_classify_pair(scene, a, b, cfg):
    """Frozen reference: ``filtering.classify_pair`` as one full resampled
    distance matrix per pair, before the filter's stacked grid pass."""
    wa, wb, t = common_window(scene.agent(a).trajectory, scene.agent(b).trajectory)
    factor = cfg.interp_factor
    d = reference_distances(resample_trajectory(wa, factor).xy,
                            resample_trajectory(wb, factor).xy)
    shared = d < cfg.d_collision
    rows = np.flatnonzero(shared.any(axis=1))
    if not rows.size:  # one shared cell would give each agent a shared sample
        return PairRejection(a, b, RejectReason.NEVER_PATH_SHARING)
    cols = np.flatnonzero(shared.any(axis=0))
    t_ps_a = float(t[rows[0] // factor])
    t_ps_b = float(t[cols[0] // factor])
    t_min = cfg.t_min if cfg.t_min is not None else float(t[0])
    if t_ps_a <= t_min:
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=a)
    if t_ps_b <= t_min:
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=b)
    dt_ps = abs(t_ps_b - t_ps_a)
    if dt_ps > cfg.dt_ps_max:
        return PairRejection(a, b, RejectReason.TIME_GAP_TOO_LARGE, detail=f"{dt_ps:.3f}")
    return CriticalPair(agent_a=a, agent_b=b, t_ps_a=t_ps_a, t_ps_b=t_ps_b, dt_ps=dt_ps,
                        min_distance=float(d.diagonal().min()))


def brute_force_filter(scene, cfg):
    """Reference: the frozen per-pair matrix test on every pair, no
    scene-level pruning and no stack."""
    accepted, rejected = [], []
    for a, b in itertools.combinations(sorted(scene.agents_by_id), 2):
        try:
            result = reference_classify_pair(scene, a, b, cfg)
        except EmptyOverlap:
            result = PairRejection(a, b, RejectReason.NEVER_PATH_SHARING,
                                   detail="no co-observed window")
        (accepted if isinstance(result, CriticalPair) else rejected).append(result)
    return accepted, rejected


def straddle_crossing():
    """2 Hz right-angle crossing at 8 m/s: the recorded vertices stay 2.8 m
    apart, at (+-2, 0) and (0, +-2), but the resampled points meet at the origin."""
    a = make_agent("a", straight_traj((-34.0, 0.0), (8.0, 0.0), 30))
    b = make_agent("b", straight_traj((0.0, -42.0), (0.0, 8.0), 30))
    return a, b


def mixed_scene(seed):
    """The straddling crossing, agents that share no co-observed window or
    sit half a frame off the grid (near and far), and random straight movers."""
    rng = np.random.default_rng(seed)
    agents = list(straddle_crossing())
    agents.append(make_agent("late", straight_traj((300.0, 0.0), (5.0, 0.0), 10, t0=20.0)))
    agents.append(make_agent("offgrid_far", straight_traj((0.0, 400.0), (5.0, 0.0), 30, t0=0.25)))
    agents.append(make_agent("offgrid_near", straight_traj((-20.0, 1.0), (5.0, 0.0), 30, t0=0.25)))
    for k in range(12):
        heading = rng.uniform(0.0, 2.0 * np.pi)
        vel = rng.uniform(0.0, 12.0) * np.array([np.cos(heading), np.sin(heading)])
        start = rng.uniform(-60.0, 60.0, size=2) - 5.0 * vel
        first = int(rng.integers(0, 12))
        n = int(rng.integers(2, 30 - first))
        agents.append(make_agent(f"r{k:02d}", straight_traj(start, vel, n, t0=first * 0.5)))
    return validate_scene(Scene(scene_id=f"mixed-{seed}", dt=0.5, agents=tuple(agents)))


def lane_scene(seed, n_agents=30):
    """Platoons on four parallel lanes, 10 Hz, the odd lanes observed from
    frame 10, plus one crossing pair: 30 agents."""
    rng = np.random.default_rng(seed)
    dt = 0.1
    agents = [make_agent("xa", straight_traj((-30.0, 5.0), (9.0, 0.0), 41, dt=dt)),
              make_agent("xb", straight_traj((0.0, -25.0), (0.0, 8.0), 41, dt=dt))]
    for k in range(n_agents - 2):
        lane = k % 4
        gap = 18.0 * (k // 4) + rng.uniform(-1.0, 1.0)
        first = 0 if lane % 2 == 0 else 10
        start = (-200.0 + gap, 20.0 + 3.5 * lane)
        agents.append(make_agent(f"l{k:02d}", straight_traj(
            start, (8.0 + 0.5 * lane, 0.0), 31, t0=first * dt, dt=dt)))
    return validate_scene(Scene(scene_id=f"lanes-{seed}", dt=dt, agents=tuple(agents)))


def stage_pairs(scene, calls):
    """The (a, b) of each pair that the filter's stacked grid pass
    (``filtering._first_shared``) decides, from the rows of its windows in
    the filter's layout (agents sorted by id, back to back)."""
    ids = sorted(scene.agents_by_id)
    ends = np.cumsum([scene.agent(aid).trajectory.n for aid in ids])
    return [(ids[int(np.searchsorted(ends, ra, "right"))],
             ids[int(np.searchsorted(ends, rb, "right"))])
            for rows_a, rows_b in calls for ra, rb in zip(rows_a, rows_b)]


class TestScenePrune:
    """filter_scene_with_rejections settles the pairs whose samples stay
    apart before its stacked grid pass; the result must equal the frozen
    per-pair matrix on every pair."""

    @pytest.mark.parametrize("factor", [1, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_brute_force_mixed(self, factor, seed):
        scene = mixed_scene(seed)
        cfg = EvalConfig(interp_factor=factor)
        assert filter_scene_with_rejections(scene, cfg) == brute_force_filter(scene, cfg)

    @pytest.mark.parametrize("factor", [1, 3, 4])
    def test_equals_brute_force_lanes(self, factor):
        scene = lane_scene(7)
        cfg = EvalConfig(interp_factor=factor)
        assert filter_scene_with_rejections(scene, cfg) == brute_force_filter(scene, cfg)

    @pytest.mark.parametrize("factor,expected", [(1, RejectReason.NEVER_PATH_SHARING),
                                                 (3, None), (4, None)])
    def test_straddling_vertices(self, factor, expected):
        a, b = straddle_crossing()
        scene = validate_scene(Scene(scene_id="straddle", dt=0.5, agents=(a, b)))
        cfg = EvalConfig(interp_factor=factor)
        accepted, rejected = filter_scene_with_rejections(scene, cfg)
        if expected is None:
            assert [(p.agent_a, p.agent_b) for p in accepted] == [("a", "b")]
        else:
            assert [r.reason for r in rejected] == [expected]

    def test_no_window_and_off_grid_keep_their_detail(self, cfg):
        _, rejected = filter_scene_with_rejections(mixed_scene(0), cfg)
        detail = {frozenset((r.agent_a, r.agent_b)): r.detail for r in rejected}
        assert detail[frozenset(("a", "late"))] == "no co-observed window"
        assert detail[frozenset(("a", "offgrid_far"))] == "no co-observed window"
        assert detail[frozenset(("late", "offgrid_far"))] == "no co-observed window"

    @pytest.fixture
    def stage_calls(self, monkeypatch):
        """The (rows_a, rows_b) of every stacked grid pass the filter makes."""
        calls = []
        first_shared = filtering._first_shared

        def spying(t, xy, rows_a, rows_b, count, cfg):
            calls.append((rows_a.copy(), rows_b.copy()))
            return first_shared(t, xy, rows_a, rows_b, count, cfg)

        monkeypatch.setattr(filtering, "_first_shared", spying)
        return calls

    def test_prunes_most_lane_pairs(self, cfg, stage_calls):
        scene = lane_scene(7)
        accepted, rejected = filter_scene_with_rejections(scene, cfg)
        assert len(accepted) + len(rejected) == 30 * 29 // 2
        assert len(stage_pairs(scene, stage_calls)) < 60

    @pytest.mark.parametrize("scene", [lane_scene(7), mixed_scene(0)], ids=["lanes", "mixed"])
    def test_classify_pair_only_for_undecided_pairs(self, cfg, stage_calls, scene):
        # a pair reaches the stacked grid pass only when it has a
        # co-observed window, the scene-level bound does not prune it and
        # its early rows share no path; a pair without a window is rejected
        # before it, with its detail
        trajs = {aid: a.trajectory for aid, a in scene.agents_by_id.items()}
        limit = (cfg.d_collision + filtering._PRUNE_MARGIN
                 + filtering._PRUNE_REL * max(np.abs(tr.xy).max() for tr in trajs.values()))
        half = {aid: np.hypot(*np.diff(tr.xy, axis=0).T).max() / 2.0
                for aid, tr in trajs.items()}
        _, reference = brute_force_filter(scene, cfg)
        shared = {(r.agent_a, r.agent_b) for r in reference
                  if r.reason is RejectReason.SHARED_FROM_START}
        undecided, windowless = set(), set()
        for a, b in itertools.combinations(sorted(trajs), 2):
            diff = trajs[a].xy[:, None, :] - trajs[b].xy[None, :, :]
            bound = np.sqrt(np.sum(diff * diff, axis=-1)).min() - half[a] - half[b]
            try:
                common_window(trajs[a], trajs[b])
            except EmptyOverlap:
                windowless.add((a, b))
                continue
            if not bound > limit and (a, b) not in shared:
                undecided.add((a, b))
        _, rejected = filter_scene_with_rejections(scene, cfg)
        calls = stage_pairs(scene, stage_calls)
        assert len(calls) == len(set(calls))
        assert set(calls) == undecided
        assert windowless == {(r.agent_a, r.agent_b) for r in rejected
                              if r.detail == "no co-observed window"}

    def test_nan_sample_never_prunes(self, cfg, stage_calls):
        far = straight_traj((500.0, 500.0), (5.0, 0.0), 30)
        xy = far.xy.copy()
        xy[7] = np.nan
        bad = make_agent("z", Trajectory(t=far.t, xy=xy, dt=far.dt))
        scene = Scene(scene_id="nan", dt=0.5, agents=crossing_scene().agents + (bad,))
        assert filter_scene_with_rejections(scene, cfg) == brute_force_filter(scene, cfg)
        calls = stage_pairs(scene, stage_calls)
        assert ("a", "z") in calls and ("b", "z") in calls


def pair_motion(rng, kind):
    """Samples, first frames, starts and velocities of two agents, ``kind``
    one of: a follower behind a leader in one lane (the leader first), a
    right-angle crossing, or two random straight movers. The agents start
    up to five frames apart, so the co-observed window begins after the
    first sample of one of them."""
    n = int(rng.integers(6, 40))
    first = [0, int(rng.integers(0, 6))]
    rng.shuffle(first)
    if kind == "follow":
        gap = rng.uniform(0.5, 30.0)
        starts = [(gap, 0.0), (0.0, rng.uniform(-1.0, 1.0))]
        vels = [(rng.uniform(0.0, 12.0), 0.0), (rng.uniform(0.0, 12.0), 0.0)]
    elif kind == "cross":
        starts = [(-rng.uniform(0.0, 60.0), 0.0), (0.0, -rng.uniform(0.0, 60.0))]
        vels = [(rng.uniform(1.0, 12.0), 0.0), (0.0, rng.uniform(1.0, 12.0))]
    else:
        starts = [rng.uniform(-20.0, 20.0, 2), rng.uniform(-20.0, 20.0, 2)]
        vels = [rng.uniform(-10.0, 10.0, 2), rng.uniform(-10.0, 10.0, 2)]
    return n, first, starts, vels


def random_pair(seed, kind, leader_first):
    """Two agents of ``pair_motion``; the leader gets the smaller id when
    ``leader_first``."""
    rng = np.random.default_rng(seed)
    dt = float(rng.choice([0.1, 0.5]))
    n, first, starts, vels = pair_motion(rng, kind)
    ids = ["a", "b"] if leader_first else ["b", "a"]
    agents = tuple(make_agent(aid, straight_traj(start, vel, n, t0=f * dt, dt=dt))
                   for aid, start, vel, f in zip(ids, starts, vels, first))
    return validate_scene(Scene(scene_id=f"pair-{seed}", dt=dt, agents=agents))


def t_min_for(scene, when, u):
    """A t_min before, inside or past the pair's co-observed window, or None."""
    _, _, t = common_window(scene.agent("a").trajectory, scene.agent("b").trajectory)
    return {"none": None,
            "before": float(t[0]) - 1.0 - 5.0 * u,
            "inside": float(t[0] + u * (t[-1] - t[0])),
            "past": float(t[-1]) + 0.01 + 5.0 * u}[when]


class TestSharedFromStartExit:
    """classify_pair and the filter's stacked SharedFromStart check must
    answer every pair as the full-matrix reference does, detail included."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           kind=st.sampled_from(["follow", "cross", "random"]),
           leader_first=st.booleans(),
           factor=st.sampled_from([1, 3, 4]),
           when=st.sampled_from(["none", "before", "inside", "past"]),
           u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_equals_full_matrix(self, seed, kind, leader_first, factor, when, u):
        scene = random_pair(seed, kind, leader_first)
        cfg = EvalConfig(interp_factor=factor, t_min=t_min_for(scene, when, u))
        assert classify_pair(scene, "a", "b", cfg) == full_matrix_classify_pair(
            scene, "a", "b", cfg)
        assert filter_scene_with_rejections(scene, cfg) == brute_force_filter(scene, cfg)

    @pytest.mark.parametrize("factor", [1, 3, 4])
    @pytest.mark.parametrize("leader,follower", [("a", "b"), ("b", "a")])
    def test_detail_names_the_leader(self, factor, leader, follower):
        # the leader's first samples lie on the follower's later path, not
        # the other way round, whichever id sorts first
        scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(
            make_agent(leader, straight_traj((10.0, 0.0), (6.0, 0.0), 30)),
            make_agent(follower, straight_traj((0.0, 0.0), (6.0, 0.0), 30)))))
        cfg = EvalConfig(interp_factor=factor)
        res = classify_pair(scene, "a", "b", cfg)
        assert res == PairRejection("a", "b", RejectReason.SHARED_FROM_START, detail=leader)
        assert res == full_matrix_classify_pair(scene, "a", "b", cfg)
        assert filter_scene_with_rejections(scene, cfg) == ([], [res])

    def test_nan_t_min_is_config_error(self):
        # a NaN t_min would fail every t <= t_min test and so never reject a
        # follower as SharedFromStart; the config refuses it instead
        with pytest.raises(ConfigError, match="t_min must be finite, got nan"):
            EvalConfig(t_min=float("nan"))


def random_scene(seed):
    """One to four groups of two ``pair_motion`` agents (a leader with
    either id first), around nearby origins, plus agents that come late,
    sit half a frame off the grid or share no window with the rest."""
    rng = np.random.default_rng(seed)
    dt = float(rng.choice([0.1, 0.5]))
    agents = []
    for g in range(int(rng.integers(1, 5))):
        origin = rng.uniform(-30.0, 30.0, 2)
        n, first, starts, vels = pair_motion(rng, rng.choice(["follow", "cross", "random"]))
        ids = [f"g{g}a", f"g{g}b"] if rng.random() < 0.5 else [f"g{g}b", f"g{g}a"]
        for aid, start, vel, f in zip(ids, starts, vels, first):
            agents.append(make_agent(aid, straight_traj(origin + start, vel, n,
                                                        t0=f * dt, dt=dt)))
    end = max(a.trajectory.t[-1] for a in agents)
    for k in range(int(rng.integers(0, 4))):
        kind = rng.choice(["late", "offgrid", "no window"])
        vel = rng.uniform(-10.0, 10.0, 2)
        t0 = {"late": float(rng.integers(0, 30)) * dt,
              "offgrid": float(rng.integers(0, 6)) * dt + dt / 2.0,
              "no window": end + dt * float(rng.integers(1, 4))}[kind]
        start = rng.uniform(-30.0, 30.0, 2) - 3.0 * vel
        agents.append(make_agent(f"x{k}", straight_traj(start, vel, int(rng.integers(2, 30)),
                                                        t0=t0, dt=dt)))
    return validate_scene(Scene(scene_id=f"scene-{seed}", dt=dt, agents=tuple(agents)))


class TestStackedFilter:
    """filter_scene_with_rejections decides every co-observed pair of a
    scene in one stack; it must equal the full-matrix test on every pair,
    detail included."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           factor=st.sampled_from([1, 3, 4]),
           when=st.sampled_from(["none", "before", "inside", "past"]),
           u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force(self, seed, factor, when, u):
        scene = random_scene(seed)
        lo = min(a.trajectory.t[0] for a in scene.agents)
        hi = max(a.trajectory.t[-1] for a in scene.agents)
        t_min = {"none": None,
                 "before": float(lo) - 1.0 - 5.0 * u,
                 "inside": float(lo + u * (hi - lo)),
                 "past": float(hi) + 0.01 + 5.0 * u}[when]
        cfg = EvalConfig(interp_factor=factor, t_min=t_min)
        assert filter_scene_with_rejections(scene, cfg) == brute_force_filter(scene, cfg)


def reference_never_sharing(xy, start, cfg):
    """Frozen reference: the scene-level bound of ``filtering._never_sharing``
    as one ``np.subtract.outer`` slab per agent, each agent's samples against
    the samples of every later agent."""
    k = len(start) - 1
    steps = np.zeros(len(xy))
    steps[:-1] = np.hypot(*np.diff(xy, axis=0).T)
    steps[start[1:] - 1] = 0.0  # no step from one agent's last sample to the next agent
    half = np.maximum.reduceat(steps, start[:-1]) / 2.0
    limit = cfg.d_collision + filtering._PRUNE_MARGIN + filtering._PRUNE_REL * np.abs(xy).max()
    bound = []
    for i in range(k - 1):
        rest = xy[start[i + 1]:]
        d2 = np.square(np.subtract.outer(xy[start[i]:start[i + 1], 0], rest[:, 0]))
        d2 += np.square(np.subtract.outer(xy[start[i]:start[i + 1], 1], rest[:, 1]))
        nearest = np.minimum.reduceat(d2.min(axis=0), start[i + 1:-1] - start[i + 1])
        bound.append(np.sqrt(nearest) - half[i] - half[i + 1:] > limit)
    return np.concatenate(bound)


def prune_scale(xy, start, cfg):
    """``_never_sharing``'s bound ``limit``, the largest half-step of an
    agent and the grid's cell side, recomputed as the program does."""
    steps = np.hypot(*np.diff(xy, axis=0).T)
    steps[start[1:-1] - 1] = 0.0
    scale = np.abs(xy).max()
    limit = cfg.d_collision + filtering._PRUNE_MARGIN + filtering._PRUNE_REL * scale
    reach = limit + steps.max(initial=0.0)
    return limit, steps.max(initial=0.0) / 2.0, reach + filtering._CELL_PAD * (reach + scale)


@st.composite
def prune_layouts(draw):
    """2-40 agents laid out back to back as ``(xy, start)``: straight or
    stopped movers of 1-12 samples in a box of 5-200 m, some moved by 1e6 m.
    One-sample agents (whose half-step is 0, so they leave the cell side as
    it is) sit on another agent's sample, on a cell boundary of the grid,
    or at the bound's own distance from another agent's sample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 40))
    box = draw(st.sampled_from([5.0, 30.0, 200.0]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    tracks = []
    for _ in range(k):
        n = 1 if rng.random() < 0.3 else int(rng.integers(2, 13))
        step = rng.normal(size=2) * draw(st.sampled_from([0.0, 0.3, 1.5, 6.0]))
        tracks.append(offset + rng.uniform(0.0, box, 2) + np.outer(np.arange(n), step))
    singles = [m for m, tr in enumerate(tracks) if len(tr) == 1]
    start = np.concatenate([[0], np.cumsum([len(tr) for tr in tracks])])
    xy = np.concatenate(tracks)
    limit, half, side = prune_scale(xy, start, EvalConfig())
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    for m in singles:
        other = xy[rng.integers(0, len(xy))]
        how = draw(st.sampled_from(["free", "coincident", "boundary", "bound", "reach"]))
        if how == "coincident":
            tracks[m] = other[None].copy()
        elif how == "boundary":  # (x - min) / side an integer, in the box
            cells = rng.integers(0, np.floor((hi - lo) / side) + 1)
            tracks[m] = np.minimum(lo + cells * side, hi)[None]
        elif how in ("bound", "reach"):
            gap = limit + half if how == "bound" else 2.0 * half + limit
            ulps = draw(st.integers(-2, 2))
            tracks[m] = (other + [gap * (1.0 + ulps * np.finfo(float).eps), 0.0])[None]
    return np.concatenate(tracks), start


class TestNeverSharingGrid:
    """``_never_sharing`` on its uniform grid against the frozen per-agent
    loop, bit for bit."""

    @given(prune_layouts(), st.sampled_from([0.5, 1.5, 4.0]),
           st.sampled_from([None, np.nan, np.inf, -np.inf]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_agent_loop_property(self, layout, d_collision, bad, data):
        xy, start = layout
        cfg = EvalConfig(d_collision=d_collision)
        if bad is not None:
            xy[data.draw(st.integers(0, len(xy) - 1)), data.draw(st.integers(0, 1))] = bad
        far = filtering._never_sharing(xy, start, cfg)
        k = len(start) - 1
        assert far.shape == (k * (k - 1) // 2,) and far.dtype == bool
        with np.errstate(invalid="ignore"):  # the loop meets inf - inf at an inf coordinate
            assert np.array_equal(far, reference_never_sharing(xy, start, cfg))
        if bad is not None:
            assert not far.any()

    def test_one_long_step_stays_within_the_loops_memory(self, cfg):
        """One agent's scene-spanning step makes one cell of the whole
        scene, so that every sample pair is a candidate: the candidates go
        in chunks, and the peak stays within a few of the loop's largest
        (samples of one agent) x (all samples) float64 slabs."""
        rng = np.random.default_rng(29)
        k, n = 60, 91
        tracks = [rng.uniform(-150.0, 150.0, 2)
                  + np.outer(np.arange(n), rng.normal(size=2) * 0.8) for _ in range(k)]
        tracks[0][n // 2:] += 400.0  # one step of about 565 m
        xy = np.concatenate(tracks)
        start = np.arange(k + 1) * n
        tracemalloc.start()
        try:
            far = filtering._never_sharing(xy, start, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(far, reference_never_sharing(xy, start, cfg))
        assert far.any() and not far.all()
        slab = 8 * n * len(xy)
        assert peak < 8 * slab

    @pytest.mark.parametrize("step", [0.7, 1.0, 2.3])
    @pytest.mark.parametrize("x0", [0.0, 3.0, 1e6, -1e9])
    def test_pairs_one_cell_side_apart(self, cfg, step, x0):
        """Agents a and b, both with the largest step, lie the bound's own
        distance apart (one unpadded cell side), to within a few ulps, and
        agent c one cell side to the left of a sets the grid's origin near
        a cell boundary. Rounding in the binning must not put a and b two
        cells apart: without the pad it does in some of these layouts."""
        gap = cfg.d_collision + step
        for _ in range(3):  # the bound's limit depends on the largest |coordinate|
            xy = np.array([[x0, 0.0], [x0, step], [x0 + gap, 0.0], [x0 + gap, step],
                           [x0 - gap, 0.0]])
            gap = prune_scale(xy, np.array([0, 2, 4, 5]), cfg)[0] + step
        start = np.array([0, 2, 4, 5])
        for b, c in itertools.product(range(-8, 9), range(-6, 7)):
            xy[2:4, 0] = x0 + gap + b * np.spacing(x0 + gap)
            xy[4, 0] = x0 - gap + c * np.spacing(x0 - gap)
            assert np.array_equal(filtering._never_sharing(xy, start, cfg),
                                  reference_never_sharing(xy, start, cfg))


def motion(rng, kind, n, dt):
    """Start, per-frame velocities and first-frame offset of two agents of
    ``kind``: a right-angle crossing, a merge (B comes in at an angle and
    joins A's lane), a follower behind its leader, a pair that drives in
    and parks, or two random movers. Either agent may stop for good at a
    random frame (it parks)."""
    vel = np.zeros((2, n - 1, 2))
    if kind == "cross":
        starts = np.array([[-rng.uniform(0.0, 60.0), 0.0], [0.0, -rng.uniform(0.0, 60.0)]])
        vel[0, :, 0] = rng.uniform(1.0, 12.0)
        vel[1, :, 1] = rng.uniform(1.0, 12.0)
    elif kind == "merge":
        starts = np.array([[-rng.uniform(0.0, 40.0), 0.0],
                           [-rng.uniform(0.0, 40.0), -rng.uniform(2.0, 15.0)]])
        vel[0, :, 0] = rng.uniform(1.0, 12.0)
        vel[1, :, 0] = rng.uniform(1.0, 12.0)
        turn = int(rng.integers(1, n))  # the frame B joins the lane
        vel[1, :turn, 1] = -starts[1, 1] / (turn * dt)
    elif kind == "follow":
        starts = np.array([[rng.uniform(0.5, 30.0), 0.0], [0.0, rng.uniform(-1.0, 1.0)]])
        vel[:, :, 0] = rng.uniform(0.0, 12.0, (2, 1))
    elif kind == "park":
        spot = rng.uniform(-3.0, 3.0, 2)
        starts = spot + rng.uniform(-40.0, 40.0, (2, 2))
        arrive = rng.integers(1, n, 2)
        for side in range(2):
            vel[side, :arrive[side]] = (spot - starts[side]) / (arrive[side] * dt)
    else:
        starts = rng.uniform(-20.0, 20.0, (2, 2))
        vel[:] = rng.uniform(-10.0, 10.0, (2, 1, 2))
    for side in range(2):
        if rng.random() < 0.3:
            vel[side, int(rng.integers(0, n - 1)):] = 0.0
    return starts, vel


def track(start, vel, t0, dt):
    """A trajectory from ``start`` with per-frame velocities ``vel``."""
    n = len(vel) + 1
    xy = np.asarray(start, dtype=float) + np.concatenate(
        [np.zeros((1, 2)), np.cumsum(vel * dt, axis=0)])
    return Trajectory(t=t0 + dt * np.arange(n), xy=xy, dt=dt)


def stage_scene(seed):
    """One to four groups of two ``motion`` agents around nearby origins
    (either id first, starting up to five frames apart), plus agents that
    come late, sit half a frame off the grid, share no window with the rest,
    or share one sample with another agent (a one-sample window)."""
    rng = np.random.default_rng(seed)
    dt = float(rng.choice([0.1, 0.5]))
    agents = []
    for g in range(int(rng.integers(1, 5))):
        origin = rng.uniform(-30.0, 30.0, 2)
        n = int(rng.integers(2, 40))
        starts, vel = motion(rng, rng.choice(["cross", "merge", "follow", "park", "random"]),
                             n, dt)
        first = [0, int(rng.integers(0, 6))]
        rng.shuffle(first)
        ids = [f"g{g}a", f"g{g}b"] if rng.random() < 0.5 else [f"g{g}b", f"g{g}a"]
        for aid, start, v, f in zip(ids, starts, vel, first):
            agents.append(make_agent(aid, track(origin + start, v, f * dt, dt)))
    end = max(a.trajectory.t[-1] for a in agents)
    for k in range(int(rng.integers(0, 4))):
        kind = rng.choice(["late", "offgrid", "no window", "one sample"])
        other = agents[int(rng.integers(0, len(agents)))].trajectory
        t0 = {"late": float(rng.integers(0, 30)) * dt,
              "offgrid": float(rng.integers(0, 6)) * dt + dt / 2.0,
              "no window": end + dt * float(rng.integers(1, 4)),
              "one sample": float(other.t[-1])}[kind]
        start = other.xy[-1] if kind == "one sample" else rng.uniform(-30.0, 30.0, 2)
        n = int(rng.integers(2, 30))
        v = np.tile(rng.uniform(-10.0, 10.0, 2), (n - 1, 1))
        agents.append(make_agent(f"x{k}", track(start + rng.uniform(-2.0, 2.0, 2), v, t0, dt)))
    return validate_scene(Scene(scene_id=f"stage-{seed}", dt=dt, agents=tuple(agents)))


def t_min_in(scene, when, u):
    """A t_min before, inside or past the scene's span, or None."""
    lo = min(a.trajectory.t[0] for a in scene.agents)
    hi = max(a.trajectory.t[-1] for a in scene.agents)
    return {"none": None,
            "before": float(lo) - 1.0 - 5.0 * u,
            "inside": float(lo + u * (hi - lo)),
            "past": float(hi) + 0.01 + 5.0 * u}[when]


class TestStackedStage:
    """The filter's stacked grid pass (``filtering._first_shared``) and the
    rest of the filter against the frozen per-pair matrix, record for
    record, bits of ``min_distance`` included."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           factor=st.sampled_from([1, 3, 4]),
           when=st.sampled_from(["none", "before", "inside", "past"]),
           u=st.floats(min_value=0.0, max_value=1.0),
           dt_ps_max=st.sampled_from([0.5, 2.0, 6.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_property(self, seed, factor, when, u, dt_ps_max):
        # a dt_ps_max below the default's 6 s makes TimeGapTooLarge common
        scene = stage_scene(seed)
        cfg = EvalConfig(interp_factor=factor, t_min=t_min_in(scene, when, u),
                         dt_ps_max=dt_ps_max)
        assert filter_scene_with_rejections(scene, cfg) == brute_force_filter(scene, cfg)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           factor=st.sampled_from([1, 3, 4]),
           when=st.sampled_from(["none", "before", "inside", "past"]),
           u=st.floats(min_value=0.0, max_value=1.0),
           dt_ps_max=st.sampled_from([0.5, 2.0, 6.0]))
    @settings(max_examples=300, deadline=None)
    def test_scene_evaluation_renders_the_reference_property(self, seed, factor, when, u,
                                                             dt_ps_max):
        """``analyse_scene`` keeps the filter's fate table; the rejections
        it renders from it equal the frozen matrix's record for record,
        details included, and its accepted pairs are the matrix's. Each
        accepted pair has a real timeline or a skip reason: a one-sample
        co-observed window, which a ``t_min`` before the scene lets the
        filter accept, is skipped as DegenerateInterval, not an abort."""
        scene = stage_scene(seed)
        cfg = EvalConfig(interp_factor=factor, t_min=t_min_in(scene, when, u),
                         dt_ps_max=dt_ps_max)
        accepted, rejected = brute_force_filter(scene, cfg)
        result = analyse_scene(scene, cfg)
        assert [ev.pair for ev in result.pairs] == accepted
        assert result.fates.n_rejected == len(rejected)
        assert result.rejections == rejected
        for ev in result.pairs:  # a timeline, or else a skip reason
            assert (ev.timeline is None) == (ev.skipped in ("NoCollapse", "DegenerateInterval"))

    @pytest.mark.parametrize("factor", [1, 4])
    @pytest.mark.parametrize("x0", [0.0, 3.0, 1e6, -1e9, 1e9])
    def test_closest_samples_across_a_cell_boundary(self, cfg, factor, x0):
        """A drives east along y = 0 to (x0, 0) and B north along x = xb to
        (xb, 0), both arriving at the last frame: their last samples are
        the closest, ``d_collision`` apart to within 2 ulps. A's first
        sample sets the grid's origin so that a cell boundary lies just
        past x0, midway or just before xb, to within a few ulps. The pair
        must be decided as the frozen matrix decides it, each way."""
        cfg = dataclasses.replace(cfg, interp_factor=factor)
        outcomes = set()
        for ulps in range(-2, 3):
            xb = x0 + cfg.d_collision
            for _ in range(abs(ulps)):
                xb = np.nextafter(xb, np.inf if ulps > 0 else -np.inf)
            for boundary in (x0, (x0 + xb) / 2.0, xb):
                origin = x0 - 30.0
                for _ in range(3):  # the cell side depends on the largest |coordinate|
                    scale = max(abs(origin), abs(xb), abs(x0) + 9.0, 9.0)
                    side = cfg.d_collision + filtering._CELL_PAD * (cfg.d_collision + scale)
                    origin = boundary - np.ceil((boundary - x0 + 30.0) / side) * side
                for c in range(-3, 4):
                    start = origin + c * np.spacing(origin)
                    xa = np.concatenate([[start], x0 - np.arange(8.0, -1.0, -1.0)])
                    a = make_agent("a", Trajectory(t=0.5 * np.arange(10), dt=0.5,
                                                   xy=np.stack([xa, np.zeros(10)], axis=1)))
                    b = make_agent("b", Trajectory(t=0.5 * np.arange(10), dt=0.5, xy=np.stack(
                        [np.full(10, xb), np.arange(-9.0, 1.0)], axis=1)))
                    scene = validate_scene(Scene(scene_id="edge", dt=0.5, agents=(a, b)))
                    got = filter_scene_with_rejections(scene, cfg)
                    assert got == brute_force_filter(scene, cfg)
                    outcomes.add(len(got[0]))
        assert outcomes == {0, 1}  # shared at some offsets, apart at others

    @pytest.mark.parametrize("d_collision", [1.1, 2.9])
    def test_distance_arithmetic_at_the_threshold(self, d_collision):
        """A drives east to the origin and B in along a ray to a point
        ``d_collision`` from it, to within 4 ulps, in a random direction:
        their last samples are the closest. For a ``d_collision`` whose
        square rounds, ``sqrt(d2) < d`` and ``d2 < d * d`` disagree on some
        of these pairs; the filter must answer as the matrix, which takes
        the square root."""
        rng = np.random.default_rng(30)
        cfg = EvalConfig(d_collision=d_collision)
        t = 0.5 * np.arange(10)
        outcomes = set()
        for _ in range(100):
            theta = rng.uniform(0.0, np.pi / 2)
            ray = np.array([np.cos(theta), np.sin(theta)])
            d = d_collision * (1.0 + int(rng.integers(-4, 5)) * np.finfo(float).eps)
            a = make_agent("a", Trajectory(t=t, dt=0.5, xy=np.stack(
                [np.arange(-9.0, 1.0), np.zeros(10)], axis=1)))
            b = make_agent("b", Trajectory(t=t, dt=0.5, xy=d * ray + np.outer(
                np.arange(9.0, -1.0, -1.0), ray)))
            scene = validate_scene(Scene(scene_id="ray", dt=0.5, agents=(a, b)))
            got = filter_scene_with_rejections(scene, cfg)
            assert got == brute_force_filter(scene, cfg)
            outcomes.add(len(got[0]))
        assert outcomes == {0, 1}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_never_shares(self, cfg, bad):
        """A non-finite sample of a crossing agent is never binned and
        shares no path; the filter answers as the frozen matrix does,
        without a numpy warning (the matrix meets inf - inf)."""
        scene = crossing_scene()
        a, b = scene.agents
        for row in (0, 12, 29):
            xy = a.trajectory.xy.copy()
            xy[row, row % 2] = bad
            bad_a = make_agent("a", Trajectory(t=a.trajectory.t, xy=xy, dt=a.trajectory.dt))
            scene = Scene(scene_id="bad", dt=0.5, agents=(bad_a, b))
            got = filter_scene_with_rejections(scene, cfg)
            with np.errstate(invalid="ignore"):
                want = brute_force_filter(scene, cfg)
            if np.isnan(bad) and got[0]:  # NaN on the diagonal: np.min's NaN
                assert np.isnan(got[0][0].min_distance) and np.isnan(want[0][0].min_distance)
                got = ([dataclasses.replace(got[0][0], min_distance=0.0)], got[1])
                want = ([dataclasses.replace(want[0][0], min_distance=0.0)], want[1])
            assert got == want

    def test_empty_track_has_no_window(self, cfg):
        """An agent without samples shares no co-observed window with any
        other, whichever id sorts first."""
        empty = Trajectory(t=np.zeros(0), xy=np.zeros((0, 2)), dt=0.5)
        base = crossing_scene()
        for aid in ("0", "m", "z"):
            scene = Scene(scene_id="empty", dt=0.5, agents=base.agents + (make_agent(aid, empty),))
            accepted, rejected = filter_scene_with_rejections(scene, cfg)
            assert accepted == filter_scene_with_rejections(base, cfg)[0]
            assert sorted((r.agent_a, r.agent_b, r.detail) for r in rejected) == sorted(
                (*sorted((aid, other)), "no co-observed window") for other in ("a", "b"))

    def test_parked_pairs_stay_within_the_matrix_memory(self, cfg):
        """Six agents drive in from 30 m apart and park on one spot for the
        last 80 of 91 frames: each of the 15 stacked pairs has about 80% of
        its full 361 x 361 matrix as candidates. The candidates go in chunks
        of at most one such matrix, and the filter's peak stays within the
        bound the module docstring states: five matrices, plus twenty
        8-byte values per resampled sample of the stack."""
        n, k, dt = 91, 6, 0.1
        agents = []
        for j in range(k):
            corner = 30.0 * np.array([np.cos(2 * np.pi * j / k), np.sin(2 * np.pi * j / k)])
            xy = corner * (1.0 - np.minimum(np.arange(n) / 10.0, 1.0))[:, None]
            agents.append(make_agent(f"p{j}", Trajectory(t=dt * np.arange(n), xy=xy, dt=dt)))
        scene = validate_scene(Scene(scene_id="parked", dt=dt, agents=tuple(agents)))
        tracemalloc.start()
        try:
            accepted, rejected = filter_scene_with_rejections(scene, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (accepted, rejected) == brute_force_filter(scene, cfg)
        assert len(accepted) == k * (k - 1) // 2
        m = (n - 1) * cfg.interp_factor + 1
        samples = 2 * len(accepted) * m
        assert peak < 5 * 8 * m * m + 20 * 8 * samples
