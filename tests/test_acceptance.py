"""End-to-end acceptance gate.

Each test checks one headline property of the evaluation stack at a stated
tolerance and prints a single PASS/FAIL line. Expected values come from
closed-form physics, exhaustive enumeration, or independent brute-force
oracles implemented inside this module.
"""

import itertools
import math
import time

import numpy as np

from interaction_eval import (
    CriticalPair,
    DegenerateInterval,
    EvalConfig,
    HomotopyClass,
    JointPredictionSet,
    RejectReason,
    Scene,
    Trajectory,
    VehicleDims,
    classify_pair,
    displacement_metrics,
    filter_scene_with_rejections,
    frame_flags,
    interaction_timeline,
    is_collision,
    max_scene_speed,
    oracle_predict,
    pair_time_metrics,
    resample_trajectory,
    run_pipeline,
    save_scene,
    validate_scene,
)
from interaction_eval.collision import min_disk_distances
from interaction_eval.pipeline import _prediction_classes
from interaction_eval.rollout import ProfileKind, rollout_rows
from interaction_eval.types import agent_frame_index, trajectory_kinematics

from conftest import circle_traj, crossing_scene, make_agent, straight_traj, winding_angle

CW = HomotopyClass.CW
CCW = HomotopyClass.CCW


def announce(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. reference mode-table fixture through the metrics module


REFERENCE_TABLE = [
    # (frame, gt, ml, pred, feas) at 2 Hz; the pair narrowly resolves to CW
    (5, CW, CW, {CW}, {CCW, CW}),
    (6, CW, CW, {CW}, {CCW, CW}),
    (7, CW, CW, {CW}, {CCW, CW}),
    (8, CW, CW, {CW}, {CCW, CW}),
    (9, CW, CW, {CW}, {CCW, CW}),
    (10, CW, CW, {CW}, {CCW, CW}),
    (11, CW, CCW, {CCW, CW}, {CCW, CW}),
    (12, CW, CCW, {CCW, CW}, {CCW, CW}),
    (13, CW, CW, {CW}, {CCW, CW}),
    (14, CW, CW, {CW}, {CCW, CW}),
    (15, CW, CW, {CW}, {CCW, CW}),
    (16, CW, CW, {CW}, {CW}),
]


def test_reference_mode_table(capsys):
    t0 = time.perf_counter()
    flags = [frame_flags(f, gt, ml, frozenset(pred), frozenset(feas))
             for f, gt, ml, pred, feas in REFERENCE_TABLE]
    m = pair_time_metrics(flags, dt=0.5)
    elapsed = time.perf_counter() - t0
    ok = (
        m.dt_correct == 1.5
        and m.dt_covered is None
        and not m.consistent
        and abs(100.0 * m.collapse_rate - 81.8) <= 0.1
        and elapsed < 1.0
    )
    announce(capsys, "reference mode table",
             ok, f"dT_correct={m.dt_correct}s, covered=FromStart, "
                 f"collapse={100.0 * m.collapse_rate:.1f}%, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. winding-angle identities


def _random_pair(rng, n=30):
    a = np.cumsum(rng.normal(0.0, 1.0, (n, 2)), axis=0)
    b = 8.0 + np.cumsum(rng.normal(0.0, 1.0, (n, 2)), axis=0)
    return a, b


def _mirror(xy):
    """Reflection about the x-axis."""
    return xy * np.array([1.0, -1.0])


def test_winding_identities(capsys):
    """Loop, swap invariance, mirror-flip negation and concatenation.

    The winding angle sums wrapped increments of the bearing of p_A - p_B.
    Swapping the agents negates that vector, which adds pi to every bearing
    and leaves each wrapped increment, hence the winding, unchanged.
    Reflecting both paths negates every bearing, hence the winding.
    """
    t0 = time.perf_counter()
    n = 73
    loop = winding_angle(
        circle_traj(5.0, 2.0 * np.pi / ((n - 1) * 0.5), n).xy,
        straight_traj((0, 0), (0, 0), n).xy,
    )
    loop_err = abs(loop - 2.0 * np.pi)

    rng = np.random.default_rng(20240817)
    swap_err = mirror_err = concat_err = 0.0
    for _ in range(1000):
        ta, tb = _random_pair(rng)
        fwd = winding_angle(ta, tb)
        rev = winding_angle(tb, ta)
        swap_err = max(swap_err, abs(rev - fwd))
        mirrored = winding_angle(_mirror(ta), _mirror(tb))
        mirror_err = max(mirror_err, abs(mirrored + fwd))
        first = winding_angle(ta[0:16], tb[0:16])
        second = winding_angle(ta[15:30], tb[15:30])
        concat_err = max(concat_err, abs(fwd - first - second))
    elapsed = time.perf_counter() - t0
    ok = (loop_err <= 1e-9 and swap_err <= 1e-12 and mirror_err <= 1e-12
          and concat_err <= 1e-12 and elapsed < 5.0)
    announce(capsys, "winding identities",
             ok, f"loop_err={loop_err:.1e}, swap_err={swap_err:.1e}, "
                 f"mirror_err={mirror_err:.1e}, "
                 f"concat_err={concat_err:.1e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. constant-velocity model always collapses two-feasible frames


def test_cv_unimodal_collapse(capsys, tmp_path):
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    save_scene(crossing_scene(n=30, scene_id="x1"), scene_dir / "x1.json")
    save_scene(crossing_scene(v_a=7.0, gap_a=42.0, gap_b=56.0, n=28,
                              scene_id="x2"), scene_dir / "x2.json")
    save_scene(crossing_scene(v_a=6.0, v_b=4.5, gap_a=40.0, gap_b=48.0, n=32,
                              scene_id="x3"), scene_dir / "x3.json")
    report = run_pipeline(scene_dir, "cv", tmp_path / "out", EvalConfig())
    ok = report.mode_collapse_rate == 100.0 and report.n_pairs == 3
    announce(capsys, "constant-velocity unimodal collapse",
             ok, f"collapse_rate={report.mode_collapse_rate}% over "
                 f"{report.n_pairs} pairs")


# ---------------------------------------------------------------------------
# 4. oracle covers both orders at every pre-IHS frame


def _exhaustive_top_k_classes(scene, pair, frame, k, cfg):
    """Independent enumeration of all 3x3 profile combinations."""
    v_max = max_scene_speed(scene)
    horizon = cfg.horizon_frames(scene.dt)
    agents = {a.id: a for a in scene.agents}
    kinds = (ProfileKind.ACCEL, ProfileKind.CONST_VEL, ProfileKind.DECEL)
    rolls = {}
    for aid in (pair.agent_a, pair.agent_b):
        traj = agents[aid].trajectory
        i = agent_frame_index(scene, agents[aid], frame)
        v0 = float(trajectory_kinematics(traj)[1][i])
        rolls[aid] = rollout_rows([(traj, i, v0, horizon)], kinds, v_max, cfg)
    dims = {aid: VehicleDims(agents[aid].width, agents[aid].length)
            for aid in rolls}
    ranked = []
    for ka, kb in itertools.product(kinds, kinds):
        ra, rb = rolls[pair.agent_a][kinds.index(ka)], rolls[pair.agent_b][kinds.index(kb)]
        if is_collision(ra, rb, dims[pair.agent_a], dims[pair.agent_b],
                        cfg.interp_factor):
            continue
        speeds = [np.hypot(*np.diff(r, axis=0).T).mean() / scene.dt
                  for r in (ra, rb)]
        d = winding_angle(ra, rb)
        ranked.append((-float(np.mean(speeds)), (ka.value, kb.value),
                       CW if d < 0 else CCW))
    ranked.sort(key=lambda r: (r[0], r[1]))
    return {cls for _, _, cls in ranked[:k]}


def test_oracle_coverage(capsys):
    t0 = time.perf_counter()
    cfg = EvalConfig()
    scene = crossing_scene(v_a=6.0, v_b=4.5, gap_a=40.0, gap_b=48.0, n=32)
    pairs = filter_scene_with_rejections(scene, cfg)[0]
    pair = pairs[0]
    tl = interaction_timeline(scene, pair, cfg)
    covered = []
    collapsed = []
    enumeration_agrees = True
    for i in range(tl.start_idx, tl.final_idx + 1):
        pred = oracle_predict(scene, [i], pairs, 5, cfg)[i]
        h_ml, h_pred = _prediction_classes(pred, pair, cfg.theta_hat)
        covered.append(tl.h_gt[i] in h_pred)
        collapsed.append(not tl.h_feas[i] <= h_pred)
        if set(h_pred) != _exhaustive_top_k_classes(scene, pair, i, 5, cfg):
            enumeration_agrees = False
    elapsed = time.perf_counter() - t0
    both_feasible = all(len(tl.h_feas[i]) == 2
                        for i in range(tl.start_idx, tl.final_idx + 1))
    ok = (both_feasible and all(covered) and not any(collapsed)
          and enumeration_agrees and elapsed < 10.0)
    announce(capsys, "oracle mode coverage",
             ok, f"covered={100.0 * np.mean(covered):.1f}%, "
                 f"collapse={100.0 * np.mean(collapsed):.1f}%, "
                 f"enumeration_agrees={enumeration_agrees}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. IHS frame matches braking physics on a parameterized crossing


def test_ihs_braking_physics(capsys):
    t0 = time.perf_counter()
    cfg = EvalConfig()
    dt, a_lon = 0.5, cfg.a_lon_max
    # small footprints align the geometric stopping clearance with the
    # 1.5 m shared-path threshold: length/2 + width/2 = 1.5
    width, length = 1.0, 2.0
    hits = total = 0
    mismatches = []
    for v in (4.0, 6.0, 8.0, 10.0):
        for gap in (10.0, 20.0, 30.0, 40.0):
            t_arrive = gap / v
            n = int(math.ceil((t_arrive + 5.0) / dt)) + 1
            gap_b = 6.0 * (t_arrive + 3.0)
            a = make_agent("a", straight_traj((-gap, 0), (v, 0), n, dt=dt),
                           width=width, length=length)
            b = make_agent("b", straight_traj((0, -gap_b), (0, 6.0), n, dt=dt),
                           width=width, length=length)
            scene = validate_scene(
                Scene(scene_id=f"grid_{v}_{gap}", dt=dt, agents=(a, b)))
            pair = filter_scene_with_rejections(scene, cfg)[0][0]
            # analytic: the yielding order dies when the remaining distance
            # to the shared path drops below the braking distance v^2/(2a)
            i_ana = 0
            while (gap - v * i_ana * dt) - 1.5 >= v * v / (2.0 * a_lon):
                i_ana += 1
            try:
                i_sim = interaction_timeline(scene, pair, cfg).collapse_idx
            except DegenerateInterval:
                i_sim = 0  # collapsed before the first frame
            total += 1
            if abs(i_sim - i_ana) <= 1:
                hits += 1
            else:
                mismatches.append((v, gap, i_sim, i_ana))
    elapsed = time.perf_counter() - t0
    ok = hits / total >= 0.95 and elapsed < 30.0
    announce(capsys, "IHS braking physics",
             ok, f"{hits}/{total} grid cells within one frame, {elapsed:.2f}s"
                 + (f", mismatches={mismatches}" if mismatches else ""))


# ---------------------------------------------------------------------------
# 6. filter semantics with brute-force oracles


def _brute_force_classify(scene, a_id, b_id, cfg):
    """Independent re-derivation of the filter decision by nested loops."""
    ta = scene.agent(a_id).trajectory
    tb = scene.agent(b_id).trajectory
    lo = max(ta.t[0], tb.t[0])
    hi = min(ta.t[-1], tb.t[-1])
    ia = int(round((lo - ta.t[0]) / scene.dt))
    ib = int(round((lo - tb.t[0]) / scene.dt))
    m = int(round((hi - lo) / scene.dt)) + 1
    wa = ta.slice_frames(ia, ia + m)
    wb = tb.slice_frames(ib, ib + m)
    da = resample_trajectory(wa, cfg.interp_factor)
    db = resample_trajectory(wb, cfg.interp_factor)
    share_a, share_b = set(), set()
    for i in range(da.n):
        for j in range(db.n):
            if np.hypot(*(da.xy[i] - db.xy[j])) < cfg.d_collision:
                share_a.add(i // cfg.interp_factor)
                share_b.add(j // cfg.interp_factor)
    if not share_a or not share_b:
        return RejectReason.NEVER_PATH_SHARING
    t_a = float(wa.t[min(share_a)])
    t_b = float(wb.t[min(share_b)])
    t_min = cfg.t_min if cfg.t_min is not None else float(wa.t[0])
    if t_a <= t_min or t_b <= t_min:
        return RejectReason.SHARED_FROM_START
    if abs(t_a - t_b) > cfg.dt_ps_max:
        return RejectReason.TIME_GAP_TOO_LARGE
    return "accept"


def _merging_scene(dt=0.5, n=36):
    speed = 5.0
    pts = []
    pos = np.array([10.0 - 18.0 / np.sqrt(2), -18.0 / np.sqrt(2)])
    diag = np.array([1.0, 1.0]) / np.sqrt(2)
    east = np.array([1.0, 0.0])
    for _ in range(n):
        pts.append(pos.copy())
        step = diag if pos[1] < -1e-9 else east
        pos = pos + step * speed * dt
    b = make_agent("b", Trajectory(t=dt * np.arange(n), xy=np.array(pts), dt=dt))
    a = make_agent("a", straight_traj((-25, 0), (5, 0), n, dt=dt))
    return validate_scene(Scene(scene_id="merge", dt=dt, agents=(a, b)))


def test_filter_semantics(capsys):
    cfg = EvalConfig()
    cases = {
        "crossing": (crossing_scene(n=30), "accept"),
        "merging": (_merging_scene(), "accept"),
        "car_following": (
            validate_scene(Scene(scene_id="follow", dt=0.5, agents=(
                make_agent("a", straight_traj((10, 0), (6, 0), 30)),
                make_agent("b", straight_traj((0, 0), (6, 0), 30))))),
            RejectReason.SHARED_FROM_START,
        ),
        "parallel": (
            validate_scene(Scene(scene_id="parallel", dt=0.5, agents=(
                make_agent("a", straight_traj((0, 0), (6, 0), 30)),
                make_agent("b", straight_traj((0, 3), (6, 0), 30))))),
            RejectReason.NEVER_PATH_SHARING,
        ),
    }
    failures = []
    for name, (scene, expected) in cases.items():
        res = classify_pair(scene, "a", "b", cfg)
        got = "accept" if isinstance(res, CriticalPair) else res.reason
        brute = _brute_force_classify(scene, "a", "b", cfg)
        if got != expected:
            failures.append(f"{name}: got {got}, expected {expected}")
        if got != brute:
            failures.append(f"{name}: disagrees with brute force ({brute})")
    announce(capsys, "filter semantics", not failures,
             "; ".join(failures) if failures else
             "crossing/merging accepted, following/parallel rejected, "
             "brute-force agreement 100%")


# ---------------------------------------------------------------------------
# 7. three-disk collision vs dense rectangle-overlap oracle


def _rect_overlap_mc(pose_a, dims_a, pose_b, dims_b, step=0.04):
    """Dense point sampling of rectangle A tested against rectangle B."""
    (xa, ya, ha), (xb, yb, hb) = pose_a, pose_b
    xs = np.arange(-dims_a.length / 2, dims_a.length / 2 + step / 2, step)
    ys = np.arange(-dims_a.width / 2, dims_a.width / 2 + step / 2, step)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    c, s = np.cos(ha), np.sin(ha)
    world = pts @ np.array([[c, -s], [s, c]]).T + np.array([xa, ya])
    c, s = np.cos(hb), np.sin(hb)
    local = (world - np.array([xb, yb])) @ np.array([[c, s], [-s, c]]).T
    return bool(np.any((np.abs(local[:, 0]) <= dims_b.length / 2)
                       & (np.abs(local[:, 1]) <= dims_b.width / 2)))


def _pose_samples(x, y, h, step=0.05):
    """The two poses of a track that moves `step` metres along heading h."""
    return [(x, y, h), (x + step * np.cos(h), y + step * np.sin(h), h)]


def _pose_traj(poses, dt=0.5):
    xy = np.array([[x, y] for x, y, _ in poses])
    return Trajectory(t=dt * np.arange(len(poses)), xy=xy, dt=dt)


def _max_uncovered(dims):
    """Distance from the disks to the rectangle point farthest from them.

    Three disks of radius r = w/2 sit at the centre and at +-c, c = L/2 - r.
    The farthest point is either a corner, (sqrt(2) - 1) r away, or the
    side midway between two disk centres, sqrt((c/2)^2 + r^2) - r away.
    """
    r = dims.width / 2.0
    c = dims.length / 2.0 - r
    return max((math.sqrt(2.0) - 1.0) * r, math.hypot(c / 2.0, r) - r)


def test_collision_vs_rectangle_oracle(capsys):
    """The inscribed disks never report a collision the rectangles do not
    have, and miss a rectangle overlap only when the disks are within
    h_a + h_b of touching, h being each car's largest uncovered distance.

    The oracle samples rectangle A on a `step` grid, so it can miss a true
    overlap region; one holding a disk of diameter sqrt(2) * step always
    holds a grid point, which bounds the disk penetration it can miss.
    """
    step = 0.04
    rng = np.random.default_rng(20240817)
    false_alarms = bad_alarms = misses = bad_misses = outside_band = 0
    worst = worst_miss_share = 0.0
    n_overlap = 0
    for _ in range(1000):
        xa, ya, xb, yb = rng.uniform(-6.0, 6.0, 4)
        ha, hb = rng.uniform(-np.pi, np.pi, 2)
        dims_a = VehicleDims(rng.uniform(1.6, 2.2), rng.uniform(3.5, 5.0))
        dims_b = VehicleDims(rng.uniform(1.6, 2.2), rng.uniform(3.5, 5.0))
        poses_a, poses_b = _pose_samples(xa, ya, ha), _pose_samples(xb, yb, hb)
        ta, tb = _pose_traj(poses_a), _pose_traj(poses_b)
        disk = is_collision(ta.xy, tb.xy, dims_a, dims_b)
        rect = any(_rect_overlap_mc(pa, dims_a, pb, dims_b, step)
                   for pa, pb in zip(poses_a, poses_b))
        n_overlap += rect
        if disk == rect:
            continue
        gap = (min_disk_distances(ta.xy, tb.xy, np.array([ta.n]), dims_a.size, dims_b.size)[0]
               - (dims_a.radius + dims_b.radius))
        if abs(gap) >= 0.2:
            outside_band += 1
            worst = max(worst, abs(gap))
        if disk:
            false_alarms += 1
            bad_alarms += -gap >= math.sqrt(2.0) * step
        else:
            misses += 1
            bound = _max_uncovered(dims_a) + _max_uncovered(dims_b)
            bad_misses += gap > bound
            worst_miss_share = max(worst_miss_share, gap / bound)
    ok = bad_alarms == 0 and bad_misses == 0
    announce(capsys, "collision vs rectangle oracle",
             ok, f"{n_overlap} overlapping poses, "
                 f"{false_alarms} false alarm(s), {bad_alarms} beyond the grid, "
                 f"{misses} miss(es), "
                 f"{bad_misses} beyond h_a + h_b "
                 f"(worst at {100.0 * worst_miss_share:.0f}% of it), "
                 f"{outside_band} disagreement(s) outside the 0.2 m band"
                 + (f", worst margin {worst:.2f} m" if outside_band else ""))


# ---------------------------------------------------------------------------
# 8. displacement metrics vs brute force


def test_displacement_metrics(capsys):
    scene = crossing_scene(n=30)
    frame, horizon = 3, 12
    gts = {a.id: a.trajectory.xy[frame + 1: frame + 1 + horizon]
           for a in scene.agents}

    # uniform 1 m offset
    uniform = JointPredictionSet.from_samples(frame, [
        (1.0, {aid: gt + np.array([0.0, 1.0]) for aid, gt in gts.items()})])
    du = displacement_metrics([uniform], scene)
    exact = du.ml_ade == 1.0 and du.ml_fde == 1.0 and du.joint_min_ade == 1.0

    # K = 3 random joint samples vs brute force
    rng = np.random.default_rng(20240817)
    pred = JointPredictionSet.from_samples(frame, [
        (1.0 / 3.0, {aid: gt + rng.normal(0.0, 2.0, gt.shape) for aid, gt in gts.items()})
        for _ in range(3)])
    d = displacement_metrics([pred], scene)
    # each sample's future of each agent, by agent id
    samples = [{aid: xy[a] for a, aid in enumerate(pred.agent_ids)} for xy in pred.xy]

    per_sample_ade, per_sample_fde, per_agent_min = [], [], []
    for s in samples:
        errs = {aid: np.hypot(*(s[aid] - gts[aid]).T) for aid in gts}
        per_sample_ade.append(np.mean(np.concatenate(list(errs.values()))))
        per_sample_fde.append(np.mean([e[-1] for e in errs.values()]))
    brute_ade, brute_fde = min(per_sample_ade), min(per_sample_fde)
    mix_ade = np.mean([
        min(np.hypot(*(s[aid] - gts[aid]).T).mean() for s in samples)
        for aid in gts
    ])
    ade_err = abs(d.joint_min_ade - brute_ade)
    fde_err = abs(d.joint_min_fde - brute_fde)
    ok = exact and ade_err <= 1e-12 and fde_err <= 1e-12 and \
        d.joint_min_ade >= mix_ade - 1e-12
    announce(capsys, "displacement metrics",
             ok, f"uniform offset exact={exact}, joint-min err={ade_err:.1e}/"
                 f"{fde_err:.1e}, joint {d.joint_min_ade:.3f} >= "
                 f"mix-and-match {mix_ade:.3f}")
