"""Velocity-profile rollouts along ground-truth paths and the IHS search.

A rollout keeps an agent's recorded path and replaces only the speed
profile (constant acceleration, braking to a stop, or constant velocity),
subject to a longitudinal acceleration limit, a lateral acceleration limit
via path curvature, and a scene-wide speed cap. Enumerating the two
accelerate/decelerate orderings of a pair and discarding colliding ones
yields the set of feasible interaction classes per frame; the first frame
after which only one class remains feasible is the inevitable homotopy
state (IHS).

A roll integrates the speed profile in ``_SUBSTEPS`` substeps per frame.
Each substep advances by the closed-form integral of the clamped linear
profile until the speed cap (lateral acceleration on curvature, braked
back along the path) binds; where it binds, the substep is a trapezoid
step at the capped speeds. Closed-form stretches are array code: one
cumulative sum and one cap test for all their substeps. A straight path
has a flat cap that never binds, so its whole roll is one such stretch.

``rollout_rows`` rolls many (track, start frame) rows in one call: every
start frame of an IHS window, or every agent of an oracle frame. The rows
whose cap provably never binds skip the per-row path set-up and are summed
together, one row of one array each.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .collision import VehicleDims, collisions, disk_tracks
# the benchmark's tracer patches this name in this module
from .collision import is_collision  # noqa: F401
from .errors import DegenerateInterval, IndexOutOfRange, NoCollapse
from .filtering import CriticalPair
from .homotopy import HomotopyClass, gt_mode_sequence, homotopy_class, winding_rows
# the benchmark's tracer patches this name in this module
from .homotopy import classify_pair_windows  # noqa: F401
from .types import (
    _DEGENERATE_DISP,
    EvalConfig,
    Scene,
    Trajectory,
    common_window,
    trajectory_kinematics,
)

_KAPPA_MAX = 1.0 / 0.5  # curvature clamp, 1/m (0.5 m minimum turn radius)
_PATH_DS = 0.25  # arc-length grid spacing for curvature and caps, metres
_SUBSTEPS = 5  # integration substeps per frame


class ProfileKind(enum.Enum):
    ACCEL = "accel"
    DECEL = "decel"
    CONST_VEL = "const_vel"


# deterministic tie-break order for profile combinations
PROFILE_ORDER = {ProfileKind.ACCEL: 0, ProfileKind.CONST_VEL: 1, ProfileKind.DECEL: 2}

# what to roll: (track, start frame, start speed v0, n_steps, profiles)
RolloutRow = tuple[Trajectory, int, float, int, tuple[ProfileKind, ...]]


@dataclass(frozen=True)
class InteractionTimeline:
    """Per-frame feasible classes and the IHS bracketing for one pair."""

    t: np.ndarray  # co-observed timestamps
    h_feas: tuple[frozenset, ...]  # per frame, indices 0..n-2
    h_gt: tuple[HomotopyClass, ...]
    collapse_idx: int
    final_idx: int
    start_idx: int

    @property
    def t_h_collapse(self) -> float:
        return float(self.t[self.collapse_idx])

    @property
    def t_h_final(self) -> float:
        return float(self.t[self.final_idx])

    @property
    def t_h_start(self) -> float:
        return float(self.t[self.start_idx])


def max_scene_speed(scene: Scene) -> float:
    """Maximum finite-difference speed over all agents and frames, computed
    once per scene (``Scene.max_speed``)."""
    return scene.max_speed


def _menger_curvature(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Reciprocal circumscribed-circle radius of point triples, each (N, 2).

    0 where two points of a triple lie within ``_DEGENERATE_DISP`` of each other.
    """
    a = np.hypot(*(p1 - p0).T)
    b = np.hypot(*(p2 - p1).T)
    c = np.hypot(*(p2 - p0).T)
    cross = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
             - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.abs(2.0 * cross / (a * b * c))
    return np.where((a < _DEGENERATE_DISP) | (b < _DEGENERATE_DISP) | (c < _DEGENERATE_DISP),
                    0.0, kappa)


def _interp_scalar(x: float, xp: list, fp: list) -> float:
    """``np.interp(x, xp, fp)`` for one finite ``x`` and strictly increasing
    ``xp``, bit for bit: the same bracketing and slope formula, without the
    per-call cost of a numpy call."""
    j = bisect.bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j >= len(xp) - 1:
        return fp[-1]
    if xp[j] == x:
        return fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


def _acceleration(kind: ProfileKind, a_lon: float) -> float:
    return {ProfileKind.ACCEL: a_lon, ProfileKind.DECEL: -a_lon, ProfileKind.CONST_VEL: 0.0}[kind]


def _substep_starts(n_steps: int, dt) -> np.ndarray:
    """Start time of each substep of ``n_steps`` frames: substep
    k = (frame - 1) * _SUBSTEPS + sub starts at ``t[..., k]``. A scalar
    ``dt`` gives one row; an array of time steps gives one row each."""
    dt = np.asarray(dt, dtype=float)[..., None, None]
    t = np.arange(n_steps)[:, None] * dt + np.arange(_SUBSTEPS) * (dt / _SUBSTEPS)
    return t.reshape(t.shape[:-2] + (-1,))


def _profile_arc(t: np.ndarray, v0, a: float, v_max: float) -> np.ndarray:
    """Arc length at times ``t`` of the linear speed profile from ``v0`` at
    acceleration ``a``, clamped to [0, ``v_max``]: its exact integral."""
    if a > 0:
        t_star = (v_max - v0) / a
        return np.where(t <= t_star, v0 * t + 0.5 * a * t * t,
                        v0 * t_star + 0.5 * a * t_star * t_star + v_max * (t - t_star))
    if a < 0:
        t_star = v0 / -a
        return np.where(t <= t_star, v0 * t + 0.5 * a * t * t, 0.5 * v0 * t_star)
    return v0 * t


class PathRollout:
    """One agent's path from a start frame onward, with its speed limits.

    The recorded polyline is extended beyond its last point by a straight
    line along the final heading, so accelerating rollouts never run out of
    path. The start speed ``v0`` is clamped to the scene speed limit
    ``v_max``. Each speed profile of the same (agent, frame) rolls from it.
    """

    def __init__(self, traj: Trajectory, start_frame: int, v0: float, v_max: float,
                 extend_length: float, cfg: EvalConfig):
        if not 0 <= start_frame < traj.n:
            raise IndexOutOfRange(f"start frame {start_frame} outside [0, {traj.n})")
        self.dt = traj.dt
        pts = traj.xy[start_frame:]
        step = np.hypot(*(np.diff(pts, axis=0).T))
        if np.any(step <= _DEGENERATE_DISP):
            # drop consecutive (near-)duplicate vertices, measured from the
            # last kept one
            keep = [0]
            for i in range(1, len(pts)):
                if np.hypot(*(pts[i] - pts[keep[-1]])) > _DEGENERATE_DISP:
                    keep.append(i)
            pts = pts[keep]
        if len(pts) >= 2:
            tail = pts[-1] - pts[-2]
            heading = np.arctan2(tail[1], tail[0])
        else:
            headings, _ = trajectory_kinematics(traj)
            heading = headings[start_frame]
        ext = pts[-1] + np.array([np.cos(heading), np.sin(heading)]) * max(extend_length, 1.0)
        verts = np.vstack([pts, ext])
        seg = np.hypot(*(np.diff(verts, axis=0).T))
        s_vert = np.concatenate([[0.0], np.cumsum(seg)])
        # curvature at the recorded vertices, linear in arc length elsewhere
        m = len(pts)
        kappa_vert = np.zeros(len(verts))
        if m >= 3:
            kappa_vert[1:m - 1] = np.minimum(
                _menger_curvature(verts[:m - 2], verts[1:m - 1], verts[2:m]), _KAPPA_MAX)
        self._s_vert = s_vert
        self._verts = verts
        n_grid = max(int(s_vert[-1] / _PATH_DS) + 2, 2)
        self._s = np.linspace(0.0, s_vert[-1], n_grid)
        self._kappa = np.interp(self._s, s_vert, kappa_vert)
        self.v_max = v_max
        self.v0 = min(v0, v_max)
        self._a_lon = cfg.a_lon_max
        # curvature- and braking-aware speed limit along the arc grid
        with np.errstate(divide="ignore"):
            lat = np.sqrt(cfg.a_lat_max / np.maximum(self._kappa, 1e-12))
        cap = np.minimum(v_max, lat)
        brake = 2.0 * cfg.a_lon_max * (self._s[1] - self._s[0])
        # backward pass: entering a low-cap region must be brakeable at a_lon_max.
        # A flat cap is a fixed point of the pass when one step leaves it
        # unchanged. The step stays scalar: np.float64 ** 2 calls pow(), whose
        # last bit can differ from the x*x that an array ** 2 computes.
        c = cap[0]
        if not (np.all(cap == c) and np.sqrt(c ** 2 + brake) >= c):
            for k in range(len(cap) - 2, -1, -1):
                cap[k] = min(cap[k], np.sqrt(cap[k + 1] ** 2 + brake))
        cap.setflags(write=False)
        self._cap = cap

    def position(self, s: np.ndarray) -> np.ndarray:
        s = np.clip(s, 0.0, self._s_vert[-1])
        x = np.interp(s, self._s_vert, self._verts[:, 0])
        y = np.interp(s, self._s_vert, self._verts[:, 1])
        return np.stack([x, y], axis=-1)

    def roll(self, kind: ProfileKind, n_steps: int) -> np.ndarray:
        """Integrate a speed profile; the (n_steps + 1, 2) positions, one per dt.

        ACCEL and DECEL change speed at +-``a_lon_max`` from ``v0``, clamped
        to [0, ``v_max``]; CONST_VEL keeps ``v0``.

        Each frame is split into ``_SUBSTEPS`` substeps. While the speed cap
        holds at both ends of a substep, the substep advances by the exact
        integral of the clamped linear profile (closed form). Where the cap
        binds, it takes one trapezoid step at the capped speeds instead.

        The substeps are evaluated as arrays: the closed-form advances are
        summed in order by one cumulative sum, and the cap is tested on all
        of them at once. From the first substep where the cap binds, substeps
        are stepped one at a time for as long as it binds; the sum then
        restarts from where they end. The result is the same, bit for bit,
        as stepping every substep in turn.
        """
        a = _acceleration(kind, self._a_lon)
        v0, v_max, cap, s_grid = self.v0, self.v_max, self._cap, self._s
        h = self.dt / _SUBSTEPS
        t_a = _substep_starts(n_steps, self.dt)
        t_b = t_a + h
        v_a = np.clip(v0 + a * t_a, 0.0, v_max)
        v_b = np.clip(v0 + a * t_b, 0.0, v_max)
        ds_exact = _profile_arc(t_b, v0, a, v_max) - _profile_arc(t_a, v0, a, v_max)
        n_sub = len(ds_exact)
        s_end = np.empty(n_sub)  # arc length after each substep
        k, s = 0, 0.0
        xs = fs = None  # grid and cap as lists, for the scalar steps
        while k < n_sub:
            # closed form from substep k on: the advances summed in order from s
            s_k = np.cumsum(np.concatenate(([s], ds_exact[k:])))
            cap_k = np.interp(s_k, s_grid, cap)
            free = (v_a[k:] <= cap_k[:-1] + 1e-12) & (v_b[k:] <= cap_k[1:] + 1e-12)
            j = int(free.argmin())
            if free[j]:
                s_end[k:] = s_k[1:]
                break
            s_end[k:k + j] = s_k[1:j + 1]
            k += j
            # the cap binds on substep k: trapezoid steps at the capped speeds
            # while it binds, then back to the closed form
            if xs is None:
                xs, fs = s_grid.tolist(), cap.tolist()
            s, cap_a = float(s_k[j]), float(cap_k[j])
            while True:
                va = min(float(v_a[k]), cap_a)
                vb = min(float(v_b[k]), _interp_scalar(s + va * h, xs, fs))
                s += 0.5 * (va + vb) * h
                s_end[k] = s
                k += 1
                if k == n_sub:
                    break
                cap_a = _interp_scalar(s, xs, fs)
                if (v_a[k] <= cap_a + 1e-12
                        and v_b[k] <= _interp_scalar(s + float(ds_exact[k]), xs, fs) + 1e-12):
                    break
        out_s = np.concatenate(([0.0], s_end[_SUBSTEPS - 1::_SUBSTEPS]))
        return self.position(out_s)


def _extension(v_max: float, n_steps, dt):
    """How far a path is extended so that the fastest roll of ``n_steps``
    frames at ``v_max`` stays on it."""
    return v_max * (n_steps + 1) * dt + 10.0


def _closed_form_starts(xy: np.ndarray, starts: np.ndarray, v_max: float,
                        cfg: EvalConfig) -> np.ndarray:
    """Which of ``starts`` roll the recorded path ``xy`` in closed form.

    The speed cap of a ``PathRollout`` from ``start`` is ``v_max`` all along
    its path, so no substep of any profile is capped, when both hold:

    - no step of ``xy[start:]`` is within ``_DEGENERATE_DISP``, so the path
      keeps every recorded vertex;
    - the lateral limit at the sharpest of those vertices is at least
      ``v_max``. The curvature between vertices is interpolated from theirs,
      and rounding may lift it above the largest by a few ulps; the factor
      ``1 + 1e-9`` allows for that.

    A start on the last sample has no path left to roll along.
    """
    n = len(xy)
    ok = (starts >= 0) & (starts <= n - 2)
    if not ok.any():
        return ok
    s = np.where(ok, starts, 0)
    step = np.hypot(*(np.diff(xy, axis=0).T))
    degenerate = np.logical_or.accumulate((step <= _DEGENERATE_DISP)[::-1])[::-1]
    # largest clamped curvature of the recorded vertices after each start
    kappa = np.zeros(n - 1)
    if n >= 3:
        kappa[:-1] = np.maximum.accumulate(np.minimum(
            _menger_curvature(xy[:-2], xy[1:-1], xy[2:]), _KAPPA_MAX)[::-1])[::-1]
    lat = np.sqrt(cfg.a_lat_max / np.maximum(kappa * (1.0 + 1e-9), 1e-12))
    return ok & ~degenerate[s] & (lat[s] >= v_max)


def _closed_form_rolls(rows: list[RolloutRow], v_max: float,
                       cfg: EvalConfig) -> list[dict[ProfileKind, np.ndarray]]:
    """``rollout_rows`` of rows that ``_closed_form_starts`` admits, given
    with the rows of each track next to each other.

    Each row's path is its recorded points from ``start`` and the extension
    point, laid out in one (rows, vertices, 2) array padded with the
    extension point. The substep advances of each profile form one (rows,
    substeps) array, summed in order along each row by one cumulative sum,
    as ``PathRollout.roll`` sums a roll whose cap never binds.
    """
    n_steps = np.array([row[3] for row in rows])
    dt = np.array([row[0].dt for row in rows])
    extend = np.maximum(_extension(v_max, n_steps, dt), 1.0)
    n_pts = np.array([row[0].n - row[1] for row in rows])
    cols = np.arange(n_pts.max() + 1)
    verts = np.empty((len(rows), len(cols), 2))
    lo = 0
    for _, run in itertools.groupby(rows, key=lambda row: id(row[0])):
        run = list(run)
        hi = lo + len(run)
        xy = run[0][0].xy
        tail = xy[-1] - xy[-2]
        heading = np.arctan2(tail[1], tail[0])
        ext = xy[-1] + np.array([np.cos(heading), np.sin(heading)]) * extend[lo:hi, None]
        starts = np.array([row[1] for row in run])
        rec = xy[np.minimum(starts[:, None] + cols, len(xy) - 1)]
        verts[lo:hi] = np.where((cols >= n_pts[lo:hi, None])[..., None], ext[:, None], rec)
        lo = hi
    seg = np.diff(verts, axis=1)
    s_vert = np.concatenate((np.zeros((len(rows), 1)),
                             np.cumsum(np.hypot(seg[..., 0], seg[..., 1]), axis=1)), axis=1)
    s_end = s_vert[np.arange(len(rows)), n_pts]

    t_a = _substep_starts(int(n_steps.max()), dt)
    t_b = t_a + (dt / _SUBSTEPS)[:, None]
    v0 = np.minimum([row[2] for row in rows], v_max)[:, None]
    rolls: list[dict] = [{} for _ in rows]
    for kind in ProfileKind:
        sel = [r for r, row in enumerate(rows) if kind in row[4]]
        if not sel:
            continue
        a = _acceleration(kind, cfg.a_lon_max)
        ds = (_profile_arc(t_b[sel], v0[sel], a, v_max)
              - _profile_arc(t_a[sel], v0[sel], a, v_max))
        s_frame = np.cumsum(np.concatenate((np.zeros((len(sel), 1)), ds), axis=1),
                            axis=1)[:, ::_SUBSTEPS]
        s_frame = np.clip(s_frame, 0.0, s_end[sel, None])
        # each row's positions on its own vertices, as PathRollout.position
        for r, s in zip(sel, s_frame):
            m = n_pts[r] + 1
            pos = rolls[r][kind] = np.empty((n_steps[r] + 1, 2))
            pos[:, 0] = np.interp(s[:len(pos)], s_vert[r, :m], verts[r, :m, 0])
            pos[:, 1] = np.interp(s[:len(pos)], s_vert[r, :m], verts[r, :m, 1])
    return [{kind: got[kind] for kind in row[4]} for row, got in zip(rows, rolls)]


def rollout_rows(rows: list[RolloutRow], v_max: float,
                 cfg: EvalConfig) -> list[dict[ProfileKind, np.ndarray]]:
    """Each row's rolls, the same bit for bit as a ``PathRollout`` of that
    row alone gives them.

    A row is ``(traj, start, v0, n_steps, kinds)``: the (n_steps + 1, 2)
    positions of each speed profile in ``kinds``, rolled along ``traj``
    from frame ``start`` at start speed ``v0``. Each path is extended far
    enough that the fastest roll of its ``n_steps`` frames at ``v_max``
    stays on it.

    Rows whose speed cap provably never binds (``_closed_form_starts``)
    roll together in closed form, without the arc grid, curvature and cap
    of a ``PathRollout``, none of which can change their rolls. Every other
    row rolls through its own ``PathRollout``.
    """
    tracks: dict[int, list[int]] = {}
    for r, row in enumerate(rows):
        tracks.setdefault(id(row[0]), []).append(r)
    fast = np.zeros(len(rows), dtype=bool)
    # a flat cap of v_max is then a fixed point of the cap's backward pass
    c = np.float64(v_max)
    if np.sqrt(c ** 2) >= c:
        for idx in tracks.values():
            fast[idx] = _closed_form_starts(rows[idx[0]][0].xy,
                                            np.array([rows[r][1] for r in idx]), v_max, cfg)
    out: list = [None] * len(rows)
    for r in np.flatnonzero(~fast):
        traj, start, v0, n_steps, kinds = rows[r]
        path = PathRollout(traj, start, v0, v_max, _extension(v_max, n_steps, traj.dt), cfg)
        out[r] = {kind: path.roll(kind, n_steps) for kind in kinds}
    order = [r for idx in tracks.values() for r in idx if fast[r]]
    if order:
        for r, rolls in zip(order, _closed_form_rolls([rows[r] for r in order], v_max, cfg)):
            out[r] = rolls
    return out


def interaction_timeline(scene: Scene, pair: CriticalPair, cfg: EvalConfig) -> InteractionTimeline:
    """Feasible-class history, IHS frame and evaluation interval for a pair."""
    agent_a = scene.agent(pair.agent_a)
    agent_b = scene.agent(pair.agent_b)
    wa, wb, times = common_window(agent_a.trajectory, agent_b.trajectory)
    n = wa.n
    v_max = max_scene_speed(scene)
    _, speeds_a = trajectory_kinematics(wa)
    _, speeds_b = trajectory_kinematics(wb)
    dims_a = VehicleDims(agent_a.width, agent_a.length)
    dims_b = VehicleDims(agent_b.width, agent_b.length)
    # every start frame of each agent's window, rolled to the window's end
    kinds = (ProfileKind.ACCEL, ProfileKind.DECEL)
    rolls_a = rollout_rows([(wa, i, float(speeds_a[i]), n - 1 - i, kinds) for i in range(n - 1)],
                           v_max, cfg)
    rolls_b = rollout_rows([(wb, i, float(speeds_b[i]), n - 1 - i, kinds) for i in range(n - 1)],
                           v_max, cfg)
    # one collision check per ordering over every frame's rolls; the frames
    # where the ordering is free are wound in one call (frame i's rolls hold
    # n - i samples)
    feasible: list[set] = [set() for _ in range(n - 1)]
    for ka, kb in ((ProfileKind.DECEL, ProfileKind.ACCEL),
                   (ProfileKind.ACCEL, ProfileKind.DECEL)):
        hit = collisions(disk_tracks([r[ka] for r in rolls_a], dims_a, cfg.interp_factor),
                         disk_tracks([r[kb] for r in rolls_b], dims_b, cfg.interp_factor))
        free = np.flatnonzero(~hit).tolist()
        rel = np.zeros((len(free), n, 2))
        for b, i in enumerate(free):
            rel[b, :n - i] = rolls_a[i][ka] - rolls_b[i][kb]
        for i, d in zip(free, winding_rows(rel, n - np.array(free)).tolist()):
            feasible[i].add(homotopy_class(d, cfg.theta_hat))
    feas = [frozenset(f) for f in feasible]
    sizes = np.array([len(f) for f in feas])
    # collapse: the frame after the last one (-1 before the first) without exactly
    # one feasible class, so that flickering feasibility must hold to the end
    collapse_idx = int(np.flatnonzero(np.append(-1, sizes) != 1)[-1])
    if collapse_idx == len(sizes):
        raise NoCollapse(
            f"pair ({pair.agent_a}, {pair.agent_b}): both classes feasible through the window"
        )
    two = np.flatnonzero(sizes == 2)
    if len(two) == 0:
        raise DegenerateInterval(
            f"pair ({pair.agent_a}, {pair.agent_b}): never two feasible classes"
        )
    final_idx = int(two[-1])
    horizon = cfg.horizon_frames(wa.dt)
    gt = gt_mode_sequence(wa.xy, wb.xy, horizon, cfg.theta_hat)
    lo = max(0, final_idx - horizon)
    start_idx = final_idx
    for i in range(final_idx, lo - 1, -1):
        if gt[i] == gt[final_idx]:
            start_idx = i
        else:
            break
    return InteractionTimeline(t=times, h_feas=tuple(feas), h_gt=tuple(gt),
                               collapse_idx=collapse_idx, final_idx=final_idx,
                               start_idx=start_idx)
