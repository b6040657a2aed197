"""The array rollout kernel against frozen copies of the code it replaced.

The reference functions below are the original per-substep, per-vertex and
per-sample loops, and ``RefPathRollout`` is the one-row rollout class that
rolled every capped row before all rows shared one path layout, one
cumulative sum and one position map. The array code must reproduce their
geometry and rolls bit for bit, so those comparisons are ``np.array_equal``.

The one exception is the speed cap. Its braking pass is one array envelope,
which rounds differently from the frozen scalar pass, so the cap alone is
compared within ``cap_bound`` of it. The references then roll on the
program's own cap, and the rolls stay bit-exact.

The path layer itself (``_paths``, ``_speed_caps``, ``_degenerate_ahead``
and ``_closed_form_starts``) lays out every distinct track and every capped
row of a call at once. ``frozen_paths`` and its helpers below are the
per-track and per-row code it replaced, kept verbatim, and the layout must
equal them bit for bit, caps included.
"""

import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interaction_eval import (
    EvalConfig,
    IndexOutOfRange,
    ShortTrajectory,
    Trajectory,
    trajectory_kinematics,
)
from interaction_eval.rollout import (
    _KAPPA_MAX,
    _PATH_DS,
    _SUBSTEPS,
    PathRollout,
    ProfileKind,
    _closed_form_starts,
    _degenerate_ahead,
    _paths,
    _speed_caps,
    rollout_rows,
)
from interaction_eval.types import _DEGENERATE_DISP

from conftest import DT, circle_traj, straight_traj


# --- frozen scalar reference ------------------------------------------------

def ref_kinematics(traj):
    pos = traj.xy
    n = traj.n
    disp = np.empty_like(pos)
    disp[0] = pos[1] - pos[0]
    disp[-1] = pos[-1] - pos[-2]
    disp[1:-1] = (pos[2:] - pos[:-2]) / 2.0
    norm = np.hypot(disp[:, 0], disp[:, 1])
    speeds = np.where(norm < 1e-9, 0.0, norm / traj.dt)
    headings = np.zeros(n)
    last = 0.0
    for i in range(n):
        if norm[i] >= 1e-9:
            last = float(np.arctan2(disp[i, 1], disp[i, 0]))
        headings[i] = last
    return headings, speeds


def ref_menger(p0, p1, p2):
    a = np.hypot(*(p1 - p0))
    b = np.hypot(*(p2 - p1))
    c = np.hypot(*(p2 - p0))
    if a < 1e-9 or b < 1e-9 or c < 1e-9:
        return 0.0
    cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
    return abs(2.0 * cross / (a * b * c))


def ref_geometry(traj, start_frame, extend_length):
    """(verts, s_vert, s_grid, kappa_grid) as the scalar constructor built them."""
    pts = traj.xy[start_frame:]
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) > 1e-9:
            keep.append(i)
    pts = pts[keep]
    if len(pts) >= 2:
        tail = pts[-1] - pts[-2]
        heading = np.arctan2(tail[1], tail[0])
    else:
        heading = ref_kinematics(traj)[0][start_frame]
    ext = pts[-1] + np.array([np.cos(heading), np.sin(heading)]) * max(extend_length, 1.0)
    verts = np.vstack([pts, ext])
    seg = np.hypot(*(np.diff(verts, axis=0).T))
    s_vert = np.concatenate([[0.0], np.cumsum(seg)])
    kappa_vert = np.zeros(len(verts))
    for i in range(1, len(pts) - 1):
        kappa_vert[i] = min(ref_menger(verts[i - 1], verts[i], verts[i + 1]), _KAPPA_MAX)
    n_grid = max(int(s_vert[-1] / _PATH_DS) + 2, 2)
    s_grid = np.linspace(0.0, s_vert[-1], n_grid)
    return verts, s_vert, s_grid, np.interp(s_grid, s_vert, kappa_vert)


def cap_bound(ref_cap):
    """How far the speed cap may lie from the frozen scalar pass: 4·n·ε of
    it at each of the n grid points.

    Each of the pass's braking steps rounds about twice, and a binding point
    has cap² >= brake, so the envelope's relative error is about n·ε.
    """
    return 4 * len(ref_cap) * np.finfo(float).eps * ref_cap


def assert_cap_close(cap, ref_cap):
    assert cap.shape == ref_cap.shape
    assert np.all(np.abs(cap - ref_cap) <= cap_bound(ref_cap))


def ref_speed_cap(s_grid, kappa, v_max, cfg):
    with np.errstate(divide="ignore"):
        lat = np.sqrt(cfg.a_lat_max / np.maximum(kappa, 1e-12))
    cap = np.minimum(v_max, lat)
    ds = s_grid[1] - s_grid[0] if len(s_grid) > 1 else _PATH_DS
    for k in range(len(cap) - 2, -1, -1):
        cap[k] = min(cap[k], np.sqrt(cap[k + 1] ** 2 + 2.0 * cfg.a_lon_max * ds))
    return cap


def ref_roll_s(s_grid, cap, a, v0, v_max, n_steps, dt):
    """Arc length at each frame, and how many substeps the cap bound."""

    def v_des(t):
        return float(np.clip(v0 + a * t, 0.0, v_max))

    def s_des(t):
        if a > 0:
            t_star = (v_max - v0) / a
            if t <= t_star:
                return v0 * t + 0.5 * a * t * t
            return v0 * t_star + 0.5 * a * t_star * t_star + v_max * (t - t_star)
        if a < 0:
            t_star = v0 / -a
            if t <= t_star:
                return v0 * t + 0.5 * a * t * t
            return 0.5 * v0 * t_star
        return v0 * t

    h = dt / _SUBSTEPS
    s = 0.0
    bound = 0
    out_s = np.empty(n_steps + 1)
    out_s[0] = 0.0
    for frame in range(1, n_steps + 1):
        for sub in range(_SUBSTEPS):
            t_a = (frame - 1) * dt + sub * h
            t_b = t_a + h
            ds_exact = s_des(t_b) - s_des(t_a)
            cap_here = np.interp([s, s + ds_exact], s_grid, cap)
            if v_des(t_a) <= cap_here[0] + 1e-12 and v_des(t_b) <= cap_here[1] + 1e-12:
                s += ds_exact
            else:
                bound += 1
                va = min(v_des(t_a), float(cap_here[0]))
                s_mid = s + va * h
                vb = min(v_des(t_b), float(np.interp(s_mid, s_grid, cap)))
                s += 0.5 * (va + vb) * h
        out_s[frame] = s
    return out_s, bound


# --- frozen one-row rollout -------------------------------------------------

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


def ref_menger_rows(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
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


def ref_substep_starts(n_steps: int, dt) -> np.ndarray:
    """Start time of each substep of ``n_steps`` frames: substep
    k = (frame - 1) * _SUBSTEPS + sub starts at ``t[..., k]``. A scalar
    ``dt`` gives one row; an array of time steps gives one row each."""
    dt = np.asarray(dt, dtype=float)[..., None, None]
    t = np.arange(n_steps)[:, None] * dt + np.arange(_SUBSTEPS) * (dt / _SUBSTEPS)
    return t.reshape(t.shape[:-2] + (-1,))


def ref_profile_arc(t: np.ndarray, v0, a: float, v_max: float) -> np.ndarray:
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


# --- frozen per-track path layer ------------------------------------------------

def frozen_degenerate_ahead(xy: np.ndarray) -> np.ndarray:
    """Whether a step of ``xy`` from each sample on is within
    ``_DEGENERATE_DISP``; False on the last sample."""
    step = np.hypot(*(np.diff(xy, axis=0).T))
    ahead = np.zeros(len(xy), dtype=bool)
    ahead[:-1] = np.logical_or.accumulate((step <= _DEGENERATE_DISP)[::-1])[::-1]
    return ahead


def frozen_closed_form_starts(xy: np.ndarray, ahead: np.ndarray, starts: np.ndarray,
                              v_max: float, cfg: EvalConfig) -> np.ndarray:
    """Which of ``starts`` roll the recorded path ``xy``, whose
    ``_degenerate_ahead`` is ``ahead``, in closed form.

    The speed cap of the path from ``start`` is ``v_max`` all along it, so
    no substep of any profile is capped, when both hold:

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
    # largest clamped curvature of the recorded vertices after each start
    kappa = np.zeros(n - 1)
    if n >= 3:
        kappa[:-1] = np.maximum.accumulate(np.minimum(
            ref_menger_rows(xy[:-2], xy[1:-1], xy[2:]), _KAPPA_MAX)[::-1])[::-1]
    lat = np.sqrt(cfg.a_lat_max / np.maximum(kappa * (1.0 + 1e-9), 1e-12))
    return ok & ~ahead[s] & (lat[s] >= v_max)


def frozen_speed_cap(verts: np.ndarray, s_vert: np.ndarray, v_max: float,
                     cfg: EvalConfig) -> tuple[np.ndarray, np.ndarray]:
    """``(grid, cap)``: one path's speed limit on an arc grid about
    ``_PATH_DS`` apart. The lateral limit follows the curvature at the
    recorded vertices (all but the last), linear in arc length between them;
    a backward pass makes entering a low-cap region brakeable at a_lon_max.
    """
    m = len(verts) - 1
    kappa_vert = np.zeros(len(verts))
    if m >= 3:
        kappa_vert[1:m - 1] = np.minimum(
            ref_menger_rows(verts[:m - 2], verts[1:m - 1], verts[2:m]), _KAPPA_MAX)
    grid = np.linspace(0.0, s_vert[-1], max(int(s_vert[-1] / _PATH_DS) + 2, 2))
    with np.errstate(divide="ignore"):
        lat = np.sqrt(cfg.a_lat_max / np.maximum(np.interp(grid, s_vert, kappa_vert), 1e-12))
    cap = np.minimum(v_max, lat)
    brake = 2.0 * cfg.a_lon_max * float(grid[1] - grid[0])
    # the backward pass cap[k] = min(cap[k], sqrt(cap[k + 1]² + brake)),
    # unrolled: cap[k]² = min over j >= k of cap[j]² + (j - k)·brake. A
    # point that is its own minimum keeps its bits, so a flat cap stays
    # exactly v_max, as _closed_form_starts assumes.
    shift = np.arange(len(cap)) * brake
    sq = cap * cap + shift
    env = np.minimum.accumulate(sq[::-1])[::-1]
    cap = np.where(env < sq, np.sqrt(env - shift), cap)
    cap.setflags(write=False)
    return grid, cap


def frozen_direction(tail: np.ndarray) -> np.ndarray:
    heading = np.arctan2(tail[1], tail[0])
    return np.array([np.cos(heading), np.sin(heading)])


def frozen_paths(rows: list, extend: np.ndarray, v_max: float, cfg: EvalConfig) -> tuple:
    """``(verts, s_vert, n_vert, caps)``: the path of each ``(traj, start,
    ...)`` row and its speed limit.

    Row r's path, ``verts[r, :n_vert[r]]`` at arc lengths ``s_vert[r,
    :n_vert[r]]``, is its recorded points from ``start``, then a point
    ``extend[r]`` (at least 1 m) on along the final heading, so accelerating
    rolls never run out of path; the extension point pads the row. Where a
    step is within ``_DEGENERATE_DISP``, consecutive (near-)duplicate points
    are dropped, measured from the last kept one. ``caps`` maps each row that
    ``_closed_form_starts`` does not admit to its ``_speed_cap``.
    """
    tracks: dict[int, list[int]] = {}
    for r, (traj, start, *_) in enumerate(rows):
        if not 0 <= start < traj.n:
            raise IndexOutOfRange(f"start frame {start} outside [0, {traj.n})")
        tracks.setdefault(id(traj), []).append(r)
    n_pts = np.array([row[0].n - row[1] for row in rows])
    cols = np.arange(n_pts.max() + 1)
    verts = np.empty((len(rows), len(cols), 2))
    direction = np.empty((len(rows), 2))
    free = np.empty(len(rows), dtype=bool)
    for idx in map(np.array, tracks.values()):
        traj = rows[idx[0]][0]
        xy = traj.xy
        starts = np.array([rows[r][1] for r in idx])
        ahead = frozen_degenerate_ahead(xy)
        free[idx] = frozen_closed_form_starts(xy, ahead, starts, v_max, cfg)
        verts[idx] = xy[np.minimum(starts[:, None] + cols, len(xy) - 1)]
        direction[idx] = frozen_direction(xy[-1] - xy[-2])
        # the rows that drop points, and those with one point left; a row in
        # closed form is neither
        rest = ~free[idx]
        if rest.any():
            rest &= ahead[starts] | (starts == len(xy) - 1)
        for r in idx[rest]:
            keep = [rows[r][1]]
            for i in range(keep[0] + 1, len(xy)):
                if np.hypot(*(xy[i] - xy[keep[-1]])) > _DEGENERATE_DISP:
                    keep.append(i)
            n_pts[r] = len(keep)
            verts[r, :len(keep)] = xy[keep]
            if len(keep) >= 2:
                direction[r] = frozen_direction(xy[keep[-1]] - xy[keep[-2]])
            else:
                heading = trajectory_kinematics(traj)[0][keep[0]]
                direction[r] = [np.cos(heading), np.sin(heading)]
    ext = verts[np.arange(len(rows)), n_pts - 1] + direction * np.maximum(extend, 1.0)[:, None]
    verts = np.where((cols >= n_pts[:, None])[..., None], ext[:, None], verts)
    seg = np.diff(verts, axis=1)
    s_vert = np.concatenate((np.zeros((len(rows), 1)),
                             np.cumsum(np.hypot(seg[..., 0], seg[..., 1]), axis=1)), axis=1)
    n_vert = n_pts + 1
    caps = {r: frozen_speed_cap(verts[r, :n_vert[r]], s_vert[r, :n_vert[r]], v_max, cfg)
            for r in np.flatnonzero(~free).tolist()}
    return verts, s_vert, n_vert, caps


# --- the batched path layer on one row and on many ------------------------------

def speed_cap(verts, s_vert, v_max, cfg):
    """``_speed_caps`` of one path: its ``(grid, cap)``."""
    grid, cap, (n_grid,) = _speed_caps(verts[None], s_vert[None], np.array([len(verts)]),
                                       v_max, cfg)
    return grid[0, :n_grid], cap[0, :n_grid]


def stacked_paths(paths):
    """Paths of different lengths, each ``(verts, s_vert)``, padded with their
    last vertex as ``_paths`` pads its rows: ``(verts, s_vert, n_vert)``."""
    n_vert = np.array([len(s) for _, s in paths])
    pad = np.minimum(np.arange(n_vert.max()), n_vert[:, None] - 1)
    return (np.stack([v[p] for (v, _), p in zip(paths, pad)]),
            np.stack([s[p] for (_, s), p in zip(paths, pad)]), n_vert)


def track_stack(trajs, pad=None):
    """Tracks padded with their last sample, as ``_paths`` lays them out, or
    with ``pad``: ``(xy, n)``."""
    n = np.array([traj.n for traj in trajs])
    xy = np.stack([traj.xy[np.minimum(np.arange(n.max()), traj.n - 1)] for traj in trajs])
    if pad is not None:
        xy[np.arange(n.max()) >= n[:, None]] = pad
    return xy, n


def admitted(rows, v_max, cfg, pad=None):
    """``_closed_form_starts`` of every ``(traj, start, ...)`` row, from one
    call over the rows' distinct tracks, padded as ``track_stack`` pads them."""
    trajs = list({id(row[0]): row[0] for row in rows}.values())
    index = {id(traj): t for t, traj in enumerate(trajs)}
    xy, n = track_stack(trajs, pad)
    return _closed_form_starts(xy, n, _degenerate_ahead(xy, n),
                               np.array([index[id(row[0])] for row in rows]),
                               np.array([row[1] for row in rows]), v_max, cfg)


class RefPathRollout:
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
                ref_menger_rows(verts[:m - 2], verts[1:m - 1], verts[2:m]), _KAPPA_MAX)
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
        # unchanged.
        c = cap[0]
        if not (np.all(cap == c) and np.sqrt(c ** 2 + brake) >= c):
            for k in range(len(cap) - 2, -1, -1):
                cap[k] = min(cap[k], np.sqrt(cap[k + 1] ** 2 + brake))
        # the program's cap is within the bound of this one, and the rolls
        # below step on the program's cap
        grid, self._cap = speed_cap(verts, s_vert, v_max, cfg)
        assert np.array_equal(grid, self._s)
        assert_cap_close(self._cap, cap)

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
        a = {ProfileKind.ACCEL: self._a_lon, ProfileKind.DECEL: -self._a_lon,
             ProfileKind.CONST_VEL: 0.0}[kind]
        v0, v_max, cap, s_grid = self.v0, self.v_max, self._cap, self._s
        h = self.dt / _SUBSTEPS
        t_a = ref_substep_starts(n_steps, self.dt)
        t_b = t_a + h
        v_a = np.clip(v0 + a * t_a, 0.0, v_max)
        v_b = np.clip(v0 + a * t_b, 0.0, v_max)
        ds_exact = ref_profile_arc(t_b, v0, a, v_max) - ref_profile_arc(t_a, v0, a, v_max)
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


# --- comparisons ------------------------------------------------------------

def check_path(traj, start_frame, v_max, v0=None, cfg=None):
    """Compare geometry, cap and every profile's roll with the scalar loops,
    for ``PathRollout`` and the frozen ``RefPathRollout``; returns how many
    substeps the cap bound."""
    cfg = cfg or EvalConfig()
    n_steps = traj.n - 1 - start_frame
    extend = v_max * (n_steps + 1) * traj.dt + 10.0
    if v0 is None:
        v0 = float(ref_kinematics(traj)[1][start_frame])
    ref = RefPathRollout(traj, start_frame, v0, v_max, extend, cfg)
    path = PathRollout(traj, start_frame, v0, v_max, extend, cfg)
    verts, s_vert, s_grid, kappa = ref_geometry(traj, start_frame, extend)
    assert np.array_equal(ref._verts, verts)
    assert np.array_equal(ref._s_vert, s_vert)
    assert np.array_equal(ref._s, s_grid)
    assert np.array_equal(ref._kappa, kappa)
    got_verts, got_s_vert, (m,), caps = path._paths
    got_cap = caps.get(0)
    assert np.array_equal(got_verts[0, :m], verts)
    assert np.array_equal(got_s_vert[0, :m], s_vert)
    cap = ref_speed_cap(s_grid, kappa, v_max, cfg)
    assert_cap_close(ref._cap, cap)
    if got_cap is None:
        # the closed form is taken only where the cap is v_max all along
        assert np.all(cap == v_max)
        assert np.all(ref._cap == v_max)
    else:
        assert np.array_equal(got_cap[0], s_grid)
        assert np.array_equal(got_cap[1], ref._cap)
    # the scalar steps below roll on the program's cap
    cap = ref._cap
    bound = 0
    for kind in ProfileKind:
        a = {ProfileKind.ACCEL: cfg.a_lon_max, ProfileKind.DECEL: -cfg.a_lon_max,
             ProfileKind.CONST_VEL: 0.0}[kind]
        out_s, b = ref_roll_s(s_grid, cap, a, min(v0, v_max), v_max, n_steps, traj.dt)
        bound += b
        want = ref.position(out_s)
        assert np.array_equal(ref.roll(kind, n_steps), want), kind
        assert np.array_equal(path.roll(kind, n_steps), want), kind
    return bound


def test_straight_path_never_binds():
    traj = straight_traj((-20.0, 3.0), (6.0, 1.5), 30)
    for start in (0, 7, 28):
        assert check_path(traj, start, v_max=9.0) == 0


def test_circle_cap_binds():
    traj = circle_traj(radius=10.0, omega=0.6, n=30)
    assert check_path(traj, 0, v_max=6.5) > 0
    assert check_path(traj, 11, v_max=6.5, v0=6.0) > 0


def curved_10hz_traj():
    dt = 0.1
    th = np.concatenate([np.zeros(30), np.linspace(0.0, np.pi / 2, 31)[1:]])
    r = np.cumsum(np.full(len(th), 0.8))
    xy = np.stack([r * np.cos(th) + np.cumsum(np.cos(th)), np.cumsum(np.sin(th))], axis=1)
    return Trajectory(t=dt * np.arange(len(th)), xy=xy, dt=dt)


def stopped_traj():
    xy = np.array([[0.0, 0.0]] * 4 + [[0.5, 0.0], [0.5, 0.0], [1.5, 0.2], [2.5, 0.6]]
                  + [[2.5, 0.6]] * 3)
    return Trajectory(t=DT * np.arange(len(xy)), xy=xy, dt=DT)


def test_curved_10hz_path():
    traj = curved_10hz_traj()
    check_path(traj, 0, v_max=12.0)
    check_path(traj, 25, v_max=12.0)


def test_decel_stops_within_horizon():
    traj = straight_traj((0.0, 0.0), (3.0, 0.0), 20)
    cfg = EvalConfig()
    # 3 m/s brakes to rest in about 2 s, well inside the 9.5 s horizon
    check_path(traj, 0, v_max=3.0, cfg=cfg)
    path = PathRollout(traj, 0, 3.0, 3.0, 100.0, cfg)
    rolled = path.roll(ProfileKind.DECEL, traj.n - 1)
    assert np.array_equal(rolled[-1], rolled[-5])


def test_stopped_agent_with_duplicate_vertices():
    traj = stopped_traj()
    for start in (0, 2, 5, 8):
        check_path(traj, start, v_max=2.0)
    parked = Trajectory(t=DT * np.arange(6), xy=np.full((6, 2), 4.0), dt=DT)
    for start in (0, 5):
        check_path(parked, start, v_max=2.0)


def test_two_sample_path():
    traj = Trajectory(t=np.array([0.0, DT]), xy=np.array([[0.0, 0.0], [1.0, 2.0]]), dt=DT)
    check_path(traj, 0, v_max=5.0)
    check_path(traj, 1, v_max=5.0)


def test_interp_scalar_matches_numpy():
    rng = np.random.default_rng(3)
    for n in (2, 3, 40, 1200):
        xp = np.linspace(0.0, rng.uniform(1.0, 400.0), n)
        fp = np.minimum(rng.uniform(0.5, 30.0, n), rng.uniform(8.0, 30.0))
        x = np.concatenate([rng.uniform(-1.0, xp[-1] + 1.0, 5000), xp, [xp[-1] + 1e-9]])
        got = np.array([_interp_scalar(v, xp.tolist(), fp.tolist()) for v in x.tolist()])
        assert np.array_equal(got, np.interp(x, xp, fp))


def test_speed_cap_is_computed_once_and_read_only():
    path = PathRollout(circle_traj(radius=10.0, omega=0.6, n=30), 0, 6.0, 6.5, 50.0,
                       EvalConfig())
    _, cap = path._paths[3][0]
    for kind in ProfileKind:
        path.roll(kind, 10)
    assert path._paths[3][0][1] is cap
    assert not cap.flags.writeable
    with pytest.raises(ValueError):
        cap[0] = 0.0


def test_kinematics_degenerate_displacements():
    xy = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 1.5], [2.0, 1.5], [2.0, 1.5],
                   [2.0, 1.5], [1.0, 3.0], [1.0, 3.0 + 5e-10], [-1.0, 2.0]])
    traj = Trajectory(t=DT * np.arange(len(xy)), xy=xy, dt=DT)
    headings, speeds = trajectory_kinematics(traj)
    ref_h, ref_v = ref_kinematics(traj)
    assert headings[0] == 0.0  # nothing defined before the first motion
    assert np.array_equal(headings, ref_h)
    assert np.array_equal(speeds, ref_v)
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.normal(size=(40, 2)) * rng.choice([0.0, 1e-10, 1.0], size=(40, 1)), axis=0)
    traj = Trajectory(t=DT * np.arange(40), xy=walk, dt=DT)
    for got, want in zip(trajectory_kinematics(traj), ref_kinematics(traj)):
        assert np.array_equal(got, want)


# --- the batched rows against the frozen one-row rollout ---------------------

ALL_KINDS = tuple(ProfileKind)


def window_rows(traj):
    """A row for every start frame but the last, rolled to the end of ``traj``,
    as the IHS timeline rolls a window."""
    speeds = ref_kinematics(traj)[1]
    return [(traj, i, float(speeds[i]), traj.n - 1 - i) for i in range(traj.n - 1)]


def check_rows(rows, v_max, kinds=ALL_KINDS, cfg=None):
    """Every row's roll of each of ``kinds`` from one ``rollout_rows`` call,
    and from that row's own ``PathRollout``, equals the frozen
    ``RefPathRollout`` roll of that row, and the padding past its length is
    exactly 0.0; returns how many rows took the closed form, which one
    ``_closed_form_starts`` call over all rows, one call per row and the
    frozen per-track admission agree on."""
    cfg = cfg or EvalConfig()
    got = rollout_rows(rows, kinds, v_max, cfg)
    assert got.shape == (len(rows), len(kinds), max(row[3] for row in rows) + 1, 2)
    for (traj, start, v0, n_steps), rolls in zip(rows, got):
        extend = v_max * (n_steps + 1) * traj.dt + 10.0
        ref = RefPathRollout(traj, start, v0, v_max, extend, cfg)
        path = PathRollout(traj, start, v0, v_max, extend, cfg)
        for kind, roll in zip(kinds, rolls):
            assert np.all(roll[n_steps + 1:] == 0.0), (start, kind)
            want = ref.roll(kind, n_steps)
            assert want.shape == (n_steps + 1, 2)
            assert np.array_equal(roll[:n_steps + 1], want), (start, kind)
            assert np.array_equal(path.roll(kind, n_steps), want), (start, kind)
    free = admitted(rows, v_max, cfg)
    assert free.tolist() == [bool(admitted([row], v_max, cfg)[0]) for row in rows]
    assert free.tolist() == [
        bool(frozen_closed_form_starts(traj.xy, frozen_degenerate_ahead(traj.xy),
                                       np.array([start]), v_max, cfg)[0])
        for traj, start, *_ in rows]
    return int(free.sum())


def test_rows_straight_paths_all_closed_form():
    rows = []
    for traj in (straight_traj((-20.0, 3.0), (6.0, 1.5), 30),
                 straight_traj((5.0, -7.0), (-0.3, 9.0), 12, dt=0.1)):
        rows += window_rows(traj)
    assert check_rows(rows, v_max=9.5) == len(rows)


def test_rows_circle_cap_binds():
    traj = circle_traj(radius=10.0, omega=0.6, n=30)
    rows = window_rows(traj)
    # only the start before the last sample, whose path has no bend, is free
    assert check_rows(rows, v_max=6.5) == 1
    # a wide circle at a low limit never reaches its lateral cap
    wide = circle_traj(radius=200.0, omega=0.02, n=30)
    assert check_rows(window_rows(wide), v_max=4.0) == wide.n - 1


def test_rows_curved_10hz_path():
    traj = curved_10hz_traj()
    rows = window_rows(traj)
    fast = check_rows(rows, v_max=12.0, kinds=(ProfileKind.ACCEL, ProfileKind.DECEL))
    # the straight lead-in rolls in closed form only once the bend is behind
    assert 0 < fast < len(rows)


def test_rows_stopped_agent_with_duplicate_vertices():
    traj = stopped_traj()
    rows = window_rows(traj)
    # the repeated final samples lie ahead of every start
    assert check_rows(rows, v_max=2.0) == 0
    parked = Trajectory(t=DT * np.arange(6), xy=np.full((6, 2), 4.0), dt=DT)
    assert check_rows(window_rows(parked), v_max=2.0) == 0


def test_rows_two_sample_window():
    traj = Trajectory(t=np.array([0.0, DT]), xy=np.array([[0.0, 0.0], [1.0, 2.0]]), dt=DT)
    assert check_rows(window_rows(traj), v_max=5.0) == 1
    # the last sample has no path ahead; it builds a speed cap, for any
    # number of frames
    assert check_rows([(traj, 1, 3.0, 4), (traj, 0, 3.0, 0)], v_max=5.0) == 1


def test_rows_zero_speed_limit():
    rows = window_rows(straight_traj((0.0, 0.0), (3.0, 1.0), 15))
    assert check_rows(rows, v_max=0.0) == len(rows)
    for (_, _, _, n_steps), rolls in zip(rows, rollout_rows(rows, ALL_KINDS, 0.0, EvalConfig())):
        for roll in rolls:
            xy = roll[:n_steps + 1]
            assert np.array_equal(xy, np.broadcast_to(xy[0], xy.shape))


def test_rows_mixed_batch():
    """Closed-form and per-row rows from several tracks, interleaved, with
    different start speeds and lengths, rolled with all three profiles in
    one call."""
    straight = straight_traj((-20.0, 3.0), (6.0, 1.5), 30)
    circle = circle_traj(radius=10.0, omega=0.6, n=30)
    stopped = stopped_traj()
    curved = curved_10hz_traj()
    rows = [
        (straight, 0, 6.2, 20),
        (circle, 3, 5.0, 12),
        (straight, 9, 12.0, 5),
        (stopped, 5, 0.0, 8),
        (curved, 40, 8.0, 19),
        (straight, 28, 6.0, 1),
        (curved, 2, 8.0, 57),
        (circle, 29, 6.0, 3),
        (straight, 3, 0.0, 26),
    ]
    fast = check_rows(rows, v_max=9.0)
    assert 0 < fast < len(rows)


def test_rows_empty():
    assert rollout_rows([], ALL_KINDS, 2.0, EvalConfig()).shape == (0, 3, 1, 2)
    assert rollout_rows([], (ProfileKind.DECEL,), 2.0, EvalConfig()).shape == (0, 1, 1, 2)


def test_rows_start_outside_track():
    traj = straight_traj((0.0, 0.0), (1.0, 0.0), 5)
    with pytest.raises(IndexOutOfRange):
        rollout_rows([(traj, 0, 1.0, 3), (traj, 5, 1.0, 3)], ALL_KINDS, 2.0, EvalConfig())
    with pytest.raises(IndexOutOfRange):
        rollout_rows([(traj, -1, 1.0, 3)], ALL_KINDS, 2.0, EvalConfig())


@st.composite
def polylines(draw):
    """A recorded path of 2-40 samples: straight runs, bends of any sharpness,
    and stops where samples repeat."""
    n = draw(st.integers(2, 40))
    dt = draw(st.sampled_from([0.1, 0.5]))
    sharpness = draw(st.sampled_from([0.0, 0.02, 1.2]))
    turn = draw(st.lists(st.floats(-sharpness, sharpness), min_size=n - 1, max_size=n - 1))
    # on some paths, about one sample in eight repeats the one before
    stops = draw(st.booleans())
    step = [0.0 if stops and draw(st.integers(0, 7)) == 0 else draw(st.floats(0.05, 3.0))
            for _ in range(n - 1)]
    heading = draw(st.floats(-np.pi, np.pi)) + np.cumsum(turn)
    xy = np.vstack([[draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))],
                    np.cumsum(np.array(step)[:, None]
                              * np.stack([np.cos(heading), np.sin(heading)], axis=1),
                              axis=0)])
    return Trajectory(t=dt * np.arange(n), xy=xy, dt=dt)


@st.composite
def kind_lists(draw):
    """A non-empty list of distinct profiles, in any order."""
    return tuple(draw(st.permutations(ALL_KINDS))[:draw(st.integers(1, 3))])


@st.composite
def rows_of(draw, trajs):
    """1-6 rows on each of ``trajs``: any start frame, start speed and
    length."""
    return [(traj, start, draw(st.floats(0.0, 35.0)), draw(st.integers(0, 25)))
            for traj in trajs
            for start in draw(st.lists(st.integers(0, traj.n - 1), min_size=1, max_size=6))]


@given(st.lists(polylines(), min_size=1, max_size=3), st.floats(0.0, 30.0),
       kind_lists(), st.data())
@settings(max_examples=100, deadline=None)
def test_rows_equal_path_rollout_property(trajs, v_max, kinds, data):
    check_rows(data.draw(rows_of(trajs)), v_max, kinds)


@given(st.lists(polylines(), min_size=1, max_size=3), st.floats(0.0, 30.0),
       st.permutations(ALL_KINDS), kind_lists(), st.data())
@settings(max_examples=50, deadline=None)
def test_rows_follow_the_callers_kinds_property(trajs, v_max, kinds, other, data):
    """The same rows rolled with a permuted or shorter ``kinds`` give the
    same rolls, bit for bit, in that call's order."""
    rows = data.draw(rows_of(trajs))
    cfg = EvalConfig()
    full = rollout_rows(rows, kinds, v_max, cfg)
    got = rollout_rows(rows, other, v_max, cfg)
    assert np.array_equal(got, full[:, [kinds.index(kind) for kind in other]])


# --- the speed cap's backward pass --------------------------------------------

def test_float_pow_and_sqrt_match_numpy_scalars():
    """Why the program's cap is compared with the frozen scalar pass within
    ``cap_bound`` rather than bit for bit: the frozen pass squares with
    ``** 2``, which calls C pow() on Python floats and np.float64 scalars
    alike (and both square roots are correctly rounded), while the array
    envelope squares with ``x*x``, which differs from pow() on some values."""
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 40.0, 100_000)
    squared = [v ** 2 for v in x.tolist()]
    assert squared == [v ** 2 for v in x]  # np.float64 scalars
    assert (x * x != np.array(squared)).any()
    y = x * x + rng.uniform(0.0, 3.0, len(x))
    assert [math.sqrt(v) for v in y.tolist()] == [np.sqrt(v) for v in y]


@given(polylines(), st.integers(0, 39), st.floats(0.0, 30.0))
@example(straight_traj((-20.0, 3.0), (6.0, 1.5), 30), 0, 9.0)  # flat cap
@example(circle_traj(radius=10.0, omega=0.6, n=30), 0, 6.5)  # the cap binds
@settings(max_examples=150, deadline=None)
def test_speed_cap_equals_reference_property(traj, start, v_max):
    """The grid bit for bit, and the cap within ``cap_bound`` of the frozen
    scalar pass."""
    cfg = EvalConfig()
    start %= traj.n
    verts, s_vert, s_grid, kappa = ref_geometry(traj, start, v_max * traj.n * traj.dt + 10.0)
    grid, cap = speed_cap(verts, s_vert, v_max, cfg)
    assert grid.tobytes() == s_grid.tobytes()
    assert_cap_close(cap, ref_speed_cap(s_grid, kappa, v_max, cfg))
    assert not cap.flags.writeable


@given(polylines(), st.integers(0, 39), st.floats(0.0, 30.0))
@example(straight_traj((-20.0, 3.0), (6.0, 1.5), 30), 0, 9.0)  # flat cap
@example(circle_traj(radius=10.0, omega=0.6, n=30), 0, 6.5)  # the cap binds
@settings(max_examples=150, deadline=None)
def test_speed_cap_is_the_braked_lateral_limit_property(traj, start, v_max):
    """The method itself, with no frozen copy: within ``cap_bound``, the cap
    never exceeds its lateral limit, never rises faster than braking at
    a_lon_max allows, and at every point is either exactly its lateral limit
    or tight on the braking step from the point ahead."""
    cfg = EvalConfig()
    start %= traj.n
    verts, s_vert, _, kappa = ref_geometry(traj, start, v_max * traj.n * traj.dt + 10.0)
    grid, cap = speed_cap(verts, s_vert, v_max, cfg)
    lateral = np.minimum(v_max, np.sqrt(cfg.a_lat_max / np.maximum(kappa, 1e-12)))
    bound = cap_bound(cap)
    assert np.all(cap <= lateral + bound)
    step = np.sqrt(cap[1:] * cap[1:] + 2.0 * cfg.a_lon_max * (grid[1] - grid[0]))
    assert np.all(cap[:-1] <= step + bound[:-1])
    assert cap[-1] == lateral[-1]
    assert np.all((cap[:-1] == lateral[:-1]) | (np.abs(cap[:-1] - step) <= bound[:-1]))


def test_speed_cap_examples_are_flat_and_binding():
    """The property's two examples: a straight path keeps ``v_max`` all
    along, and a tight circle is held below it by both the lateral limit
    and the braking pass."""
    cfg = EvalConfig()
    verts, s_vert, _, _ = ref_geometry(straight_traj((-20.0, 3.0), (6.0, 1.5), 30), 0, 50.0)
    assert np.all(speed_cap(verts, s_vert, 9.0, cfg)[1] == 9.0)
    verts, s_vert, s_grid, kappa = ref_geometry(circle_traj(radius=10.0, omega=0.6, n=30), 0,
                                                50.0)
    lateral = np.minimum(6.5, np.sqrt(cfg.a_lat_max / np.maximum(kappa, 1e-12)))
    cap = speed_cap(verts, s_vert, 6.5, cfg)[1]
    assert cap.min() < 6.5
    assert (cap < lateral).any()


# --- long binding runs in the 10 Hz shape --------------------------------------

@st.composite
def wod_tracks(draw):
    """A 10 Hz track of 2-91 samples in the shape of the 10 Hz corpus: a
    straight run into a circular bend of 5-40 m radius, then straight out,
    at a speed that may rise, fall or stop."""
    n = draw(st.integers(2, 91))
    t = 0.1 * np.arange(n)
    v0, accel = draw(st.floats(0.0, 20.0)), draw(st.floats(-3.0, 3.0))
    s = np.maximum(v0 * t + 0.5 * accel * t * t, 0.0)
    if accel < 0 < v0:
        s = np.minimum(s, 0.5 * v0 * v0 / -accel)
    lead, radius = draw(st.floats(0.0, 30.0)), draw(st.floats(5.0, 40.0))
    angle = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, np.pi / 2))
    # heading at the middle of each step, turning at 1 / radius inside the bend
    mid = 0.5 * (s[1:] + s[:-1])
    heading = (draw(st.floats(-np.pi, np.pi))
               + np.sign(angle) * np.clip((mid - lead) / radius, 0.0, abs(angle)))
    step = np.diff(s)[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    xy = np.vstack([[0.0, 0.0], np.cumsum(step, axis=0)])
    return Trajectory(t=t, xy=xy + [draw(st.floats(-50.0, 50.0)), 0.0], dt=0.1)


@given(wod_tracks(), st.floats(5.0, 30.0))
@settings(max_examples=50, deadline=None)
def test_rows_equal_path_rollout_wod_shape_property(traj, v_max):
    """Every start frame of a 10 Hz window rolled to its end with ACCEL and
    DECEL, as the IHS timeline rolls it: long runs of substeps where the
    cap binds."""
    check_rows(window_rows(traj), v_max, kinds=(ProfileKind.ACCEL, ProfileKind.DECEL))


# --- the batched layout against the frozen per-track code ------------------------

@st.composite
def parked_tracks(draw):
    """A track of 2-30 samples that never moves."""
    n, dt = draw(st.integers(2, 30)), draw(st.sampled_from([0.1, 0.5]))
    xy = np.full((n, 2), [draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))])
    return Trajectory(t=dt * np.arange(n), xy=xy, dt=dt)


@st.composite
def parking_tracks(draw):
    """A 10 Hz track that drives, then parks for 1-30 samples."""
    track = draw(wod_tracks())
    xy = np.vstack([track.xy, np.repeat(track.xy[-1:], draw(st.integers(1, 30)), axis=0)])
    return Trajectory(t=track.dt * np.arange(len(xy)), xy=xy, dt=track.dt)


@st.composite
def two_sample_tracks(draw):
    xy = [[draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))] for _ in range(2)]
    return Trajectory(t=np.array([0.0, DT]), xy=np.array(xy), dt=DT)


layout_tracks = st.one_of(polylines(), wod_tracks(), parked_tracks(), parking_tracks(),
                          two_sample_tracks())


@st.composite
def layout_rows(draw, trajs):
    """``rows_of(trajs)``, with a row that starts on the last sample of some
    tracks, in a shuffled order."""
    rows = draw(rows_of(trajs)) + [(traj, traj.n - 1, draw(st.floats(0.0, 35.0)),
                                    draw(st.integers(0, 25)))
                                   for traj in trajs if draw(st.booleans())]
    return draw(st.permutations(rows))


def assert_layout_equal(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert got[3].keys() == want[3].keys()
    for r, (grid, cap) in got[3].items():
        assert np.array_equal(grid, want[3][r][0]), r
        assert np.array_equal(cap, want[3][r][1]), r
        assert not cap.flags.writeable


@given(st.lists(layout_tracks, min_size=1, max_size=4), st.floats(0.0, 30.0), st.data())
@settings(max_examples=100, deadline=None)
def test_layout_equals_frozen_paths_property(trajs, v_max, data):
    """Curved and capped, parked, drive-then-park and two-sample tracks of
    different lengths, several rows each: the layout of one call (vertices,
    arc lengths, vertex counts, cap grids and caps) is the frozen per-track
    ``frozen_paths`` bit for bit, and ``rollout_rows`` still equals a
    ``PathRollout`` of each row alone."""
    rows = data.draw(layout_rows(trajs))
    cfg = EvalConfig()
    n_steps = np.array([row[3] for row in rows])
    extend = v_max * (n_steps + 1) * np.array([row[0].dt for row in rows]) + 10.0
    assert_layout_equal(_paths(rows, extend, v_max, cfg), frozen_paths(rows, extend, v_max, cfg))
    stack = rollout_rows(rows, ALL_KINDS, v_max, cfg)
    for (traj, start, v0, n), rolls, ext in zip(rows, stack, extend.tolist()):
        path = PathRollout(traj, start, v0, v_max, ext, cfg)
        for kind, roll in zip(ALL_KINDS, rolls):
            assert np.array_equal(roll[:n + 1], path.roll(kind, n)), (start, kind)
            assert np.all(roll[n + 1:] == 0.0)


@given(st.lists(st.tuples(layout_tracks, st.integers(0, 200)), min_size=1, max_size=6),
       st.floats(0.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_speed_caps_of_many_paths_property(tracks, v_max):
    """One ``_speed_caps`` call over paths of different lengths gives each
    path the grid and cap that a call on it alone, and the frozen per-path
    ``frozen_speed_cap``, give."""
    cfg = EvalConfig()
    paths = [ref_geometry(traj, start % traj.n, v_max * traj.n * traj.dt + 10.0)[:2]
             for traj, start in tracks]
    grid, cap, n_grid = _speed_caps(*stacked_paths(paths), v_max, cfg)
    assert not grid.flags.writeable and not cap.flags.writeable
    for (verts, s_vert), g, c, n in zip(paths, grid, cap, n_grid.tolist()):
        want = frozen_speed_cap(verts, s_vert, v_max, cfg)
        for got in ((g[:n], c[:n]), speed_cap(verts, s_vert, v_max, cfg)):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


@given(st.lists(layout_tracks, min_size=1, max_size=4), st.floats(0.0, 30.0), st.data())
@settings(max_examples=100, deadline=None)
def test_degenerate_ahead_and_admission_property(trajs, v_max, data):
    """``_degenerate_ahead`` and ``_closed_form_starts`` over several padded
    tracks equal the frozen per-track code on each, and a call on one track
    alone. Both read only each track's own samples: padding the tracks with
    NaN in place of their last sample changes nothing."""
    cfg = EvalConfig()
    xy, n = track_stack(trajs)
    ahead = _degenerate_ahead(xy, n)
    assert np.array_equal(_degenerate_ahead(track_stack(trajs, np.nan)[0], n), ahead)
    for t, traj in enumerate(trajs):
        one = _degenerate_ahead(*track_stack([traj]))[0]
        assert np.array_equal(ahead[t, :traj.n], frozen_degenerate_ahead(traj.xy))
        assert np.array_equal(one, ahead[t, :traj.n])
        assert not ahead[t, traj.n - 1:].any()
    rows = data.draw(layout_rows(trajs))
    want = [bool(frozen_closed_form_starts(traj.xy, frozen_degenerate_ahead(traj.xy),
                                           np.array([start]), v_max, cfg)[0])
            for traj, start, *_ in rows]
    assert admitted(rows, v_max, cfg).tolist() == want
    assert admitted(rows, v_max, cfg, np.nan).tolist() == want


def test_speed_caps_vertices_on_grid_points():
    """A vertex exactly on a grid point, where ``s / step`` may round up past
    it, is bracketed as ``np.interp`` brackets it: the grid and cap equal
    the frozen ``frozen_speed_cap``'s, on the path alone and beside a
    shorter one."""
    cfg = EvalConfig()
    length = 90.24885188082287
    grid = np.linspace(0.0, length, int(length / _PATH_DS) + 2)
    step = length / (len(grid) - 1)
    # a vertex on every grid point and one halfway to the next
    s_vert = np.unique(np.concatenate((grid, (grid[:-1] + grid[1:]) / 2)))
    assert (np.ceil(s_vert / step) > np.searchsorted(grid, s_vert)).any()
    # unit steps turning 0.3 rad at the grid points and 0.02 rad halfway:
    # the lateral limit dips at each grid point, so the cap there is its own
    # and not the braking pass's
    heading = np.cumsum(np.where(np.isin(s_vert, grid), 0.3, 0.02))
    verts = np.cumsum(np.stack((np.cos(heading), np.sin(heading)), axis=1), axis=0)
    short = (verts[:40], s_vert[:40])
    grid_got, cap, n_grid = _speed_caps(*stacked_paths([(verts, s_vert), short]), 30.0, cfg)
    for (v, s), g, c, m in zip(((verts, s_vert), short), grid_got, cap, n_grid.tolist()):
        want = frozen_speed_cap(v, s, 30.0, cfg)
        assert (want[1] < 30.0).mean() > 0.9
        for got in ((g[:m], c[:m]), speed_cap(v, s, 30.0, cfg)):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_one_sample_track_is_short():
    """A track of one sample has no path to roll along: both entry points
    raise ShortTrajectory, as ``collisions`` does for a one-sample row, and
    not an IndexError."""
    cfg = EvalConfig()
    single = Trajectory(t=np.array([0.0]), xy=np.array([[1.0, 2.0]]), dt=DT)
    straight = straight_traj((0.0, 0.0), (1.0, 0.0), 5)
    for rows in ([(single, 0, 1.0, 3)], [(straight, 0, 1.0, 3), (single, 0, 0.0, 0)]):
        with pytest.raises(ShortTrajectory):
            rollout_rows(rows, ALL_KINDS, 2.0, cfg)
    with pytest.raises(ShortTrajectory):
        PathRollout(single, 0, 1.0, 2.0, 10.0, cfg)
    # a start outside a track is still IndexOutOfRange
    with pytest.raises(IndexOutOfRange):
        PathRollout(single, 1, 1.0, 2.0, 10.0, cfg)
