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

A roll's state at a substep boundary is its arc length alone: the next
substep is a function of it and of the substep's index. Where the cap binds
on a profile's speeds, the step is the same for every profile whose speeds
are above the cap, since along a fixed path a binding cap sets the speed by
arc length (Bobrow, Dubowsky & Gibson, IJRR 1985). So the capped stretches
are stepped once: later profiles of a call copy the first profile's arc
lengths for as long as their own step lands on them, which is exact by
induction, and step on from there. The scalar steps look the cap up in a
bracket walked from the previous lookup, not bisected.

``rollout_rows`` rolls many (track, start frame) rows with each profile of
one list in one call: every start frame of both agents' IHS windows with
ACCEL and DECEL, or every present agent at every frame the oracle predicts
with all three. One call lays out its work once:

- each distinct track of the rows once, padded with its last sample: the
  degenerate steps ahead of each sample, the sharpest clamped curvature
  ahead, which rows roll in closed form, every row's vertices and each
  track's final direction are array code over all tracks. Only rows with a
  degenerate step ahead, or one point left, drop points one at a time;
- one braked speed-cap pass for every row whose cap may bind. Its grids are
  ``np.linspace``'s points, and its curvatures ``np.interp``'s bracket and
  slope formula, written out for all rows, so each row keeps the bits of a
  pass on it alone; the backward envelope is one ``np.minimum.accumulate``
  along the rows, +inf past each row's grid;
- one cumulative sum per profile; the capped rows step one substep at a time
  only where their cap binds, and each later profile first replays the
  first profile's capped roll of the row (``_replay``);
- one pair of ``np.interp`` calls per row, which maps the arc lengths of all
  of its profiles to positions in the row's slot of the output.

The rolls come back as one ragged stack per profile, the rows back to back
(``types.row_starts``), the layout ``collisions`` and ``winding_rows`` take.

``interaction_timelines`` is the IHS stage of one scene; ``interaction_timeline``
is its one-pair case. One ``co_observed`` call finds every pair's window, the
one ``common_window`` gives. A pair's rows are both agents from every start frame
of their co-observed window to the window's end, so an agent in k pairs
whose windows end together would be rolled k times. The stage keys each row
on what its roll reads: ``xy[start:]`` of its window, ``n_steps``, ``v0``,
``dt`` and ``v_max``, and, where one point of path is left (a parked agent),
the window's kinematic heading at the start. ``dt`` is the agent's and
``v_max`` the scene's, so the key is the agent, the timestamps of the start
and of the window's end (an agent's timestamps strictly increase, so they
name its samples), and the bits of ``v0`` and of the heading, which depend
on where the window starts, as its first sample takes a one-sided
difference. Equal keys roll equal bits, because a row's roll reads nothing
else and ``rollout_rows`` rolls each row on its own; one call rolls each
distinct key once. Where no key repeats (no agent is in two pairs whose
windows end together), the rows are rolled in pair order instead of key
order, so that each run of pairs reads its rolls as two contiguous slices
of the ragged stacks and not as gathers. Both orderings of every pair's
frames are then checked, and the free ones wound, from those stacks over
runs of whole pairs (``collision.chunk_bounds``), with each row's vehicle
size. ``collisions`` and ``winding_rows`` are row-local, so every flag and
winding is the one a call per pair gives.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .collision import VehicleDims, chunk_bounds, collisions
# the benchmark's tracer patches this name in this module
from .collision import is_collision  # noqa: F401
from .errors import (
    DegenerateInterval,
    EmptyOverlap,
    IndexOutOfRange,
    NoCollapse,
    ShortTrajectory,
)
from .filtering import CriticalPair
from .homotopy import HomotopyClass, gt_mode_sequence, homotopy_class, winding_rows
# the benchmark's tracer patches this name in this module
from .homotopy import classify_pair_windows  # noqa: F401
from .types import (
    _DEGENERATE_DISP,
    EvalConfig,
    Scene,
    Trajectory,
    co_observed,
    row_samples,
    trajectory_kinematics,
)

_KAPPA_MAX = 1.0 / 0.5  # curvature clamp, 1/m (0.5 m minimum turn radius)
_PATH_DS = 0.25  # arc-length grid spacing for curvature and caps, metres
_SUBSTEPS = 5  # integration substeps per frame


class ProfileKind(enum.Enum):
    """A rollout's speed profile, declared in the deterministic tie-break
    order of profile combinations."""

    ACCEL = "accel"
    CONST_VEL = "const_vel"
    DECEL = "decel"


# what to roll: (track, start frame, start speed v0, n_steps)
RolloutRow = tuple[Trajectory, int, float, int]


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
    """Reciprocal circumscribed-circle radius of point triples, each (..., 2).

    0 where two points of a triple lie within ``_DEGENERATE_DISP`` of each other.
    """
    a = np.hypot(p1[..., 0] - p0[..., 0], p1[..., 1] - p0[..., 1])
    b = np.hypot(p2[..., 0] - p1[..., 0], p2[..., 1] - p1[..., 1])
    c = np.hypot(p2[..., 0] - p0[..., 0], p2[..., 1] - p0[..., 1])
    cross = ((p1[..., 0] - p0[..., 0]) * (p2[..., 1] - p0[..., 1])
             - (p1[..., 1] - p0[..., 1]) * (p2[..., 0] - p0[..., 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.abs(2.0 * cross / (a * b * c))
    return np.where((a < _DEGENERATE_DISP) | (b < _DEGENERATE_DISP) | (c < _DEGENERATE_DISP),
                    0.0, kappa)


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


def _degenerate_ahead(xy: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Whether a step of track t, the first ``n[t]`` samples of ``xy[t]``,
    is within ``_DEGENERATE_DISP`` from each sample on: (tracks, samples),
    False on each track's last sample and past it."""
    d = np.diff(xy, axis=1)
    step = np.hypot(d[..., 0], d[..., 1])
    degenerate = (step <= _DEGENERATE_DISP) & (np.arange(step.shape[1]) < n[:, None] - 1)
    ahead = np.zeros(xy.shape[:2], dtype=bool)
    ahead[:, :-1] = np.logical_or.accumulate(degenerate[:, ::-1], axis=1)[:, ::-1]
    return ahead


def _closed_form_starts(xy: np.ndarray, n: np.ndarray, ahead: np.ndarray, track: np.ndarray,
                        starts: np.ndarray, v_max: float, cfg: EvalConfig) -> np.ndarray:
    """Which rows roll in closed form: row r starts at sample ``starts[r]``
    (in [0, n)) of track ``track[r]``, the first n samples of its ``xy``,
    whose ``_degenerate_ahead`` is ``ahead``.

    The speed cap of the path from ``start`` is ``v_max`` all along it, so
    no substep of any profile is capped, when both hold:

    - no step of the track from ``start`` is within ``_DEGENERATE_DISP``, so
      the path keeps every recorded vertex;
    - the lateral limit at the sharpest of those vertices is at least
      ``v_max``. The curvature between vertices is interpolated from theirs,
      and rounding may lift it above the largest by a few ulps; the factor
      ``1 + 1e-9`` allows for that.

    A start on the last sample has no path left to roll along.
    """
    # the largest clamped curvature of each track's recorded vertices after
    # each sample; a triple past a track's end counts 0
    kappa = np.zeros((len(n), xy.shape[1] - 1))
    triple = np.minimum(_menger_curvature(xy[:, :-2], xy[:, 1:-1], xy[:, 2:]), _KAPPA_MAX)
    triple[np.arange(triple.shape[1]) >= n[:, None] - 2] = 0.0
    kappa[:, :-1] = np.maximum.accumulate(triple[:, ::-1], axis=1)[:, ::-1]
    ok = starts <= n[track] - 2
    s = np.where(ok, starts, 0)
    lat = np.sqrt(cfg.a_lat_max / np.maximum(kappa[track, s] * (1.0 + 1e-9), 1e-12))
    return ok & ~ahead[track, s] & (lat >= v_max)


def _speed_caps(verts: np.ndarray, s_vert: np.ndarray, n_vert: np.ndarray, v_max: float,
                cfg: EvalConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(grid, cap, n_grid)``: the speed limit of each path on an arc grid
    about ``_PATH_DS`` apart. Path r is ``verts[r, :n_vert[r]]`` at arc
    lengths ``s_vert[r, :n_vert[r]]`` (finite past them, as ``_paths``
    pads a row with its extension point), and its limit is ``cap[r,
    :n_grid[r]]`` at ``grid[r, :n_grid[r]]``; both are read-only.

    The lateral limit follows the curvature at the recorded vertices (all
    but the last), linear in arc length between them; a backward pass makes
    entering a low-cap region brakeable at a_lon_max. Each row is what
    ``np.linspace`` and ``np.interp`` give on that path alone, written out
    for all rows at once: grid point k is ``k * step`` and the last is the
    path's length, and each grid point's curvature is interpolated from the
    last vertex at or below it with ``np.interp``'s slope formula.
    """
    rows, cols = np.arange(len(n_vert)), np.arange(s_vert.shape[1])
    kappa = np.zeros(s_vert.shape)
    kappa[:, 1:-1] = np.minimum(
        _menger_curvature(verts[:, :-2], verts[:, 1:-1], verts[:, 2:]), _KAPPA_MAX)
    kappa[cols >= n_vert[:, None] - 2] = 0.0
    length = s_vert[rows, n_vert - 1]
    n_grid = np.maximum((length / _PATH_DS).astype(np.int64) + 2, 2)
    step = length / (n_grid - 1)
    k = np.arange(n_grid.max())
    grid = k * step[:, None]
    np.copyto(grid, length[:, None], where=k >= n_grid[:, None] - 1)
    # the first grid point at or past each vertex, from k = s / step give or
    # take one; the last vertex at or below a grid point is then a count.
    # Rows are read flat: grid row r starts at r * len(k), vertex row r at
    # r * len(cols)
    at = rows[:, None] * len(k)
    first = np.minimum(np.ceil(s_vert / step[:, None]).astype(np.int64), n_grid[:, None] - 1)
    first -= (first > 0) & (grid.take(at + np.maximum(first - 1, 0)) >= s_vert)
    first += grid.take(at + first) < s_vert
    below = np.bincount((at + first)[cols < n_vert[:, None]], minlength=grid.size)
    j = np.cumsum(below.reshape(grid.shape), axis=1) + (rows[:, None] * len(cols) - 1)
    s_j, kappa_j = s_vert.take(j), kappa.take(j)
    with np.errstate(divide="ignore", invalid="ignore"):
        # past a path's last vertex the slope is junk, and never read
        slope = np.diff(kappa, axis=1, append=0.0) / np.diff(s_vert, axis=1, append=0.0)
        kappa_grid = np.where(s_j == grid, kappa_j, slope.take(j) * (grid - s_j) + kappa_j)
        lat = np.sqrt(cfg.a_lat_max / np.maximum(kappa_grid, 1e-12))
    cap = np.minimum(v_max, lat)
    brake = 2.0 * cfg.a_lon_max * (grid[:, 1] - grid[:, 0])
    # the backward pass cap[k] = min(cap[k], sqrt(cap[k + 1]² + brake)),
    # unrolled: cap[k]² = min over j >= k of cap[j]² + (j - k)·brake, with
    # +inf past each path's grid. A point that is its own minimum keeps its
    # bits, so a flat cap stays exactly v_max, as _closed_form_starts assumes.
    shift = k * brake[:, None]
    sq = cap * cap + shift
    sq[k >= n_grid[:, None]] = np.inf
    env = np.minimum.accumulate(sq[:, ::-1], axis=1)[:, ::-1]
    cap = np.where(env < sq, np.sqrt(env - shift), cap)
    grid.setflags(write=False)
    cap.setflags(write=False)
    return grid, cap, n_grid


def _direction(tail: np.ndarray) -> np.ndarray:
    """Unit vectors along the last axis of ``tail``, through its heading."""
    heading = np.arctan2(tail[..., 1], tail[..., 0])
    return np.stack((np.cos(heading), np.sin(heading)), axis=-1)


def _paths(rows: list, extend: np.ndarray, v_max: float, cfg: EvalConfig) -> tuple:
    """``(verts, s_vert, n_vert, caps)``: the path of each ``(traj, start,
    ...)`` row and its speed limit.

    Row r's path, ``verts[r, :n_vert[r]]`` at arc lengths ``s_vert[r,
    :n_vert[r]]``, is its recorded points from ``start``, then a point
    ``extend[r]`` (at least 1 m) on along the final heading, so accelerating
    rolls never run out of path; the extension point pads the row. Where a
    step is within ``_DEGENERATE_DISP``, consecutive (near-)duplicate points
    are dropped, measured from the last kept one. ``caps`` maps each row that
    ``_closed_form_starts`` does not admit to its ``(grid, cap)`` of
    ``_speed_caps``.

    Each distinct track of the rows is laid out once, padded with its last
    sample: its degenerate steps ahead, the admission of its rows' starts
    and its final direction are array code over all tracks.
    """
    tracks = {id(row[0]): row[0] for row in rows}
    index = {key: t for t, key in enumerate(tracks)}
    track = np.array([index[id(row[0])] for row in rows])
    starts = np.array([row[1] for row in rows])
    n = np.array([traj.n for traj in tracks.values()])
    n_row = n[track]
    bad = np.flatnonzero((starts < 0) | (starts >= n_row))
    if bad.size:
        raise IndexOutOfRange(f"start frame {starts[bad[0]]} outside [0, {n_row[bad[0]]})")
    if n.min() < 2:
        raise ShortTrajectory("rollouts need at least 2 samples per track")
    first = np.concatenate(([0], np.cumsum(n[:-1])))
    xy = np.concatenate([traj.xy for traj in tracks.values()])[
        first[:, None] + np.minimum(np.arange(n.max()), n[:, None] - 1)]
    ahead = _degenerate_ahead(xy, n)
    free = _closed_form_starts(xy, n, ahead, track, starts, v_max, cfg)
    each = np.arange(len(n))
    direction = _direction(xy[each, n - 1] - xy[each, n - 2])[track]
    n_pts = n_row - starts
    cols = np.arange(n_pts.max() + 1)
    verts = xy[track[:, None], np.minimum(starts[:, None] + cols, n_row[:, None] - 1)]
    # the rows that drop points, and those with one point left; a row in
    # closed form is neither
    for r in np.flatnonzero(~free & (ahead[track, starts] | (starts == n_row - 1))).tolist():
        traj, start = rows[r][:2]
        keep = [start]
        for i in range(start + 1, traj.n):
            if np.hypot(*(traj.xy[i] - traj.xy[keep[-1]])) > _DEGENERATE_DISP:
                keep.append(i)
        n_pts[r] = len(keep)
        verts[r, :len(keep)] = traj.xy[keep]
        if len(keep) >= 2:
            direction[r] = _direction(traj.xy[keep[-1]] - traj.xy[keep[-2]])
        else:
            heading = trajectory_kinematics(traj)[0][keep[0]]
            direction[r] = [np.cos(heading), np.sin(heading)]
    ext = verts[np.arange(len(rows)), n_pts - 1] + direction * np.maximum(extend, 1.0)[:, None]
    verts = np.where((cols >= n_pts[:, None])[..., None], ext[:, None], verts)
    seg = np.diff(verts, axis=1)
    s_vert = np.concatenate((np.zeros((len(rows), 1)),
                             np.cumsum(np.hypot(seg[..., 0], seg[..., 1]), axis=1)), axis=1)
    n_vert = n_pts + 1
    capped = np.flatnonzero(~free)
    caps = {}
    if capped.size:
        width = int(n_vert[capped].max())
        grid, cap, n_grid = _speed_caps(verts[capped, :width], s_vert[capped, :width],
                                        n_vert[capped], v_max, cfg)
        caps = {r: (grid[i, :g], cap[i, :g])
                for i, (r, g) in enumerate(zip(capped.tolist(), n_grid.tolist()))}
    return verts, s_vert, n_vert, caps


def _restep(s: np.ndarray, ds: np.ndarray, v_a: np.ndarray, v_b: np.ndarray, h: float,
            grid: np.ndarray, cap: np.ndarray, start: int = 0) -> None:
    """Hold one row's arc lengths ``s`` (before each substep of advance
    ``ds`` and speeds ``v_a`` to ``v_b``, and after the last) to its speed
    ``cap``, in place, from substep ``start`` on: ``s[:start + 1]`` is
    settled, and ``s[start:]`` holds the closed-form sum from ``s[start]``.

    A roll's state at a substep boundary is its arc length alone, so each
    substep is a function of ``s[k]`` and k. It advances by ``ds[k]`` when
    both of its ends are under the cap (within 1e-12), and otherwise is a
    trapezoid step at ``min(v_a[k], cap(s[k]))`` and ``min(v_b[k],
    cap(s[k] + va * h))``. From the first substep where the cap binds,
    substeps are stepped one at a time for as long as it binds; the sum then
    restarts from where they end. The result is the same, bit for bit, as
    stepping every substep in turn.

    The steps run on Python floats. Each cap lookup in them is
    ``np.interp(x, grid, cap)`` written out: the same bracket (the last grid
    point at or below ``x``), the same ends and the same slope formula. The
    bracket is walked from the previous lookup's, forward while the next
    grid point is at or below ``x`` and back while its own point is above
    it. Inside a capped run the arc lengths do not decrease and each lookup
    lies a short way past ``s[k]``, so the walk is a step or two. A lookup
    can lie below the one before it (a substep may end short of the point
    its first half looked up, and an advance may round below zero); the
    backward guard keeps the bracket the one ``bisect_right(grid, x) - 1``
    gives for any ``x``.
    """
    n_sub = len(ds)
    k = start
    lists = None  # the scalar steps read lists
    while k < n_sub:
        cap_k = np.interp(s[k:], grid, cap)
        free = (v_a[k:] <= cap_k[:-1] + 1e-12) & (v_b[k:] <= cap_k[1:] + 1e-12)
        j = int(free.argmin())
        if free[j]:
            return
        if lists is None:
            lists = xs, fs, va_l, vb_l, ds_l = (grid.tolist(), cap.tolist(), v_a.tolist(),
                                                v_b.tolist(), ds.tolist())
            end, f_lo, f_hi = len(xs) - 1, fs[0], fs[-1]
        k += j
        s_k, cap_a = float(s[k]), float(cap_k[j])
        i = bisect_right(xs, s_k) - 1  # the bracket, walked from here on
        while True:
            va = va_l[k]
            if cap_a < va:
                va = cap_a
            x = s_k + va * h
            while i < end and xs[i + 1] <= x:
                i += 1
            while i >= 0 and xs[i] > x:
                i -= 1
            vb = vb_l[k]
            cap_b = (f_lo if i < 0 else f_hi if i >= end else fs[i] if xs[i] == x
                     else (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i]) * (x - xs[i]) + fs[i])
            if cap_b < vb:
                vb = cap_b
            s_k += 0.5 * (va + vb) * h
            k += 1
            if k == n_sub:
                break
            while i < end and xs[i + 1] <= s_k:
                i += 1
            while i >= 0 and xs[i] > s_k:
                i -= 1
            cap_a = (f_lo if i < 0 else f_hi if i >= end else fs[i] if xs[i] == s_k
                     else (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i]) * (s_k - xs[i]) + fs[i])
            # the cap still binds unless both ends of substep k are under it
            if va_l[k] <= cap_a + 1e-12:
                x = s_k + ds_l[k]
                while i < end and xs[i + 1] <= x:
                    i += 1
                while i >= 0 and xs[i] > x:
                    i -= 1
                if vb_l[k] <= (f_lo if i < 0 else f_hi if i >= end else fs[i] if xs[i] == x
                               else (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i]) * (x - xs[i])
                               + fs[i]) + 1e-12:
                    break
            s[k] = s_k
        s[k:] = np.cumsum(np.concatenate(([s_k], ds[k:])))


def _replay(ref: np.ndarray, ds: np.ndarray, v_a: np.ndarray, v_b: np.ndarray, h: float,
            grid: np.ndarray, cap: np.ndarray) -> int:
    """How many substeps of one row's roll land on ``ref``, another
    profile's arc lengths at every substep boundary of that row: the largest
    L such that the roll with advances ``ds`` and speeds ``v_a`` to ``v_b``
    under ``cap`` reaches ``ref[k]`` for every k <= L.

    Every roll starts at ``ref[0]``, and each substep is the step
    ``_restep`` takes from ``s[k]`` (a function of ``s[k]`` and k alone), so
    a roll at ``ref[k]`` whose step from there lands on ``ref[k + 1]`` is at
    ``ref[k + 1]``: the prefix is exact, bit for bit, by induction. The step
    is taken from every ``ref[k]`` at once, in ``np.interp``, ``np.minimum``
    and the scalar steps' order of float operations.
    """
    s = ref[:-1]
    cap_a = np.interp(s, grid, cap)
    free = (v_a <= cap_a + 1e-12) & (v_b <= np.interp(s + ds, grid, cap) + 1e-12)
    va = np.minimum(v_a, cap_a)
    vb = np.minimum(v_b, np.interp(s + va * h, grid, cap))
    off = np.where(free, s + ds, s + 0.5 * (va + vb) * h) != ref[1:]
    return int(off.argmax()) if off.any() else len(ds)


def _substep_starts(n_steps: int, dt: np.ndarray) -> np.ndarray:
    """Start time of each substep of ``n_steps`` frames, one row per time
    step in ``dt``: substep k = (frame - 1) * _SUBSTEPS + sub starts at
    ``t[:, k]``."""
    dt = dt[:, None, None]
    t = np.arange(n_steps)[:, None] * dt + np.arange(_SUBSTEPS) * (dt / _SUBSTEPS)
    return t.reshape(len(dt), -1)


def _roll(kind: ProfileKind, v0: np.ndarray, t_a: np.ndarray, dt: np.ndarray,
          n_steps: np.ndarray, v_max: float, a_lon: float, paths: tuple,
          ref: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Roll every row of ``paths`` with profile ``kind``, given the rows'
    start speeds, substep start times (``_substep_starts``: one row per
    row, or one row for all where they share one time step), time steps
    and frame counts. Returns ``(s, sub)``: row r's arc length at its
    n_steps[r] + 1 frame times, clipped to its path, is ``s[r, :n_steps[r] +
    1]`` of the (rows, max n_steps + 1) ``s``, past which ``s`` holds no
    roll; ``sub`` holds the arc lengths at every substep boundary of the
    capped rows, one row each in ``caps`` order.

    ACCEL and DECEL change speed at +-``a_lon`` from ``v0``, clamped to [0,
    ``v_max``]; CONST_VEL keeps ``v0``. Each frame is split into
    ``_SUBSTEPS`` substeps, each advancing by the exact integral of the
    clamped profile: one cumulative sum adds them in order along every row.
    A row with a speed cap is then held to it (``_restep``). Where the cap
    binds it sets the speed whatever the profile, so given ``ref``, another
    profile's ``sub``, each capped row first copies the prefix of it that it
    would step to (``_replay``) and steps on from its end.
    """
    a = {ProfileKind.ACCEL: a_lon, ProfileKind.DECEL: -a_lon, ProfileKind.CONST_VEL: 0.0}[kind]
    v0 = v0[:, None]
    # t_a's rows are dt's, or dt's first where every row shares it; the
    # t-only terms of one shared row then broadcast against v0
    t_b = t_a + dt[:len(t_a), None] / _SUBSTEPS
    ds = _profile_arc(t_b, v0, a, v_max) - _profile_arc(t_a, v0, a, v_max)
    s = np.cumsum(np.concatenate((np.zeros((len(v0), 1)), ds), axis=1), axis=1)
    verts, s_vert, n_vert, caps = paths
    capped = list(caps)
    if caps:
        # the profile's speeds at both ends of each substep of the capped rows
        if len(t_a) > 1:
            t_a, t_b = t_a[capped], t_b[capped]
        v_a = np.clip(v0[capped] + a * t_a, 0.0, v_max)
        v_b = np.clip(v0[capped] + a * t_b, 0.0, v_max)
    for i, (r, (grid, cap)) in enumerate(caps.items()):
        n_sub = n_steps[r] * _SUBSTEPS
        row, h, start = s[r, :n_sub + 1], float(dt[r]) / _SUBSTEPS, 0
        if ref is not None:
            start = _replay(ref[i, :n_sub + 1], ds[r, :n_sub], v_a[i, :n_sub], v_b[i, :n_sub],
                            h, grid, cap)
            if start:
                row[:start] = ref[i, :start]
                row[start:] = np.cumsum(np.concatenate((ref[i, start:start + 1],
                                                        ds[r, start:n_sub])))
        _restep(row, ds[r, :n_sub], v_a[i, :n_sub], v_b[i, :n_sub], h, grid, cap, start)
    return (np.clip(s[:, ::_SUBSTEPS], 0.0, s_vert[np.arange(len(s)), n_vert - 1][:, None]),
            s[capped])


def _positions(paths: tuple, s: np.ndarray, n_steps: np.ndarray) -> np.ndarray:
    """Each row's positions at its arc lengths ``s`` (profiles, rows, max
    n_steps + 1) along its path, as one ragged (profiles, N, 2) stack whose
    row r holds its n_steps[r] + 1 frames: one pair of ``np.interp`` calls
    per row maps all of its profiles' frames straight into the row's slot."""
    verts, s_vert, n_vert, _ = paths
    x, y = np.ascontiguousarray(verts[..., 0]), np.ascontiguousarray(verts[..., 1])
    held = (n_steps + 1).tolist()
    out = np.empty((len(s), sum(held), 2))
    for r, (a, m, n) in enumerate(zip(np.cumsum([0] + held).tolist(), n_vert.tolist(), held)):
        out[:, a:a + n, 0] = np.interp(s[:, r, :n], s_vert[r, :m], x[r, :m])
        out[:, a:a + n, 1] = np.interp(s[:, r, :n], s_vert[r, :m], y[r, :m])
    return out


class PathRollout:
    """One agent's path from a start frame onward, with its speed limits:
    the one-row case of ``rollout_rows``, with the extension given. The
    start speed ``v0`` is clamped to the scene speed limit ``v_max``.
    """

    def __init__(self, traj: Trajectory, start_frame: int, v0: float, v_max: float,
                 extend_length: float, cfg: EvalConfig):
        self._paths = _paths([(traj, start_frame)], np.array([extend_length]), v_max, cfg)
        self.dt, self.v_max, self.v0, self._a_lon = traj.dt, v_max, min(v0, v_max), cfg.a_lon_max

    def roll(self, kind: ProfileKind, n_steps: int) -> np.ndarray:
        """Integrate a speed profile; the (n_steps + 1, 2) positions, one per dt."""
        dt, n = np.array([self.dt]), np.array([n_steps])
        s, _ = _roll(kind, np.array([self.v0]), _substep_starts(n_steps, dt), dt, n, self.v_max,
                     self._a_lon, self._paths)
        return _positions(self._paths, s[None], n)[0]


def rollout_rows(rows: list[RolloutRow], kinds: tuple[ProfileKind, ...], v_max: float,
                 cfg: EvalConfig) -> np.ndarray:
    """Every row's roll of each speed profile in ``kinds`` as one ragged
    (len(kinds), N, 2) stack, the same bit for bit as a ``PathRollout`` of
    that row alone gives them.

    A row is ``(traj, start, v0, n_steps)``: n_steps + 1 positions rolled
    along ``traj`` from frame ``start`` at start speed ``v0``. The rows lie
    back to back (``types.row_starts``): row r's roll of ``kinds[k]`` is
    ``out[k]``'s n_steps + 1 samples after those of the rows before it.
    Each path is extended far enough that the fastest roll of its
    ``n_steps`` frames at ``v_max`` stays on it.
    """
    if not rows:
        return np.zeros((len(kinds), 0, 2))
    n_steps = np.array([row[3] for row in rows])
    dt = np.array([row[0].dt for row in rows])
    paths = _paths(rows, v_max * (n_steps + 1) * dt + 10.0, v_max, cfg)
    v0 = np.minimum([row[2] for row in rows], v_max)
    # one substep-time row serves every row when they share one time step
    t_a = _substep_starts(int(n_steps.max()), dt[:1] if (dt == dt[0]).all() else dt)
    s, ref = [], None
    for kind in kinds:
        frames, sub = _roll(kind, v0, t_a, dt, n_steps, v_max, cfg.a_lon_max, paths, ref)
        s.append(frames)
        if ref is None:  # the later profiles replay the first one's capped rows
            ref = sub
    return _positions(paths, np.stack(s), n_steps)


def _row_keys(slot: int, window: Trajectory, headings: np.ndarray,
              speeds: np.ndarray) -> np.ndarray:
    """(n - 1, 5) int64 keys of an agent's rows in an IHS window of n
    samples, one per start frame: the agent's ``slot``, the bits of the
    start's timestamp and of the window end's, and the bits of the start's
    ``v0`` and kinematic heading."""
    m = window.n - 1
    keys = np.empty((m, 5), dtype=np.int64)
    keys[:, 0] = slot
    keys[:, 1] = window.t[:m].view(np.int64)
    keys[:, 2] = window.t[m:].view(np.int64)
    keys[:, 3] = speeds[:m].view(np.int64)
    keys[:, 4] = headings[:m].view(np.int64)
    return keys


def _timeline(pair: CriticalPair, times: np.ndarray, wa: Trajectory, wb: Trajectory,
              feas: list[frozenset], cfg: EvalConfig) -> InteractionTimeline | Exception:
    """A pair's timeline from the feasible classes of each frame of its
    window but the last, or the NoCollapse or DegenerateInterval it has
    instead."""
    sizes = np.array([len(f) for f in feas])
    # collapse: the frame after the last one (-1 before the first) without exactly
    # one feasible class, so that flickering feasibility must hold to the end
    collapse_idx = int(np.flatnonzero(np.append(-1, sizes) != 1)[-1])
    if collapse_idx == len(sizes):
        return NoCollapse(
            f"pair ({pair.agent_a}, {pair.agent_b}): both classes feasible through the window"
        )
    two = np.flatnonzero(sizes == 2)
    if len(two) == 0:
        return DegenerateInterval(
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


def interaction_timelines(scene: Scene, pairs: list[CriticalPair], cfg: EvalConfig
                          ) -> list[InteractionTimeline | NoCollapse | DegenerateInterval]:
    """Each pair's feasible-class history, IHS frame and evaluation
    interval, or the NoCollapse or DegenerateInterval it has instead, in
    ``pairs`` order: the IHS stage of one scene.

    Every start frame of both agents of every pair is a row, keyed on what
    its roll reads (``_row_keys``); one ``rollout_rows`` call rolls each
    distinct key once, with ACCEL and DECEL, into two ragged stacks. Each
    frame's two orderings are then checked, and the free ones wound, from
    those stacks over runs of whole pairs (``chunk_bounds``), one call each
    per ordering and run with each row's vehicle size.
    """
    out: list = []
    if not pairs:
        return out
    sides = [(scene.agent(pair.agent_a), scene.agent(pair.agent_b)) for pair in pairs]
    agents = {id(agent): agent for side in sides for agent in side}
    slot = {key: k for k, key in enumerate(agents)}  # each agent's slot (key column 0)
    trajs = [agent.trajectory for agent in agents.values()]
    # every pair's co-observed window, as common_window finds it, in one call
    ok, first_a, first_b, count = co_observed(
        np.concatenate([traj.t for traj in trajs]),
        np.concatenate(([0], np.cumsum([traj.n for traj in trajs]))),
        np.array([traj.dt for traj in trajs]),
        np.array([slot[id(a)] for a, _ in sides]), np.array([slot[id(b)] for _, b in sides]))
    if not ok.all():
        raise EmptyOverlap("no co-observed window on a common time grid")
    evaluable = []  # (index in out, pair, times) of each pair with 2+ samples
    windows = []  # a's and b's, pair by pair
    keys_a, keys_b, sizes_a, sizes_b = [], [], [], []
    for pair, side, ia, ib, n in zip(pairs, sides, first_a.astype(int).tolist(),
                                     first_b.astype(int).tolist(), count.astype(int).tolist()):
        if n < 2:  # a user-set t_min can accept a pair that is co-observed at one frame
            out.append(DegenerateInterval(f"pair ({pair.agent_a}, {pair.agent_b}): co-observed "
                                          f"window of {n} sample(s), need at least 2"))
            continue
        wa = side[0].trajectory.slice_frames(ia, ia + n)
        for agent, w, keys, sizes in ((side[0], wa, keys_a, sizes_a),
                                      (side[1], side[1].trajectory.slice_frames(ib, ib + n),
                                       keys_b, sizes_b)):
            headings, speeds = trajectory_kinematics(w)
            keys.append(_row_keys(slot[id(agent)], w, headings, speeds))
            sizes.append(VehicleDims(agent.width, agent.length).size)
            windows.append(w)
        evaluable.append((len(out), pair, wa.t))
        out.append(None)
    if not evaluable:
        return out
    v_max = max_scene_speed(scene)
    # row r of a side is frame frame_of[r] of pair pair_of[r]'s window, and
    # pair p's rows are cum[p]:cum[p + 1]
    m = np.array([len(times) - 1 for _, _, times in evaluable])
    cum = np.concatenate(([0], np.cumsum(m)))
    pair_of = np.repeat(np.arange(len(m)), m)
    frame_of = np.arange(cum[-1]) - cum[pair_of]
    # each key as one 40-byte value: np.unique's axis=0 path without its overhead
    keys = np.concatenate(keys_a + keys_b)
    _, first, inverse = np.unique(keys.view(np.dtype((np.void, keys.itemsize * 5))).ravel(),
                                  return_index=True, return_inverse=True)
    # np.unique sorts its keys; where none repeats, the rows are rolled in
    # pair order instead, so that each run of pairs reads its rolls as slices
    distinct = len(first) == len(keys)
    if distinct:
        first = np.arange(len(keys))
    # frame i's rolls hold n - i samples
    lengths = m[pair_of] + 1 - frame_of
    # each distinct row is rolled as its first occurrence (a's rows, then
    # b's): (window, start, v0 from its key's bits, n_steps)
    side, r = np.divmod(first, cum[-1])
    held = lengths[r]
    rows = list(zip([windows[k] for k in (2 * pair_of[r] + side).tolist()],
                    frame_of[r].tolist(), keys[first, 3].view(np.float64).tolist(),
                    (held - 1).tolist()))
    # roll r of profile k is rolled[k, bounds[r]:bounds[r + 1]]
    rolled = rollout_rows(rows, (ProfileKind.ACCEL, ProfileKind.DECEL), v_max, cfg)
    bounds = np.concatenate(([0], np.cumsum(held)))
    key_a, key_b = inverse[:cum[-1]], inverse[cum[-1]:]  # each row's roll where keys repeat
    size_a, size_b = np.repeat(sizes_a, m, axis=0), np.repeat(sizes_b, m, axis=0)
    feasible: list[set] = [set() for _ in range(cum[-1])]
    for lo, hi in chunk_bounds(m.tolist(), (m + 1).tolist()):
        run = slice(cum[lo], cum[hi])
        if distinct:
            xy_a = rolled[:, bounds[cum[lo]]:bounds[cum[hi]]]
            xy_b = rolled[:, bounds[cum[-1] + cum[lo]]:bounds[cum[-1] + cum[hi]]]
        else:
            xy_a = np.take(rolled, row_samples(bounds[key_a[run]], lengths[run]), axis=1)
            xy_b = np.take(rolled, row_samples(bounds[key_b[run]], lengths[run]), axis=1)
        starts = lengths[run].cumsum() - lengths[run]  # of the run's rows in xy_a and xy_b
        # a decelerates and b accelerates, then the reverse
        for ka, kb in ((1, 0), (0, 1)):
            hit = collisions(xy_a[ka], xy_b[kb], lengths[run], size_a[run], size_b[run],
                             cfg.interp_factor)
            free = np.flatnonzero(~hit)
            held_free = lengths[run][free]
            at = row_samples(starts[free], held_free)
            windings = winding_rows(xy_a[ka, at] - xy_b[kb, at], held_free)
            for f, d in zip((free + cum[lo]).tolist(), windings.tolist()):
                feasible[f].add(homotopy_class(d, cfg.theta_hat))
    for p, (k, pair, times) in enumerate(evaluable):
        out[k] = _timeline(pair, times, windows[2 * p], windows[2 * p + 1],
                           [frozenset(f) for f in feasible[cum[p]:cum[p + 1]]], cfg)
    return out


def interaction_timeline(scene: Scene, pair: CriticalPair, cfg: EvalConfig) -> InteractionTimeline:
    """Feasible-class history, IHS frame and evaluation interval for a pair:
    ``interaction_timelines`` of one pair, raising the NoCollapse or
    DegenerateInterval it gives."""
    (timeline,) = interaction_timelines(scene, [pair], cfg)
    if isinstance(timeline, Exception):
        raise timeline
    return timeline
