"""Path-sharing analysis and the safety-critical interaction filter.

An agent pair is safety-critical when the two agents are not on a shared
path at the first co-observed time but enter one later, and do so within
a bounded time gap of each other (merging and crossing scenarios, as
opposed to car-following or parallel passing).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlap
from .types import (
    _TIME_ATOL,
    EvalConfig,
    Scene,
    Trajectory,
    common_window,
    resample_trajectory,
)

_PRUNE_MARGIN = 1e-6  # metres; absolute part of the bound's rounding margin
_PRUNE_REL = 1e-12  # relative part, times the largest |coordinate| in the scene


@dataclass(frozen=True)
class PairwiseDistanceField:
    """d[i, j] = distance from agent A at t_i to agent B at t_j.

    Indices run over the interpolated co-observed window; ``factor`` maps
    them back to original frames (original = interpolated // factor).
    Not symmetric in general: rows follow A's clock, columns B's.
    """

    d: np.ndarray
    n: int
    factor: int
    t: np.ndarray  # original-grid timestamps of the co-observed window


@dataclass(frozen=True)
class PathSharingResult:
    i_ps_a: tuple[int, ...]  # sorted original frame indices
    i_ps_b: tuple[int, ...]
    t_ps_a: float | None
    t_ps_b: float | None
    dt_ps: float | None


class RejectReason(enum.Enum):
    NEVER_PATH_SHARING = "NeverPathSharing"
    SHARED_FROM_START = "SharedFromStart"
    TIME_GAP_TOO_LARGE = "TimeGapTooLarge"


@dataclass(frozen=True)
class PairRejection:
    agent_a: str
    agent_b: str
    reason: RejectReason
    detail: str = ""


@dataclass(frozen=True)
class CriticalPair:
    agent_a: str
    agent_b: str
    sharing: PathSharingResult
    co_observed: tuple[float, float]  # first and last co-observed timestamps
    min_distance: float  # real-time closest approach over the window


def pairwise_distance_matrix(ta: Trajectory, tb: Trajectory,
                             interp_factor: int = 1) -> PairwiseDistanceField:
    """All-pairs Euclidean distances after resampling both trajectories.

    ``ta`` and ``tb`` must already be restricted to their common window.
    """
    if ta.n != tb.n:
        raise EmptyOverlap("trajectories must cover the same co-observed window")
    ra = resample_trajectory(ta, interp_factor)
    rb = resample_trajectory(tb, interp_factor)
    diff = ra.xy[:, None, :] - rb.xy[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return PairwiseDistanceField(d=d, n=ra.n, factor=interp_factor, t=ta.t)


def path_sharing_sets(field: PairwiseDistanceField, d_collision: float) -> PathSharingResult:
    """Index sets of samples lying on the commonly shared path.

    Sharing uses the strict inequality d < d_collision. Interpolated indices
    map back to original frames by flooring, so the first shared-path time
    is conservative (earliest possible frame).
    """
    shared = field.d < d_collision
    rows = np.flatnonzero(shared.any(axis=1))
    cols = np.flatnonzero(shared.any(axis=0))
    i_a = tuple(sorted(set(int(k) // field.factor for k in rows)))
    i_b = tuple(sorted(set(int(k) // field.factor for k in cols)))
    t_a = float(field.t[i_a[0]]) if i_a else None
    t_b = float(field.t[i_b[0]]) if i_b else None
    dt_ps = abs(t_b - t_a) if i_a and i_b else None
    return PathSharingResult(i_ps_a=i_a, i_ps_b=i_b, t_ps_a=t_a, t_ps_b=t_b, dt_ps=dt_ps)


def classify_pair(scene: Scene, a: str, b: str,
                  cfg: EvalConfig) -> CriticalPair | PairRejection:
    """Apply the three safety-critical criteria to one agent pair."""
    agent_a = scene.agent(a)
    agent_b = scene.agent(b)
    wa, wb, t = common_window(agent_a.trajectory, agent_b.trajectory)
    field = pairwise_distance_matrix(wa, wb, cfg.interp_factor)
    sharing = path_sharing_sets(field, cfg.d_collision)
    t_min = cfg.t_min if cfg.t_min is not None else float(t[0])
    if sharing.t_ps_a is None or sharing.t_ps_b is None:
        return PairRejection(a, b, RejectReason.NEVER_PATH_SHARING)
    if sharing.t_ps_a <= t_min:
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=a)
    if sharing.t_ps_b <= t_min:
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=b)
    if sharing.dt_ps > cfg.dt_ps_max:
        return PairRejection(a, b, RejectReason.TIME_GAP_TOO_LARGE,
                             detail=f"{sharing.dt_ps:.3f}")
    m = field.d.shape[0]
    diag = field.d[np.arange(m), np.arange(m)]
    return CriticalPair(agent_a=a, agent_b=b, sharing=sharing,
                        co_observed=(float(t[0]), float(t[-1])),
                        min_distance=float(diag.min()))


def _co_observed(t: np.ndarray, n: np.ndarray, dt: np.ndarray, i: int,
                 js: np.ndarray) -> np.ndarray:
    """For each j in ``js``, whether ``common_window`` accepts the pair (i, j).

    The same window arithmetic as ``common_window`` (first agent's ``dt`` for
    the count, round half to even, ``atol`` on every co-observed time), done
    on the padded time rows ``t`` of ``n`` samples each, without slicing. A
    slice that would run past a trajectory's end, or any NaN, gives False.
    """
    first, last = t[:, 0], t[np.arange(len(n)), n - 1]
    t0 = np.maximum(first[i], first[js])
    t1 = np.minimum(last[i], last[js])
    with np.errstate(divide="ignore", invalid="ignore"):
        ia = np.rint((t0 - first[i]) / dt[i])
        ib = np.rint((t0 - first[js]) / dt[js])
        count = np.rint((t1 - t0) / dt[i]) + 1
    ok = ((t1 >= t0 - _TIME_ATOL) & (count >= 1) & (ia >= 0) & (ib >= 0)
          & (ia + count <= n[i]) & (ib + count <= n[js]))
    steps = np.arange(t.shape[1])
    inside = steps < count[ok, None]
    ra = t[i, np.where(inside, ia[ok, None] + steps, 0).astype(int)]
    rb = t[js[ok, None], np.where(inside, ib[ok, None] + steps, 0).astype(int)]
    ok[ok] = np.where(inside, np.abs(ra - rb) <= _TIME_ATOL, True).all(axis=1)
    return ok


def _never_sharing(trajs: list[Trajectory], cfg: EvalConfig) -> np.ndarray:
    """far[i, j], i < j: the pair provably never shares a path (module docstring)."""
    k = len(trajs)
    far = np.zeros((k, k), dtype=bool)
    n = np.array([tr.n for tr in trajs])
    if k < 2 or n.min() < 1:
        return far
    start = np.concatenate([[0], np.cumsum(n)])
    xy = np.concatenate([tr.xy for tr in trajs])
    steps = np.zeros(len(xy))
    steps[:-1] = np.hypot(*np.diff(xy, axis=0).T)
    steps[start[1:] - 1] = 0.0  # no step from one agent's last sample to the next agent
    half = np.maximum.reduceat(steps, start[:-1]) / 2.0
    limit = cfg.d_collision + _PRUNE_MARGIN + _PRUNE_REL * np.abs(xy).max()
    t = np.full((k, n.max()), np.nan)
    for i, tr in enumerate(trajs):
        t[i, :tr.n] = tr.t
    dt = np.array([tr.dt for tr in trajs])
    for i in range(k - 1):
        rest = xy[start[i + 1]:]
        d2 = np.square(np.subtract.outer(trajs[i].xy[:, 0], rest[:, 0]))
        d2 += np.square(np.subtract.outer(trajs[i].xy[:, 1], rest[:, 1]))
        nearest = np.minimum.reduceat(d2.min(axis=0), start[i + 1:-1] - start[i + 1])
        js = i + 1 + np.flatnonzero(np.sqrt(nearest) - half[i] - half[i + 1:] > limit)
        if js.size:
            far[i, js] = _co_observed(t, n, dt, i, js)
    return far


def filter_scene_with_rejections(
    scene: Scene, cfg: EvalConfig
) -> tuple[list[CriticalPair], list[PairRejection]]:
    """Accepted pairs over all N(N-1)/2 unordered combinations, sorted by id,
    and the reason each other pair was rejected.

    Pairs that the scene-level bound (module docstring) proves never share a
    path are rejected without ``classify_pair``; every other pair goes
    through it. The result equals ``classify_pair`` on every pair.
    """
    trajs: dict[str, Trajectory] = {}
    for agent in scene.agents:  # scene.agent(id) returns the first with the id
        trajs.setdefault(agent.id, agent.trajectory)
    index = {aid: k for k, aid in enumerate(sorted(trajs))}
    far = _never_sharing([trajs[aid] for aid in sorted(trajs)], cfg)
    accepted, rejected = [], []
    for a, b in itertools.combinations(sorted(scene.agent_ids), 2):
        if far[index[a], index[b]]:
            rejected.append(PairRejection(a, b, RejectReason.NEVER_PATH_SHARING))
            continue
        try:
            result = classify_pair(scene, a, b, cfg)
        except EmptyOverlap:
            rejected.append(PairRejection(a, b, RejectReason.NEVER_PATH_SHARING,
                                          detail="no co-observed window"))
            continue
        if isinstance(result, CriticalPair):
            accepted.append(result)
        else:
            rejected.append(result)
    return accepted, rejected
