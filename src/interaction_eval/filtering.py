"""Path-sharing analysis and the safety-critical interaction filter.

An agent pair is safety-critical when the two agents are not on a shared
path at the first co-observed time but enter one later, and do so within
a bounded time gap of each other (merging and crossing scenarios, as
opposed to car-following or parallel passing).

A scene-level bound rejects most far-apart pairs without ``classify_pair``.
Take the distance between the closest recorded samples of the two agents,
and subtract half of each agent's largest recorded step. A resampled sample
lies on a recorded step, so within half of that step of a recorded sample.
If the result is more than ``d_collision`` plus a rounding margin
(``_PRUNE_MARGIN``, plus ``_PRUNE_REL`` times the largest |coordinate| in
the scene), no resampled samples of the two can come within ``d_collision``
of each other. A co-observed pair with such a bound is rejected as
``NeverPathSharing`` without calling ``classify_pair``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlap
from .types import (
    EvalConfig,
    Scene,
    Trajectory,
    co_observed,
    common_window,
    resample_trajectory,
)

_PRUNE_MARGIN = 1e-6  # metres; absolute part of the bound's rounding margin
_PRUNE_REL = 1e-12  # relative part, times the largest |coordinate| in the scene


@dataclass(frozen=True)
class PathSharingResult:
    t_ps_a: float  # first shared-path time of each agent
    t_ps_b: float
    dt_ps: float  # |t_ps_b - t_ps_a|


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
    min_distance: float  # real-time closest approach over the window


def _distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``xa`` to every row of ``xb``."""
    diff = xa[:, None, :] - xb[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def classify_pair(scene: Scene, a: str, b: str,
                  cfg: EvalConfig) -> CriticalPair | PairRejection:
    """Apply the three safety-critical criteria to one agent pair.

    Both co-observed windows are resampled by ``cfg.interp_factor``. A sample
    of one agent lies on the commonly shared path when some sample of the
    other is strictly closer than ``cfg.d_collision``. An interpolated sample
    maps back to the original frame at or before it (index // factor), so a
    first shared-path time is the earliest possible frame.

    ``SharedFromStart`` depends only on the resampled rows of the frames at
    or before ``t_min``, so those rows are checked against the other agent's
    samples (A's first, then B's) before the full distance matrix is built.
    One shared cell gives both agents a shared sample, so no pair that
    leaves there would have been ``NeverPathSharing``.
    """
    wa, wb, t = common_window(scene.agent(a).trajectory, scene.agent(b).trajectory)
    factor = cfg.interp_factor
    xa = resample_trajectory(wa, factor).xy
    xb = resample_trajectory(wb, factor).xy
    t_min = cfg.t_min if cfg.t_min is not None else float(t[0])
    # rows mapping to a frame at or before t_min
    early = int(np.count_nonzero(t <= t_min)) * factor
    if (_distances(xa[:early], xb) < cfg.d_collision).any():
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=a)
    if (_distances(xa, xb[:early]) < cfg.d_collision).any():
        return PairRejection(a, b, RejectReason.SHARED_FROM_START, detail=b)
    d = _distances(xa, xb)
    shared = d < cfg.d_collision
    rows = np.flatnonzero(shared.any(axis=1))
    if not rows.size:  # one shared cell would give each agent a shared sample
        return PairRejection(a, b, RejectReason.NEVER_PATH_SHARING)
    cols = np.flatnonzero(shared.any(axis=0))
    t_ps_a = float(t[rows[0] // factor])
    t_ps_b = float(t[cols[0] // factor])
    dt_ps = abs(t_ps_b - t_ps_a)
    if dt_ps > cfg.dt_ps_max:
        return PairRejection(a, b, RejectReason.TIME_GAP_TOO_LARGE, detail=f"{dt_ps:.3f}")
    return CriticalPair(agent_a=a, agent_b=b,
                        sharing=PathSharingResult(t_ps_a=t_ps_a, t_ps_b=t_ps_b, dt_ps=dt_ps),
                        min_distance=float(d.diagonal().min()))


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
    t = np.concatenate([tr.t for tr in trajs])
    dt = np.array([tr.dt for tr in trajs])
    for i in range(k - 1):
        rest = xy[start[i + 1]:]
        d2 = np.square(np.subtract.outer(trajs[i].xy[:, 0], rest[:, 0]))
        d2 += np.square(np.subtract.outer(trajs[i].xy[:, 1], rest[:, 1]))
        nearest = np.minimum.reduceat(d2.min(axis=0), start[i + 1:-1] - start[i + 1])
        js = i + 1 + np.flatnonzero(np.sqrt(nearest) - half[i] - half[i + 1:] > limit)
        if js.size:
            far[i, js] = co_observed(t, start, dt, i, js)[0]
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
    ids = sorted(scene.agents_by_id)
    far = _never_sharing([scene.agent(aid).trajectory for aid in ids], cfg)
    accepted, rejected = [], []
    for (i, a), (j, b) in itertools.combinations(enumerate(ids), 2):
        if far[i, j]:
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
