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
from .types import EvalConfig, Scene, Trajectory, common_window, resample_trajectory


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


def filter_scene_with_rejections(
    scene: Scene, cfg: EvalConfig
) -> tuple[list[CriticalPair], list[PairRejection]]:
    """Accepted pairs over all N(N-1)/2 unordered combinations, sorted by id,
    and the reason each other pair was rejected."""
    accepted, rejected = [], []
    for a, b in itertools.combinations(sorted(scene.agent_ids), 2):
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
