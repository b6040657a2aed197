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

The closest recorded samples come from a uniform grid (Ericson, Real-Time
Collision Detection, 2004, section 7.1), not from every pair of samples.
Each sample goes into a square cell whose side is the largest distance the
bound can fail at: ``d_collision`` plus the margin plus twice the largest
half-step, padded by ``_CELL_PAD`` times that side and times the largest
|coordinate|, so that rounding in the binning never puts two samples within
that distance more than one cell apart. The candidates are the sample pairs
of one cell and of neighbouring cells; a pair of agents keeps the least
squared distance over its candidates, with the arithmetic of a full
distance matrix, and infinity where it has none. ``min`` is exact, and a
pair whose closest samples are not candidates is farther apart than a cell
side, so the answer equals the full matrix's on every pair. A non-finite
coordinate makes the bound's limit NaN or infinite, and then no pair is
rejected by it, without binning a sample. The candidates are expanded in
chunks of whole samples, each no larger than one agent's samples against
all samples: the one agent whose long step makes a cell of the whole scene
costs no more memory than a per-agent distance slab.

The other co-observed pairs of a scene get ``classify_pair``'s
``SharedFromStart`` answer from their early rows, all in one stack
(``_shared_from_start``). Only the pairs that neither the bound nor the
stack decides, and the pairs without a co-observed window, reach
``classify_pair``. The result equals ``classify_pair`` on every pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlap
from .types import (
    EvalConfig,
    Scene,
    co_observed,
    common_window,
    resample_rows,
    resample_trajectory,
)

_PRUNE_MARGIN = 1e-6  # metres; absolute part of the bound's rounding margin
_PRUNE_REL = 1e-12  # relative part, times the largest |coordinate| in the scene
_CELL_PAD = 1e-9  # the prune grid's cell pad, relative to the cell and to the largest |coordinate|
_MAX_CELLS = 2.0**31  # the prune grid's last cell index on each axis, so keys fit int64
_FAR, _SHARED_A, _SHARED_B = 1, 2, 3  # a pair's stacked answer; 0 leaves it to classify_pair


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
    t_ps_a: float  # first shared-path time of each agent
    t_ps_b: float
    dt_ps: float  # |t_ps_b - t_ps_a|
    min_distance: float  # real-time closest approach over the window


def _distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``xa`` to every row of ``xb``:
    ``sqrt(dx*dx + dy*dy)``, the same bits as a sum over the last axis of
    the squared differences, without numpy's slow reduction over a length-2
    axis."""
    dx = np.subtract.outer(xa[:, 0], xb[:, 0])
    dy = np.subtract.outer(xa[:, 1], xb[:, 1])
    return np.sqrt(dx * dx + dy * dy)


def classify_pair(scene: Scene, a: str, b: str,
                  cfg: EvalConfig) -> CriticalPair | PairRejection:
    """Apply the three safety-critical criteria to one agent pair.

    Both co-observed windows are resampled by ``cfg.interp_factor``. A sample
    of one agent lies on the commonly shared path when some sample of the
    other is strictly closer than ``cfg.d_collision``. An interpolated sample
    maps back to the original frame at or before it (index // factor), so a
    first shared-path time is the earliest possible frame. A pair whose
    first shared-path time (A's first, then B's) is at or before ``t_min``
    is ``SharedFromStart``.

    The filter answers ``SharedFromStart`` for most pairs in one stack
    (``_shared_from_start``) and calls this only for the pairs left over.
    """
    wa, wb, t = common_window(scene.agent(a).trajectory, scene.agent(b).trajectory)
    factor = cfg.interp_factor
    d = _distances(resample_trajectory(wa, factor).xy, resample_trajectory(wb, factor).xy)
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


def _never_sharing(xy: np.ndarray, start: np.ndarray, cfg: EvalConfig) -> np.ndarray:
    """For the k agents laid out back to back (agent m's samples at
    ``start[m]:start[m + 1]``): whether the scene-level bound (module
    docstring) holds for each pair, in ``np.triu_indices(k, 1)`` order."""
    k = len(start) - 1
    n_samples = len(xy)
    n = start[1:] - start[:-1]
    steps = np.zeros(n_samples)
    steps[:-1] = np.hypot(*np.diff(xy, axis=0).T)
    steps[start[1:] - 1] = 0.0  # no step from one agent's last sample to the next agent
    half = np.maximum.reduceat(steps, start[:-1]) / 2.0
    scale = np.abs(xy).max()
    limit = cfg.d_collision + _PRUNE_MARGIN + _PRUNE_REL * scale
    if not math.isfinite(limit):  # a non-finite coordinate: no pair is proved far
        return np.zeros(k * (k - 1) // 2, dtype=bool)
    reach = limit + 2.0 * half.max()
    side = reach + _CELL_PAD * (reach + scale)
    # no scaled coordinate is negative, so truncation is the floor; the pad's
    # coordinate term keeps a finite one below 2e9, and the clamp puts the inf
    # or NaN of an overflow in the last cell
    cell = np.fmin((xy - xy.min(axis=0)) / side, _MAX_CELLS).astype(np.int64)
    width = int(cell[:, 1].max()) + 2  # so a key's column wraps into an empty row
    key = cell[:, 0] * width + cell[:, 1]
    order = np.argsort(key)
    key = key[order]
    x, y = xy[order, 0], xy[order, 1]
    agents = np.arange(k)
    agent = np.repeat(agents, n)[order]
    # sample s against the later samples of its own cell and of the next
    # cell up (keys key[s] and key[s] + 1), then against the three cells of
    # the next column (keys key[s] + width - 1 to key[s] + width + 1): each
    # pair of samples in one cell or in neighbouring cells once
    row = np.empty((n_samples, 4), dtype=np.intp)
    row[:, 0] = np.arange(1, n_samples + 1)
    row[:, 1:] = np.searchsorted(key, key + np.array([[1], [width - 2], [width + 1]]), "right").T
    row_start = row[:, ::2].ravel()
    row_len = row[:, 1::2].ravel() - row_start
    row_base = row_start - (np.cumsum(row_len) - row_len)
    each = row_len[::2] + row_len[1::2]  # candidates per sample
    done = np.cumsum(each)
    nearest = np.full(k * k, np.inf)  # pair (i, j) at i * k + j and j * k + i
    # chunks of whole samples, each no larger than the largest agent's
    # samples against all samples (one sample has fewer candidates)
    budget = int(n.max()) * n_samples
    lo = c0 = 0
    while lo < n_samples:
        hi = int(np.searchsorted(done, c0 + budget, "right"))
        c1 = int(done[hi - 1])
        q = np.repeat(row_base[2 * lo:2 * hi], row_len[2 * lo:2 * hi])
        q += np.arange(c0, c1)
        d2 = np.repeat(x[lo:hi], each[lo:hi])
        d2 -= x[q]
        np.square(d2, out=d2)
        dy = np.repeat(y[lo:hi], each[lo:hi])
        dy -= y[q]
        d2 += np.square(dy, out=dy)
        np.minimum.at(nearest, np.repeat(agent[lo:hi] * k, each[lo:hi]) + agent[q], d2)
        lo, c0 = hi, c1
    nearest = nearest.reshape(k, k)
    nearest = np.minimum(nearest, nearest.T)
    return (np.sqrt(nearest) - half[:, None] - half > limit)[np.less.outer(agents, agents)]


def _shared_from_start(t: np.ndarray, xy: np.ndarray, rows_a: np.ndarray,
                       rows_b: np.ndarray, count: np.ndarray, cfg: EvalConfig) -> np.ndarray:
    """``classify_pair``'s ``SharedFromStart`` answer on a stack of pairs,
    from the early rows alone.

    Pair p's window is ``count[p]`` samples of the laid-out ``t`` and ``xy``
    from ``rows_a[p]`` (agent A) and from ``rows_b[p]`` (agent B). A
    resampled row maps to the frame ``index // interp_factor``, so an
    agent's first shared-path time is at or before ``t_min`` exactly when
    one of its early rows (``interp_factor`` per window frame at or before
    ``t_min``) lies within ``d_collision`` of some sample of the other.
    Returns per pair ``_SHARED_A`` where A's early rows share a path, else
    ``_SHARED_B`` where B's do, else 0, which leaves the pair to
    ``classify_pair``. One shared cell gives both agents a shared sample, so
    a pair answered here is never ``NeverPathSharing``.

    The pairs go in chunks of ``max(1, M // (2E))`` for M resampled samples
    and E early rows at most. A chunk's (sides, pairs, early rows, samples)
    cube is then no larger than an M x M distance matrix (the longest
    pair's full matrix), or twice that where a chunk holds one pair (E past
    M / 2). In each chunk, both
    sides' windows are padded by repeating their last sample and resampled
    in one call, bit-equal to ``resample_trajectory`` on each window below
    its length, and both checks run as one masked distance op. Window times
    increase (``validate_scene``), so a padded time counts as early only
    where the whole window is, and the clamp to the resampled length undoes
    it.
    """
    factor = cfg.interp_factor
    n_pairs = len(count)
    # past its end, a window repeats its last sample
    steps = np.minimum(np.arange(count.max()), count[:, None] - 1)
    tw = t[rows_a[:, None] + steps]
    t_min = tw[:, :1] if cfg.t_min is None else cfg.t_min
    length = (count - 1) * factor + 1
    early = np.minimum((tw <= t_min).sum(axis=1) * factor, length)
    n_early = int(early.max())
    if not n_early:
        return np.zeros(n_pairs, dtype=np.int8)
    m = int(length.max())  # resampled samples per row
    shared = np.empty((2, n_pairs), dtype=bool)
    chunk = max(1, m // (2 * n_early))
    for c in range(0, n_pairs, chunk):
        p = slice(c, c + chunk)
        # one row per coordinate, side and pair
        windows = xy.T[:, np.stack((rows_a[p], rows_b[p]))[..., None] + steps[p]]
        rows, _ = resample_rows(windows.reshape(-1, steps.shape[1], 1),
                                np.tile(count[p], 4), factor)
        x, y = rows.reshape(2, 2, -1, m)
        ok = ((np.arange(n_early) < early[p, None])[:, :, None]
              & (np.arange(m) < length[p, None])[:, None, :])
        # each side's early rows against all of the other side's samples,
        # with _distances' arithmetic, in place to hold two cubes at most
        d2 = x[:, :, :n_early, None] - x[::-1, :, None, :]
        dy = y[:, :, :n_early, None] - y[::-1, :, None, :]
        d2 *= d2
        dy *= dy
        d2 += dy
        near = np.sqrt(d2, out=d2) < cfg.d_collision
        shared[:, p] = (near & ok).any(axis=(2, 3))
    return np.where(shared[0], _SHARED_A, np.where(shared[1], _SHARED_B, 0))


def filter_scene_with_rejections(
    scene: Scene, cfg: EvalConfig
) -> tuple[list[CriticalPair], list[PairRejection]]:
    """Accepted pairs over all N(N-1)/2 unordered combinations, sorted by id,
    and the reason each other pair was rejected.

    Every pair of the scene is decided in one stack: one ``co_observed``
    call gives every pair's window. Pairs that the scene-level bound (module
    docstring) proves never share a path are rejected without
    ``classify_pair``, and so are the co-observed pairs whose early rows
    share a path (``_shared_from_start``). Only the pairs that neither
    decides, and the pairs without a co-observed window, go through
    ``classify_pair``, in ``itertools.combinations`` order. The result
    equals ``classify_pair`` on every pair (of a scene whose timestamps
    increase, as ``validate_scene`` requires).
    """
    ids = sorted(scene.agents_by_id)
    trajs = [scene.agent(aid).trajectory for aid in ids]
    ii, jj = np.triu_indices(len(ids), 1)  # itertools.combinations order
    answer = np.zeros(len(ii), dtype=np.int8)  # 0: classify_pair
    n = np.array([tr.n for tr in trajs])
    if ii.size and n.min() >= 1:  # with an empty track, classify_pair decides every pair
        start = np.concatenate([[0], np.cumsum(n)])
        t = np.concatenate([tr.t for tr in trajs])
        xy = np.concatenate([tr.xy for tr in trajs])
        ok, ia, ib, count = co_observed(t, start, np.array([tr.dt for tr in trajs]), ii, jj)
        far = ok & _never_sharing(xy, start, cfg)
        answer[far] = _FAR
        stack = np.flatnonzero(ok & ~far)
        if stack.size:
            answer[stack] = _shared_from_start(
                t, xy, start[ii[stack]] + ia[stack].astype(int),
                start[jj[stack]] + ib[stack].astype(int), count[stack].astype(int), cfg)
    accepted, rejected = [], []
    for i, j, how in zip(ii.tolist(), jj.tolist(), answer.tolist()):
        a, b = ids[i], ids[j]
        if how == _FAR:
            rejected.append(PairRejection(a, b, RejectReason.NEVER_PATH_SHARING))
        elif how:
            rejected.append(PairRejection(a, b, RejectReason.SHARED_FROM_START,
                                          detail=a if how == _SHARED_A else b))
        else:
            try:
                result = classify_pair(scene, a, b, cfg)
            except EmptyOverlap:
                rejected.append(PairRejection(a, b, RejectReason.NEVER_PATH_SHARING,
                                              detail="no co-observed window"))
                continue
            (accepted if isinstance(result, CriticalPair) else rejected).append(result)
    return accepted, rejected
