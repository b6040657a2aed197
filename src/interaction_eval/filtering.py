"""Path-sharing analysis and the safety-critical interaction filter.

An agent pair is safety-critical when the two agents are not on a shared
path at the first co-observed time but enter one later, and do so within
a bounded time gap of each other (merging and crossing scenarios, as
opposed to car-following or parallel passing).

Both co-observed windows are resampled by ``interp_factor``. A sample of one
agent lies on the commonly shared path when some sample of the other is
strictly closer than ``d_collision``, by ``sqrt(dx*dx + dy*dy)``. Every pair
of a scene is decided in one stack, in three stages; the result equals that
test on a full distance matrix per pair, on every pair.

A scene-level bound rejects most far-apart pairs first. Take the distance
between the closest recorded samples of the two agents, and subtract half of
each agent's largest recorded step. A resampled sample lies on a recorded
step, so within half of that step of a recorded sample. If the result is
more than ``d_collision`` plus a rounding margin (``_PRUNE_MARGIN``, plus
``_PRUNE_REL`` times the largest |coordinate| in the scene), no resampled
samples of the two can come within ``d_collision`` of each other, and the
pair is ``NeverPathSharing``.

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

The other co-observed pairs get their ``SharedFromStart`` answer from their
early rows, all in one stack (``_shared_from_start``), in two steps. First,
A's early recorded samples (one per window frame at or before ``t_min``) are
checked against all of B's recorded window samples, with nothing resampled.
``resample_rows`` pins every recorded sample exactly (each new sample at a
whole fractional index is set to its original), so each of these sample
pairs is a candidate of the full check with the same coordinates, and the
check's arithmetic (the difference, squared in place, added, then
``sqrt(...) < d_collision``) gives it the same bits. A hit is therefore a hit of A's early rows in the full matrix, and the
pair is ``SharedFromStart`` on A's side whatever B's rows hold: in follower
traffic almost every pair ends here. Only the pairs without a hit have both
windows resampled, and each side's early rows checked against the other
side's samples, A's side and then B's. The recorded samples go in chunks of
pairs whose (pairs, early samples, samples) cube holds at most one M x M
matrix of the stack's longest pair, as a user ``t_min`` late in the window
makes it n x n per pair. The pairs that neither decides go through one
stacked grid pass (``_first_shared``).
Their windows are padded and resampled in one call, and every finite
resampled sample is binned on one grid keyed by (stacked pair, cell), with
cells of side ``d_collision`` and the same pad; the pair is the key's most
significant part, so no sample meets another pair's. Each A sample meets
only the B samples of its own pair in the 3 x 3 cells around its own, and
a candidate is shared where its distance, with the full matrix's
arithmetic, is below ``d_collision``. Every sample pair that can be shared
is a candidate, and ``min`` is exact, so each pair's first shared A row,
first shared B sample and same-index distance minimum (with ``np.min``'s
NaN rule) have the full matrix's bits. One rule then maps them to the
answer: ``t_ps = t[index // interp_factor]`` of A's window times, then
``NeverPathSharing``, ``SharedFromStart`` (A's first, then B's),
``TimeGapTooLarge`` or accepted. A NaN or infinite sample is never binned
and so never shares a path, as in the matrix, where a comparison with NaN
is False, and the filter meets it without a numpy warning.

The candidates go in chunks of whole A samples, each no larger than the
longest stacked pair's full M x M distance matrix. A chunk holds at most
four float64 or int64 arrays of that size at once, and one bool array, so
the pass's peak stays within five such matrices, beside about twenty 8-byte
values per resampled sample of the stack.

A pair without a co-observed window is ``NeverPathSharing`` with the
detail "no co-observed window". ``classify_pair`` is the stack's one-pair
case.

The filter's answer is the accepted ``CriticalPair`` records, which are few,
and one ``PairFates`` table for the scene: the agent ids, one ``int8`` fate
code per pair in ``np.triu_indices`` order, and the ``dt_ps`` of the
``TimeGapTooLarge`` pairs. No ``PairRejection`` is made while deciding;
``PairFates.rejections`` renders them when they are read, and is the one
place that formats a rejection's detail. The table keeps every input of the
detail: a fate code names the reason, the side that shares a path from the
start and a missing window, the pair's index names its ids, and ``dt_ps``
keeps the float that ``.3f`` formats. So the rendered records equal, field
for field and in the same order, those a per-pair loop would have made.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .types import EvalConfig, Scene, Trajectory, _resample_columns, co_observed
# the benchmark's tracer patches this name in this module
from .types import resample_trajectory  # noqa: F401

_PRUNE_MARGIN = 1e-6  # metres; absolute part of the bound's rounding margin
_PRUNE_REL = 1e-12  # relative part, times the largest |coordinate| in the scene
_CELL_PAD = 1e-9  # the grids' cell pad, relative to the cell and to the largest |coordinate|
_MAX_CELLS = 2**62  # (group, column, row) cells a grid's keys address, so keys fit int64
# a pair's fate code in PairFates; _shared_from_start leaves 0 open
_NEVER, _NO_WINDOW, _SHARED_A, _SHARED_B, _GAP, _ACCEPT = range(1, 7)
_NO_SAMPLE = Trajectory(t=np.array([np.nan]), xy=np.full((1, 2), np.nan), dt=1.0)


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


@dataclass(frozen=True, eq=False)
class PairFates:
    """Every pair's fate in one scene, as one table (module docstring).

    Pair p of the agents ``ids`` is ``(ids[i], ids[j])`` for the p-th
    ``(i, j)`` of ``np.triu_indices(len(ids), 1)``, and ``fate[p]`` is its
    code, ``_NEVER`` to ``_ACCEPT``. ``dt_ps`` holds the ``dt_ps`` of the
    pairs coded ``_GAP``, in pair order.
    """
    ids: list[str]
    fate: np.ndarray  # int8, one per pair
    dt_ps: np.ndarray  # float64, one per TimeGapTooLarge pair

    @property
    def n_rejected(self) -> int:
        return int(np.count_nonzero(self.fate != _ACCEPT))

    def rejections(self) -> list[PairRejection]:
        """A ``PairRejection`` per rejected pair, in pair order."""
        ii, jj = np.triu_indices(len(self.ids), 1)
        rejected = np.flatnonzero(self.fate != _ACCEPT)
        ids, gaps = self.ids, iter(self.dt_ps.tolist())
        out = []
        for i, j, how in zip(ii[rejected].tolist(), jj[rejected].tolist(),
                             self.fate[rejected].tolist()):
            a, b = ids[i], ids[j]
            if how == _NEVER:
                out.append(PairRejection(a, b, RejectReason.NEVER_PATH_SHARING))
            elif how == _NO_WINDOW:
                out.append(PairRejection(a, b, RejectReason.NEVER_PATH_SHARING,
                                         detail="no co-observed window"))
            elif how == _GAP:
                out.append(PairRejection(a, b, RejectReason.TIME_GAP_TOO_LARGE,
                                         detail=f"{next(gaps):.3f}"))
            else:
                out.append(PairRejection(a, b, RejectReason.SHARED_FROM_START,
                                         detail=a if how == _SHARED_A else b))
        return out


def classify_pair(scene: Scene, a: str, b: str,
                  cfg: EvalConfig) -> CriticalPair | PairRejection:
    """Apply the three safety-critical criteria to one agent pair: the
    filter's stack on the pair alone (module docstring).

    An interpolated sample maps back to the original frame at or before it
    (index // factor), so a first shared-path time is the earliest possible
    frame. A pair whose first shared-path time (A's first, then B's) is at
    or before ``t_min`` is ``SharedFromStart``, and a pair without a
    co-observed window is ``NeverPathSharing`` with the detail "no
    co-observed window".
    """
    accepted, fates = _classify([a, b], [scene.agent(a).trajectory,
                                         scene.agent(b).trajectory], cfg)
    return accepted[0] if accepted else fates.rejections()[0]


def _grid(xy: np.ndarray, reach: float, scale: float, group: np.ndarray | int = 0,
          n_groups: int = 1) -> tuple[np.ndarray, int]:
    """Each sample's key on a uniform grid, one grid per group, and the
    key's width W.

    The square cells are ``reach`` wide, padded by ``_CELL_PAD`` times
    ``reach`` and ``scale`` (the largest |coordinate|), so that two samples
    within ``reach`` of each other by the computed arithmetic lie in one
    cell or in neighbouring cells. Cell (column c, row r) of group g has the
    key (g * W + c) * W + r. Cells are clamped to W - 2, so the last column
    and the last row of each group are empty, and a key's neighbours one
    row or one column past its group's edge hold no sample. The clamp also
    puts the inf or NaN of an overflow in the last cell; clamping only
    merges far cells, which adds candidates and loses none.
    """
    side = reach + _CELL_PAD * (reach + scale)
    width = math.isqrt(_MAX_CELLS // n_groups)
    # each column's own minimum: numpy reduces an (n, 2) array over n slowly
    low = [xy[:, 0].min(initial=np.inf), xy[:, 1].min(initial=np.inf)]
    # no scaled coordinate is negative, so truncation is the floor; the
    # pad's coordinate term keeps a finite one below 2e9
    cell = np.fmin((xy - low) / side, width - 2).astype(np.int64)
    return (group * width + cell[:, 0]) * width + cell[:, 1], width


def _candidates(starts: np.ndarray, stops: np.ndarray, budget: int):
    """Expand each query's ranges of partner positions in chunks.

    Query s's partners are the positions ``starts[k, s]:stops[k, s]`` over
    its ranges k. Yields ``(lo, hi, each, q)``: the queries lo:hi, the
    number of partners of each, and their partners back to back. A chunk
    holds whole queries and at most ``budget`` partners; no query may have
    more.
    """
    r, n = starts.shape
    lengths = stops - starts
    each = lengths.sum(axis=0)
    start = starts.T.ravel()
    length = lengths.T.ravel()
    base = start - (np.cumsum(length) - length)
    done = np.cumsum(each)
    lo = c0 = 0
    while lo < n:
        hi = int(np.searchsorted(done, c0 + budget, "right"))
        c1 = int(done[hi - 1])
        q = np.repeat(base[r * lo:r * hi], length[r * lo:r * hi])
        q += np.arange(c0, c1)
        yield lo, hi, each[lo:hi], q
        lo, c0 = hi, c1


def _squared_distances(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray,
                       each: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``dx*dx + dy*dy`` of each query sample (xa, ya), taken ``each`` times,
    to its partners ``q`` of (xb, yb): a full distance matrix's arithmetic,
    without numpy's slow reduction over a length-2 axis."""
    d2 = np.repeat(xa, each)
    d2 -= xb[q]
    d2 *= d2
    dy = np.repeat(ya, each)
    dy -= yb[q]
    dy *= dy
    d2 += dy
    return d2


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
    key, width = _grid(xy, limit + 2.0 * half.max(), scale)
    order = np.argsort(key)
    key = key[order]
    x, y = xy[order, 0], xy[order, 1]
    agents = np.arange(k)
    agent = np.repeat(agents, n)[order]
    # sample s against the later samples of its own cell and of the next
    # cell up (keys key[s] and key[s] + 1), then against the three cells of
    # the next column (keys key[s] + width - 1 to key[s] + width + 1): each
    # pair of samples in one cell or in neighbouring cells once
    ends = np.searchsorted(key, key + np.array([[1], [width - 2], [width + 1]]), "right")
    starts = np.array((np.arange(1, n_samples + 1), ends[1]))
    nearest = np.full(k * k, np.inf)  # pair (i, j) at i * k + j and j * k + i
    # chunks no larger than the largest agent's samples against all samples
    # (one sample has fewer candidates)
    for lo, hi, each, q in _candidates(starts, ends[::2], int(n.max()) * n_samples):
        np.minimum.at(nearest, np.repeat(agent[lo:hi] * k, each) + agent[q],
                      _squared_distances(x[lo:hi], y[lo:hi], x, y, each, q))
    nearest = nearest.reshape(k, k)
    nearest = np.minimum(nearest, nearest.T)
    return (np.sqrt(nearest) - half[:, None] - half > limit)[np.less.outer(agents, agents)]


def _windows(xy: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray, steps: np.ndarray,
             count: np.ndarray, factor: int) -> np.ndarray:
    """Both sides' resampled windows of a stack of pairs, as one (coordinate,
    side, pair, sample) array.

    Pair p's window is ``count[p]`` samples of the laid-out ``xy`` from
    ``rows_a[p]`` (side A) and from ``rows_b[p]`` (side B), padded to the
    width of ``steps`` by repeating its last sample. All of them are
    resampled in one call, bit-equal to ``resample_trajectory`` on each
    window below its length: pair p is a row of that width, whose four
    values are both sides' coordinates.
    """
    windows = xy.T[:, np.stack((rows_a, rows_b))[..., None] + steps]
    cols, _ = _resample_columns(windows.reshape(4, -1).T, np.full(len(count), steps.shape[1]),
                                factor)
    return cols.reshape(2, 2, len(count), -1)


def _within(xa, ya, xb, yb, d_collision: float) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy) < d_collision`` of broadcast operands, with the
    full matrix's arithmetic, in place to hold two of its arrays at most."""
    d2 = xa - xb
    dy = ya - yb
    d2 *= d2
    dy *= dy
    d2 += dy
    return np.sqrt(d2, out=d2) < d_collision


def _shared_from_start(t: np.ndarray, xy: np.ndarray, rows_a: np.ndarray,
                       rows_b: np.ndarray, count: np.ndarray, cfg: EvalConfig) -> np.ndarray:
    """The ``SharedFromStart`` answer on a stack of pairs, from the early
    rows alone.

    Pair p's window is ``count[p]`` samples of the laid-out ``t`` and ``xy``
    from ``rows_a[p]`` (agent A) and from ``rows_b[p]`` (agent B). A
    resampled row maps to the frame ``index // interp_factor``, so an
    agent's first shared-path time is at or before ``t_min`` exactly when
    one of its early rows (``interp_factor`` per window frame at or before
    ``t_min``) lies within ``d_collision`` of some sample of the other.
    Returns per pair ``_SHARED_A`` where A's early rows share a path, else
    ``_SHARED_B`` where B's do, else 0, which leaves the pair to
    ``_first_shared``. One shared cell gives both agents a shared sample, so
    a pair answered here is never ``NeverPathSharing``.

    A's early recorded samples are checked against B's recorded samples
    first (``_recorded_shared``); a hit there is a hit of the full check, so
    the pair is ``_SHARED_A``. Only the pairs with early rows and no such
    hit are resampled (``_resampled_shared``). Window times increase
    (``validate_scene``), so a padded time counts as early only where the
    whole window is, and the clamp to the resampled length undoes it.
    """
    factor = cfg.interp_factor
    how = np.zeros(len(count), dtype=np.int8)
    # past its end, a window repeats its last sample
    steps = np.minimum(np.arange(count.max()), count[:, None] - 1)
    tw = t[rows_a[:, None] + steps]
    t_min = tw[:, :1] if cfg.t_min is None else cfg.t_min
    length = (count - 1) * factor + 1
    early = np.minimum((tw <= t_min).sum(axis=1) * factor, length)
    if not early.any():
        return how
    m = int(length.max())
    # A's recorded samples among its early rows: one per early frame
    hit = _recorded_shared(xy, rows_a, rows_b, steps, -(-early // factor), m * m,
                           cfg.d_collision)
    how[hit] = _SHARED_A
    rest = np.flatnonzero(~hit & (early > 0))
    if rest.size:
        shared = _resampled_shared(xy, rows_a[rest], rows_b[rest], count[rest], early[rest],
                                   cfg)
        how[rest] = np.where(shared[0], _SHARED_A, np.where(shared[1], _SHARED_B, 0))
    return how


def _recorded_shared(xy: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray,
                     steps: np.ndarray, recorded: np.ndarray, budget: int,
                     d_collision: float) -> np.ndarray:
    """Whether one of A's first ``recorded[p]`` window samples lies within
    ``d_collision`` of one of B's window samples, per pair; the windows are
    ``rows_a[p] + steps[p]`` and ``rows_b[p] + steps[p]`` of the laid-out
    ``xy``.

    ``resample_rows`` keeps every recorded sample exactly, at every
    ``interp_factor``-th resampled sample, so these sample pairs are
    candidates of the full check, with its bits: a hit here is a hit there.
    The pairs go in chunks whose (pairs, A samples, B samples) cube holds at
    most ``budget`` values.
    """
    n_rec = int(recorded.max())
    chunk = max(1, budget // (n_rec * steps.shape[1]))
    hit = np.empty(len(rows_a), dtype=bool)
    for c in range(0, len(rows_a), chunk):
        p = slice(c, c + chunk)
        xa, ya = xy.T[:, rows_a[p, None] + steps[p, :n_rec], None]
        xb, yb = xy.T[:, rows_b[p, None, None] + steps[p, None]]
        near = _within(xa, ya, xb, yb, d_collision).any(axis=2)
        hit[p] = (near & (np.arange(n_rec) < recorded[p, None])).any(axis=1)
    return hit


def _resampled_shared(xy: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray,
                      count: np.ndarray, early: np.ndarray, cfg: EvalConfig) -> np.ndarray:
    """Whether each side's first ``early[p]`` resampled rows lie within
    ``d_collision`` of some resampled sample of the other side, as a (side,
    pair) array; the windows are given as for ``_shared_from_start``.

    The pairs go in chunks of ``max(1, M // (2E))`` for M resampled samples
    and E early rows at most. A chunk's (sides, pairs, early rows, samples)
    cube is then no larger than an M x M distance matrix (the longest
    pair's full matrix), or twice that where a chunk holds one pair (E past
    M / 2). In each chunk, both sides' windows are resampled in one call
    (``_windows``), and both checks run as one masked distance op.
    """
    factor = cfg.interp_factor
    steps = np.minimum(np.arange(count.max()), count[:, None] - 1)
    length = (count - 1) * factor + 1
    n_early = int(early.max())
    m = int(length.max())  # resampled samples per row
    shared = np.empty((2, len(count)), dtype=bool)
    chunk = max(1, m // (2 * n_early))
    for c in range(0, len(count), chunk):
        p = slice(c, c + chunk)
        x, y = _windows(xy, rows_a[p], rows_b[p], steps[p], count[p], factor)
        ok = ((np.arange(n_early) < early[p, None])[:, :, None]
              & (np.arange(m) < length[p, None])[:, None, :])
        # each side's early rows against all of the other side's samples
        near = _within(x[:, :, :n_early, None], y[:, :, :n_early, None],
                       x[::-1, :, None, :], y[::-1, :, None, :], cfg.d_collision)
        shared[:, p] = (near & ok).any(axis=(2, 3))
    return shared


def _first_shared(t: np.ndarray, xy: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray,
                  count: np.ndarray, cfg: EvalConfig):
    """Decide a stack of co-observed pairs in one grid pass (module
    docstring); the windows are given as for ``_shared_from_start``.

    Returns each pair's fate code, ``_NEVER`` to ``_ACCEPT``, and its
    ``t_ps_a``, ``t_ps_b``, ``dt_ps`` and ``min_distance``, each as one
    array in stack order (read only where the code is ``_GAP`` or
    ``_ACCEPT``). This is the one place that states the decision rule; in
    the filter, ``_shared_from_start`` has already given its
    ``SharedFromStart`` answers, so they do not recur here.
    """
    factor = cfg.interp_factor
    n_pairs = len(count)
    steps = np.minimum(np.arange(count.max()), count[:, None] - 1)
    length = (count - 1) * factor + 1
    windows = _windows(xy, rows_a, rows_b, steps, count, factor)
    x, y = windows
    m = x.shape[2]
    valid = np.arange(m) < length[:, None]
    # the same-index distances' minimum, NaN where one is NaN, as np.min
    dx = x[0] - x[1]
    dy = y[0] - y[1]
    distance = np.where(valid, np.sqrt(dx * dx + dy * dy), np.inf).min(axis=1)
    binned = valid & np.isfinite(x) & np.isfinite(y)
    side, pair, index = np.nonzero(binned)
    points = windows.reshape(2, -1).T[binned.ravel()]
    key, width = _grid(points, cfg.d_collision, np.abs(points).max(initial=0.0), pair, n_pairs)
    n_a = int(np.searchsorted(side, 1))  # the A samples come first
    order = n_a + np.argsort(key[n_a:])
    xa, ya = points[:n_a].T
    xb, yb, ib = points[order, 0], points[order, 1], index[order]
    # each A sample against the B samples of its pair in the three cells of
    # the column before its own, of its own column and of the column after
    # (keys key - width - 1 to key - width + 1, key - 1 to key + 1 and
    # key + width - 1 to key + width + 1)
    lim = np.searchsorted(key[order], key[:n_a] + np.array(
        [[-width - 2], [-width + 1], [-2], [1], [width - 2], [width + 1]]), "right")
    first = np.full((2, n_pairs), m)  # m: no shared sample
    for lo, hi, each, q in _candidates(lim[::2], lim[1::2], m * m):
        # no sample is NaN, so a distance not below d_collision is at or above it
        apart = (np.sqrt(_squared_distances(xa[lo:hi], ya[lo:hi], xb, yb, each, q))
                 >= cfg.d_collision)
        # the first shared B sample of each A sample with candidates (m where none)
        some = np.flatnonzero(each)
        first_b = np.minimum.reduceat(np.where(apart, m, ib[q]), (np.cumsum(each) - each)[some])
        some += lo
        np.minimum.at(first[1], pair[some], first_b)
        some = some[first_b < m]
        np.minimum.at(first[0], pair[some], index[some])
    # the first shared-path times as frames of A's window times (a pair
    # that shares no path reads its last frame, unused)
    t_ps = t[rows_a + np.minimum(first, length - 1) // factor]
    t_min = t[rows_a] if cfg.t_min is None else cfg.t_min
    dt_ps = np.abs(t_ps[1] - t_ps[0])
    how = np.select([first[0] == m, t_ps[0] <= t_min, t_ps[1] <= t_min, dt_ps > cfg.dt_ps_max],
                    [_NEVER, _SHARED_A, _SHARED_B, _GAP], _ACCEPT)
    return how, (t_ps[0], t_ps[1], dt_ps, distance)


def _classify(ids: list[str], trajs: list[Trajectory],
              cfg: EvalConfig) -> tuple[list[CriticalPair], PairFates]:
    """The accepted records and the fate table of every pair of the agents
    ``ids`` with tracks ``trajs``, in ``itertools.combinations`` order
    (module docstring)."""
    ii, jj = np.triu_indices(len(ids), 1)
    accepted: list[CriticalPair] = []
    gap_dt = np.zeros(0)
    if not ii.size:
        return accepted, PairFates(ids, np.zeros(0, dtype=np.int8), gap_dt)
    # an empty track is laid out as one NaN sample, which no window holds
    trajs = [tr if tr.n else _NO_SAMPLE for tr in trajs]
    n = np.array([tr.n for tr in trajs])
    start = np.concatenate([[0], np.cumsum(n)])
    t = np.concatenate([tr.t for tr in trajs])
    xy = np.concatenate([tr.xy for tr in trajs])
    ok, ia, ib, count = co_observed(t, start, np.array([tr.dt for tr in trajs]), ii, jj)
    fate = np.where(ok, _NEVER, _NO_WINDOW).astype(np.int8)
    stack = np.flatnonzero(ok & ~_never_sharing(xy, start, cfg))
    if stack.size:
        rows_a = start[ii[stack]] + ia[stack].astype(int)
        rows_b = start[jj[stack]] + ib[stack].astype(int)
        count = count[stack].astype(int)
        # an infinite coordinate meets inf * 0 and inf - inf: NaN, which never shares
        with np.errstate(invalid="ignore"):
            how = _shared_from_start(t, xy, rows_a, rows_b, count, cfg)
            rest = np.flatnonzero(how == 0)
            if rest.size:
                decided, (t_ps_a, t_ps_b, dt_ps, distance) = _first_shared(
                    t, xy, rows_a[rest], rows_b[rest], count[rest], cfg)
                how[rest] = decided
                gap_dt = dt_ps[decided == _GAP]
                kept = decided == _ACCEPT
                pairs = stack[rest[kept]]
                accepted = [CriticalPair(ids[i], ids[j], *v) for i, j, *v in zip(
                    ii[pairs].tolist(), jj[pairs].tolist(), t_ps_a[kept].tolist(),
                    t_ps_b[kept].tolist(), dt_ps[kept].tolist(), distance[kept].tolist())]
        fate[stack] = how
    return accepted, PairFates(ids, fate, gap_dt)


def filter_scene(scene: Scene, cfg: EvalConfig) -> tuple[list[CriticalPair], PairFates]:
    """Accepted pairs over all N(N-1)/2 unordered combinations, sorted by id,
    and the fate table of every pair.

    Every pair of the scene is decided in one stack (module docstring). The
    result equals the full matrix test on every pair (of a scene whose
    timestamps increase, as ``validate_scene`` requires).
    """
    ids = sorted(scene.agents_by_id)
    return _classify(ids, [scene.agent(aid).trajectory for aid in ids], cfg)


def filter_scene_with_rejections(
    scene: Scene, cfg: EvalConfig
) -> tuple[list[CriticalPair], list[PairRejection]]:
    """``filter_scene``'s accepted pairs, and its table rendered as the
    reason each other pair was rejected."""
    accepted, fates = filter_scene(scene, cfg)
    return accepted, fates.rejections()
