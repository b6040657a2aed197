"""Three-disk vehicle collision detection for time-aligned position tracks.

Each vehicle is three disks of radius r = w/2, at its centre and at
+-(L/2 - r) along its heading. The disks are inscribed in the w x L
rectangle, so a disk collision implies that the rectangles overlap. The
converse does not hold: the rectangle point farthest from the disks lies
h = max((sqrt(2) - 1) r, sqrt((c/2)^2 + r^2) - r) away from them, c = L/2 - r
(a corner, or the side midway between two disk centres). Two overlapping
rectangles can be missed, but only while their disks are at most h_a + h_b
apart.

``collisions`` is the one check: it takes two ragged stacks of recorded
position rows with their lengths and each row's vehicle size, and
``is_collision`` is its one-row case. A stack is an (N, 2) array of samples
with the rows back to back: row b is the next ``lengths[b]`` samples
(``types.row_starts``), and lengths that do not sum to N raise
LengthMismatch. A caller whose rows are all n samples long passes its
(B, n, 2) stack reshaped. A size is the ``(radius, offset)`` the disks are
laid with (``VehicleDims.size``): one for every row of a stack, or one per
row, so that one call checks row pairs of many vehicle pairs.

Callers that check many vehicle pairs at once (the IHS stage, the oracle's
collision tables) split them into runs of whole pairs of at most
``_CHUNK_SAMPLES`` row-samples each (``chunk_bounds``): one call over a busy
scene's every pair is slower than a call per pair, once its temporaries
outgrow the cache.

It lays out disks only where two vehicles come within reach. Every disk
centre lies within |L/2 - r| of its vehicle's centre, so two disks can
overlap only while the centres are closer than
reach = r_a + r_b + |L_a/2 - r_a| + |L_b/2 - r_b| (triangle inequality; a
bounding-circle test, Ericson, *Real-Time Collision Detection*, 2004,
ch. 4). Between two recorded samples both centres move linearly with the
same parameter, so their offset is d + tau e on each segment, and its
closest approach is at tau = clip(-d.e / e.e, 0, 1), with e.e = 0 read as
tau = 0 (the closest point on a segment, ibid., ch. 5). One array op takes
that squared distance for every segment of the stack; the segment from a
row's last sample to the next row's first is set to infinity, and each
row's least one is a ``reduceat`` over its own segments. Only the rows with
some segment within reach, plus a rounding margin (``_REACH_REL`` of reach
and of the largest |coordinate| of the row pair's own samples), are
resampled and get headings, disks and the least distance over the 9 disk
pairs; the others are False. Both sides of those rows are resampled and
laid out as one stack, and every op runs on 1-D columns of samples.

This gives the bits of a check that resamples and lays out every row. A
resampled centre lies on its recorded segment, to within rounding that the
margin covers, so a row pair the bound leaves far has no sample within
reach, and no overlap. Every step reads only its own row's samples: the
segment closest approach; the resampling (``u = k / factor`` from the
row's start, with its originals pinned); the central differences, and the
one-sided ones at each row's own ends; ``arctan2``, ``cos`` and ``sin``;
and the 9 squared distances. Each is a per-sample or per-segment op whose
bits do not depend on where in the stack the row lies, and the reductions
(max, min and any) are exact. The heading carried over degenerate steps
restarts at each row (``types.kinematics_rows``), so a row that starts
stationary gets heading 0, never the heading the row before it ended on.
A row therefore gets the same bits whatever rows stand beside it, and the
same as the zero-padded kernel this layout replaced, whose padding reached
no sample either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthMismatch, ShortTrajectory
from .types import _resample_columns, kinematics_rows, row_samples, row_starts, valid_dims
# the benchmark's tracer patches these two names in this module
from .types import resample_trajectory, trajectory_kinematics  # noqa: F401

# relative rounding margin of the reach test, times reach and times the
# largest |coordinate| of the row pair (a few ulps would do)
_REACH_REL = 1e-12
# row-samples (rows times stack width) of one collisions call over runs of
# whole vehicle pairs (chunk_bounds)
_CHUNK_SAMPLES = 16_384


@dataclass(frozen=True)
class VehicleDims:
    width: float
    length: float

    def __post_init__(self):
        if not valid_dims(self.width, self.length):
            raise ConfigError(
                f"invalid vehicle dimensions width={self.width}, length={self.length}")

    @property
    def radius(self) -> float:
        return self.width / 2.0

    @property
    def offset(self) -> float:
        """Distance from the centre disk to the front and rear disks."""
        return self.length / 2.0 - self.radius

    @property
    def size(self) -> tuple[float, float]:
        """``(radius, offset)``: what the collision kernel reads of a vehicle."""
        return self.radius, self.offset


def chunk_bounds(rows: list[int], widths: list[int]) -> list[tuple[int, int]]:
    """``(lo, hi)`` runs of consecutive items that split items of ``rows[k]``
    row pairs of ``widths[k]`` samples each, in order: each run holds at most
    ``_CHUNK_SAMPLES`` rows times its widest item's width, or one item."""
    bounds, lo, total, width = [], 0, 0, 0
    for k, (r, w) in enumerate(zip(rows, widths)):
        if k > lo and (total + r) * max(width, w) > _CHUNK_SAMPLES:
            bounds.append((lo, k))
            lo, total, width = k, 0, 0
        total, width = total + r, max(width, w)
    if rows:
        bounds.append((lo, len(rows)))
    return bounds


def _row_sizes(size, rows: int) -> np.ndarray:
    """(rows, 2) ``(radius, offset)`` of each row, from one size or one per row."""
    sizes = np.empty((rows, 2))
    sizes[:] = size
    return sizes


def disk_centers(xy: np.ndarray, lengths: np.ndarray, offset) -> np.ndarray:
    """(3, 2, N) disk centres of a ragged (N, 2) stack of positions (row b
    the next ``lengths[b]`` samples): disk (rear, centre, front),
    coordinate, sample. The front and rear disks sit ``offset`` (one for
    every row, or (B,) of them) ahead of and behind each position, along
    its heading from positions (``kinematics_rows``)."""
    headings, _ = kinematics_rows(xy, lengths, 1.0)
    offset = np.broadcast_to(np.asarray(offset, dtype=float), lengths.shape).repeat(lengths)
    pos = xy.T  # (2, N)
    centers = np.empty((3,) + pos.shape)
    centers[1] = pos
    # the front disks' step along the heading, then the rear and front
    # centres, each written in place
    step = centers[2]
    np.multiply(offset, np.cos(headings), out=step[0])
    np.multiply(offset, np.sin(headings), out=step[1])
    np.subtract(pos, step, out=centers[0])
    step += pos
    return centers


def _check_rows(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's start in the two stacks, once they hold the same rows of
    at least 2 samples each."""
    if xy_a.shape != xy_b.shape:
        raise LengthMismatch(f"trajectory lengths differ: {xy_a.shape} vs {xy_b.shape}")
    starts = row_starts(lengths, len(xy_a))
    if min(lengths.tolist(), default=2) < 2:
        raise ShortTrajectory("collision checks need at least 2 samples per row")
    return starts


def min_disk_distances(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray,
                       size_a, size_b, interp_factor: int = 1) -> np.ndarray:
    """Minimum distance of each row pair of two ragged (N, 2) stacks over
    its samples, resampled by ``interp_factor``, and all 9 disk-centre
    pairs. ``size_a`` and ``size_b`` are the ``(radius, offset)`` of every
    row (``VehicleDims.size``) or a (B, 2) array of each row's."""
    _check_rows(xy_a, xy_b, lengths)
    off_a, off_b = (_row_sizes(size, len(lengths))[:, 1] for size in (size_a, size_b))
    # both sides resampled and laid out as one ragged stack, a's rows then
    # b's, kept as columns (resample_rows before its C-ordered copy)
    cols, m = _resample_columns(np.concatenate((xy_a, xy_b)),
                                np.concatenate((lengths, lengths)), interp_factor)
    centers = disk_centers(cols.T, m, np.concatenate((off_a, off_b)))
    half = centers.shape[2] // 2
    ca, cb = centers[..., :half], centers[..., half:]
    best = None
    for i in range(3):
        for j in range(3):
            dx = ca[i, 0] - cb[j, 0]
            dy = ca[i, 1] - cb[j, 1]
            d2 = dx * dx + dy * dy
            best = d2 if best is None else np.minimum(best, d2, out=best)
    # sqrt is monotone and correctly rounded: sqrt of the least square is
    # the least distance, bit for bit
    return np.sqrt(np.minimum.reduceat(best, (m.cumsum() - m)[:len(lengths)]))


def collisions(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray,
               size_a, size_b, interp_factor: int = 1) -> np.ndarray:
    """True for each row pair of two ragged (N, 2) stacks of positions
    whose disk footprints overlap at any sample, resampled by
    ``interp_factor``. Row b of each stack is the next ``lengths[b]``
    samples (``row_starts``). ``size_a`` and ``size_b`` are the ``(radius,
    offset)`` of every row (``VehicleDims.size``) or a (B, 2) array of each
    row's."""
    starts = _check_rows(xy_a, xy_b, lengths)
    size_a, size_b = _row_sizes(size_a, len(lengths)), _row_sizes(size_b, len(lengths))
    hit = np.zeros(len(lengths), dtype=bool)
    touch = size_a[:, 0] + size_b[:, 0]
    reach = touch + np.abs(size_a[:, 1]) + np.abs(size_b[:, 1])
    # the largest |coordinate| of each row pair's own samples
    big = np.maximum(np.abs(xy_a), np.abs(xy_b))
    scale = np.maximum.reduceat(np.maximum(big[:, 0], big[:, 1]), starts)
    limit = reach * (1.0 + _REACH_REL) + _REACH_REL * scale
    # each recorded segment's closest centre approach, d + tau * e; the
    # segment from a row's last sample to the next row's first is none
    dx, dy = xy_a[:, 0] - xy_b[:, 0], xy_a[:, 1] - xy_b[:, 1]
    ex, ey = dx[1:] - dx[:-1], dy[1:] - dy[:-1]
    dx, dy = dx[:-1], dy[:-1]
    ee = ex * ex + ey * ey
    de = dx * ex + dy * ey
    tau = np.clip(np.divide(-de, ee, out=np.zeros_like(ee), where=ee > 0), 0.0, 1.0)
    qx, qy = dx + tau * ex, dy + tau * ey
    d2 = qx * qx + qy * qy
    d2[starts[1:] - 1] = np.inf
    # fmin skips NaN, as a test of every segment would
    near = np.flatnonzero(np.fmin.reduceat(d2, starts) <= limit * limit)
    if len(near):
        at = row_samples(starts[near], lengths[near])
        hit[near] = (min_disk_distances(xy_a.take(at, axis=0), xy_b.take(at, axis=0),
                                        lengths[near], size_a[near], size_b[near],
                                        interp_factor)
                     < touch[near])
    return hit


def is_collision(xy_a: np.ndarray, xy_b: np.ndarray,
                 dims_a: VehicleDims, dims_b: VehicleDims,
                 interp_factor: int = 1) -> bool:
    """True iff the disk footprints of two time-aligned (n, 2) position
    arrays overlap at any (interpolated) frame: ``collisions`` of one row."""
    return bool(collisions(np.asarray(xy_a, dtype=float), np.asarray(xy_b, dtype=float),
                           np.array([len(xy_a)]), dims_a.size, dims_b.size, interp_factor)[0])
