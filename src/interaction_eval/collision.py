"""Three-disk vehicle collision detection for time-aligned position tracks.

Each vehicle is three disks of radius r = w/2, at its centre and at
+-(L/2 - r) along its heading. The disks are inscribed in the w x L
rectangle, so a disk collision implies that the rectangles overlap. The
converse does not hold: the rectangle point farthest from the disks lies
h = max((sqrt(2) - 1) r, sqrt((c/2)^2 + r^2) - r) away from them, c = L/2 - r
(a corner, or the side midway between two disk centres). Two overlapping
rectangles can be missed, but only while their disks are at most h_a + h_b
apart.

``collisions`` is the one check: it takes two padded stacks of recorded
position rows with their lengths and each row's vehicle size, and
``is_collision`` is its one-row case. A size is the ``(radius, offset)`` the
disks are laid with (``VehicleDims.size``): one for every row of a stack, or
one per row, so that one call checks row pairs of many vehicle pairs. Each
row's arithmetic reads only its own size, so a row gets the same bits as in
a call that checks it alone.

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
that squared distance for every segment of every row pair. Only the rows
with some segment within reach, plus a rounding margin (``_REACH_REL`` of
reach and of the row pair's largest |coordinate|), are resampled and get
headings, disks and the least distance over the 9 disk pairs; the others
are False.

This gives the bits of a check that resamples and lays out every row. A
resampled centre lies on its recorded segment, to within rounding that the
margin covers, so a row pair the bound leaves far has no sample within
reach, and no overlap. Resampling, headings and the disk layout are
row-local, so a near row gets the same bits as in the check of every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthMismatch, ShortTrajectory
from .types import kinematics_rows, resample_rows, valid_dims
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
    """(B, 3, 2, M) disk centres of a padded (B, M, 2) stack of positions:
    row, disk (rear, centre, front), coordinate, sample. The front and rear
    disks sit ``offset`` (one for every row, or (B,) of them) ahead of and
    behind each position, along its heading from positions
    (``kinematics_rows``)."""
    headings, _ = kinematics_rows(xy, lengths, 1.0)
    pos = xy.transpose(0, 2, 1)  # (B, 2, M)
    step = (np.asarray(offset, dtype=float)[..., None, None]
            * np.stack([np.cos(headings), np.sin(headings)], axis=1))
    return np.stack([pos - step, pos, pos + step], axis=1)


def _check_rows(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray) -> None:
    if xy_a.shape != xy_b.shape:
        raise LengthMismatch(f"trajectory lengths differ: {xy_a.shape} vs {xy_b.shape}")
    if min(lengths.tolist(), default=2) < 2:
        raise ShortTrajectory("collision checks need at least 2 samples per row")


def min_disk_distances(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray,
                       size_a, size_b, interp_factor: int = 1) -> np.ndarray:
    """Minimum distance of each row pair over its samples, resampled by
    ``interp_factor``, and all 9 disk-centre pairs. ``size_a`` and ``size_b``
    are the ``(radius, offset)`` of every row (``VehicleDims.size``) or a
    (B, 2) array of each row's."""
    _check_rows(xy_a, xy_b, lengths)
    off_a, off_b = (_row_sizes(size, len(lengths))[:, 1] for size in (size_a, size_b))
    xy_a, m = resample_rows(xy_a, lengths, interp_factor)
    xy_b, _ = resample_rows(xy_b, lengths, interp_factor)
    ca, cb = disk_centers(xy_a, m, off_a), disk_centers(xy_b, m, off_b)
    best = None
    for i in range(3):
        for j in range(3):
            dx = ca[:, i, 0] - cb[:, j, 0]
            dy = ca[:, i, 1] - cb[:, j, 1]
            d2 = dx * dx + dy * dy
            best = d2 if best is None else np.minimum(best, d2, out=best)
    valid = np.arange(best.shape[1]) < m[:, None]
    # sqrt is monotone and correctly rounded: sqrt of the least square is
    # the least distance, bit for bit
    return np.sqrt(np.where(valid, best, np.inf).min(axis=1))


def collisions(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray,
               size_a, size_b, interp_factor: int = 1) -> np.ndarray:
    """True for each row pair of two padded (B, T, 2) stacks of positions
    whose disk footprints overlap at any sample, resampled by
    ``interp_factor``. Row b's samples are ``xy[b, :lengths[b]]``; whatever
    follows them is finite padding, which reaches no sample of the row.
    ``size_a`` and ``size_b`` are the ``(radius, offset)`` of every row
    (``VehicleDims.size``) or a (B, 2) array of each row's."""
    _check_rows(xy_a, xy_b, lengths)
    size_a, size_b = _row_sizes(size_a, len(lengths)), _row_sizes(size_b, len(lengths))
    touch = size_a[:, 0] + size_b[:, 0]
    reach = touch + np.abs(size_a[:, 1]) + np.abs(size_b[:, 1])
    scale = np.maximum(np.abs(xy_a).max(axis=(1, 2), initial=0.0),
                       np.abs(xy_b).max(axis=(1, 2), initial=0.0))
    limit = reach * (1.0 + _REACH_REL) + _REACH_REL * scale
    # each recorded segment's closest centre approach, d + tau * e
    d = xy_a - xy_b
    d, e = d[:, :-1], np.diff(d, axis=1)
    ee = e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1]
    de = d[..., 0] * e[..., 0] + d[..., 1] * e[..., 1]
    tau = np.clip(np.divide(-de, ee, out=np.zeros_like(ee), where=ee > 0), 0.0, 1.0)
    q = d + tau[..., None] * e
    d2 = q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1]
    valid = np.arange(d2.shape[1]) < (lengths - 1)[:, None]
    near = np.flatnonzero((valid & (d2 <= (limit * limit)[:, None])).any(axis=1))
    hit = np.zeros(len(lengths), dtype=bool)
    if len(near):
        hit[near] = (min_disk_distances(xy_a[near], xy_b[near], lengths[near], size_a[near],
                                        size_b[near], interp_factor)
                     < touch[near])
    return hit


def is_collision(xy_a: np.ndarray, xy_b: np.ndarray,
                 dims_a: VehicleDims, dims_b: VehicleDims,
                 interp_factor: int = 1) -> bool:
    """True iff the disk footprints of two time-aligned (n, 2) position
    arrays overlap at any (interpolated) frame: ``collisions`` of one row."""
    return bool(collisions(np.array([xy_a], dtype=float), np.array([xy_b], dtype=float),
                           np.array([len(xy_a)]), dims_a.size, dims_b.size, interp_factor)[0])
