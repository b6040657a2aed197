"""Three-disk vehicle collision detection for time-aligned position tracks.

Each vehicle is three disks of radius r = w/2, at its centre and at
+-(L/2 - r) along its heading. The disks are inscribed in the w x L
rectangle, so a disk collision implies that the rectangles overlap. The
converse does not hold: the rectangle point farthest from the disks lies
h = max((sqrt(2) - 1) r, sqrt((c/2)^2 + r^2) - r) away from them, c = L/2 - r
(a corner, or the side midway between two disk centres). Two overlapping
rectangles can be missed, but only while their disks are at most h_a + h_b
apart.

The checks run on stacks of rows: ``disk_tracks`` resamples a padded stack
of position rows with their lengths, and ``collisions`` checks each row
pair of two such stacks. ``is_collision`` is their one-row case.

``collisions`` lays out disks only where two vehicles come within reach.
Every disk centre lies within |L/2 - r| of its vehicle's centre, so two
disks can overlap only while the centres are closer than
reach = r_a + r_b + |L_a/2 - r_a| + |L_b/2 - r_b| (triangle inequality; a
bounding-circle test, Ericson, *Real-Time Collision Detection*, 2004,
ch. 4). One array op takes every row pair's squared centre distance at
every sample. Only the rows with some sample within reach, plus a rounding
margin (``_REACH_REL`` of reach and of the row pair's largest
|coordinate|), get headings, disks and the least distance over the 9 disk
pairs; the others are False. Resampling, the reach test and the disk layout
are row-local, so the near rows get the same bits as in a check of every
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, LengthMismatch, ShortTrajectory
from .types import kinematics_rows, resample_rows, valid_dims
# the benchmark's tracer patches these two names in this module
from .types import resample_trajectory, trajectory_kinematics  # noqa: F401

# relative rounding margin of the reach test, times reach and times the
# largest |coordinate| of the row pair (a few ulps would do)
_REACH_REL = 1e-12


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


class DiskTracks(NamedTuple):
    """A stack of resampled position rows and the disks laid along them.

    ``xy`` has shape (B, M, 2). Row b's samples are ``xy[b, :lengths[b]]``;
    the rest is padding. The front and rear disks sit ``offset`` ahead of
    and behind each position, along its heading.
    """

    xy: np.ndarray
    lengths: np.ndarray
    offset: float
    radius: float

    def rows(self, index) -> "DiskTracks":
        """The tracks of the rows at ``index`` (a numpy index along B)."""
        return DiskTracks(self.xy[index], self.lengths[index], self.offset, self.radius)

    @property
    def centers(self) -> np.ndarray:
        """(B, 3, 2, M) disk centres: row, disk (rear, centre, front),
        coordinate, sample; headings from positions."""
        headings, _ = kinematics_rows(self.xy, self.lengths, 1.0)
        pos = self.xy.transpose(0, 2, 1)  # (B, 2, M)
        step = self.offset * np.stack([np.cos(headings), np.sin(headings)], axis=1)
        return np.stack([pos - step, pos, pos + step], axis=1)


def disk_tracks(xy: np.ndarray, lengths: np.ndarray, dims: VehicleDims,
                interp_factor: int = 1) -> DiskTracks:
    """Resample each row of a padded (B, T, 2) stack of positions by
    ``interp_factor``, for disks of ``dims`` along its headings. Row b's
    samples are ``xy[b, :lengths[b]]``; whatever follows them is finite
    padding, which reaches no sample of the row."""
    xy, lengths = resample_rows(xy, lengths, interp_factor)
    if min(lengths.tolist(), default=2) < 2:
        raise ShortTrajectory("disk tracks need at least 2 samples per row")
    return DiskTracks(xy, lengths, dims.offset, dims.radius)


def min_disk_distances(a: DiskTracks, b: DiskTracks) -> np.ndarray:
    """Minimum distance of each row pair over its samples and all 9 disk-centre pairs."""
    if not np.array_equal(a.lengths, b.lengths):
        raise LengthMismatch(f"trajectory lengths differ: {a.lengths} vs {b.lengths}")
    ca, cb = a.centers, b.centers
    best = None
    for i in range(3):
        for j in range(3):
            dx = ca[:, i, 0] - cb[:, j, 0]
            dy = ca[:, i, 1] - cb[:, j, 1]
            d2 = dx * dx + dy * dy
            best = d2 if best is None else np.minimum(best, d2, out=best)
    valid = np.arange(best.shape[1]) < a.lengths[:, None]
    # sqrt is monotone and correctly rounded: sqrt of the least square is
    # the least distance, bit for bit
    return np.sqrt(np.where(valid, best, np.inf).min(axis=1))


def collisions(a: DiskTracks, b: DiskTracks) -> np.ndarray:
    """True for each row pair whose disk footprints overlap at any sample."""
    if not np.array_equal(a.lengths, b.lengths):
        raise LengthMismatch(f"trajectory lengths differ: {a.lengths} vs {b.lengths}")
    reach = a.radius + b.radius + abs(a.offset) + abs(b.offset)
    scale = np.maximum(np.abs(a.xy).max(axis=(1, 2), initial=0.0),
                       np.abs(b.xy).max(axis=(1, 2), initial=0.0))
    limit = reach * (1.0 + _REACH_REL) + _REACH_REL * scale
    d = a.xy - b.xy
    d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    valid = np.arange(d2.shape[1]) < a.lengths[:, None]
    near = np.flatnonzero((valid & (d2 <= (limit * limit)[:, None])).any(axis=1))
    hit = np.zeros(len(a.lengths), dtype=bool)
    if len(near):
        hit[near] = min_disk_distances(a.rows(near), b.rows(near)) < a.radius + b.radius
    return hit


def is_collision(xy_a: np.ndarray, xy_b: np.ndarray,
                 dims_a: VehicleDims, dims_b: VehicleDims,
                 interp_factor: int = 1) -> bool:
    """True iff the disk footprints of two time-aligned (n, 2) position
    arrays overlap at any (interpolated) frame."""
    return bool(collisions(
        disk_tracks(np.array([xy_a], dtype=float), np.array([len(xy_a)]), dims_a, interp_factor),
        disk_tracks(np.array([xy_b], dtype=float), np.array([len(xy_b)]), dims_b, interp_factor),
    )[0])
