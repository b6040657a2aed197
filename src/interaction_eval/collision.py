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
of position rows with their lengths and lays out their disks once, and
``collisions`` checks each row pair of two such stacks in one array
operation. ``is_collision`` is their one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatch
from .types import kinematics_rows, resample_rows
# the benchmark's tracer patches these two names in this module
from .types import resample_trajectory, trajectory_kinematics  # noqa: F401


@dataclass(frozen=True)
class VehicleDims:
    width: float
    length: float

    @property
    def radius(self) -> float:
        return self.width / 2.0


class DiskTracks(NamedTuple):
    """Disk centres along a stack of resampled rows.

    ``centers`` has shape (B, 3, 2, M): row, disk (rear, centre, front),
    coordinate, sample. Row b's samples are ``centers[b, ..., :lengths[b]]``;
    the rest is padding.
    """

    centers: np.ndarray
    lengths: np.ndarray
    radius: float

    def rows(self, index) -> "DiskTracks":
        """The tracks of the rows at ``index`` (a numpy index along B)."""
        return DiskTracks(self.centers[index], self.lengths[index], self.radius)


def disk_tracks(xy: np.ndarray, lengths: np.ndarray, dims: VehicleDims,
                interp_factor: int = 1) -> DiskTracks:
    """Resample each row of a padded (B, T, 2) stack of positions by
    ``interp_factor`` and lay its three disks along its headings from
    positions. Row b's samples are ``xy[b, :lengths[b]]``; whatever follows
    them is finite padding, which reaches no sample of the row."""
    xy, lengths = resample_rows(xy, lengths, interp_factor)
    headings, _ = kinematics_rows(xy, lengths, 1.0)
    pos = xy.transpose(0, 2, 1)  # (B, 2, M)
    step = (dims.length / 2.0 - dims.radius) * np.stack([np.cos(headings), np.sin(headings)],
                                                        axis=1)
    return DiskTracks(np.stack([pos - step, pos, pos + step], axis=1), lengths, dims.radius)


def min_disk_distances(a: DiskTracks, b: DiskTracks) -> np.ndarray:
    """Minimum distance of each row pair over its samples and all 9 disk-centre pairs."""
    if not np.array_equal(a.lengths, b.lengths):
        raise LengthMismatch(f"trajectory lengths differ: {a.lengths} vs {b.lengths}")
    best = None
    for i in range(3):
        for j in range(3):
            dx = a.centers[:, i, 0] - b.centers[:, j, 0]
            dy = a.centers[:, i, 1] - b.centers[:, j, 1]
            d2 = dx * dx + dy * dy
            best = d2 if best is None else np.minimum(best, d2, out=best)
    valid = np.arange(best.shape[1]) < a.lengths[:, None]
    # sqrt is monotone and correctly rounded: sqrt of the least square is
    # the least distance, bit for bit
    return np.sqrt(np.where(valid, best, np.inf).min(axis=1))


def collisions(a: DiskTracks, b: DiskTracks) -> np.ndarray:
    """True for each row pair whose disk footprints overlap at any sample."""
    return min_disk_distances(a, b) < a.radius + b.radius


def is_collision(xy_a: np.ndarray, xy_b: np.ndarray,
                 dims_a: VehicleDims, dims_b: VehicleDims,
                 interp_factor: int = 1) -> bool:
    """True iff the disk footprints of two time-aligned (n, 2) position
    arrays overlap at any (interpolated) frame."""
    return bool(collisions(
        disk_tracks(np.array([xy_a], dtype=float), np.array([len(xy_a)]), dims_a, interp_factor),
        disk_tracks(np.array([xy_b], dtype=float), np.array([len(xy_b)]), dims_b, interp_factor),
    )[0])
