"""Three-disk vehicle collision detection for time-aligned trajectory pairs.

Each vehicle is three disks of radius r = w/2, at its centre and at
+-(L/2 - r) along its heading. The disks are inscribed in the w x L
rectangle, so a disk collision implies that the rectangles overlap. The
converse does not hold: the rectangle point farthest from the disks lies
h = max((sqrt(2) - 1) r, sqrt((c/2)^2 + r^2) - r) away from them, c = L/2 - r
(a corner, or the side midway between two disk centres). Two overlapping
rectangles can be missed, but only while their disks are at most h_a + h_b
apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .types import Trajectory, resample_trajectory, trajectory_kinematics


@dataclass(frozen=True)
class VehicleDims:
    width: float
    length: float

    @property
    def radius(self) -> float:
        return self.width / 2.0


def _disk_center_tracks(traj: Trajectory, dims: VehicleDims) -> np.ndarray:
    """(T, 3, 2) disk centers along a trajectory, headings from positions."""
    headings, _ = trajectory_kinematics(traj)
    axis = np.stack([np.cos(headings), np.sin(headings)], axis=1)
    offset = dims.length / 2.0 - dims.radius
    pos = traj.xy
    return np.stack([pos - offset * axis, pos, pos + offset * axis], axis=1)


def min_disk_distance(ta: Trajectory, tb: Trajectory,
                      dims_a: VehicleDims, dims_b: VehicleDims) -> float:
    """Minimum distance over shared frames and all 9 disk-center pairs."""
    if ta.n != tb.n:
        raise LengthMismatch(f"trajectory lengths differ: {ta.n} vs {tb.n}")
    ca = _disk_center_tracks(ta, dims_a)  # (T, 3, 2)
    cb = _disk_center_tracks(tb, dims_b)
    diff = ca[:, :, None, :] - cb[:, None, :, :]  # (T, 3, 3, 2)
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return float(d.min())


def is_collision(ta: Trajectory, tb: Trajectory,
                 dims_a: VehicleDims, dims_b: VehicleDims,
                 interp_factor: int = 1) -> bool:
    """True iff the disk footprints overlap at any (interpolated) frame."""
    if interp_factor > 1:
        ta = resample_trajectory(ta, interp_factor)
        tb = resample_trajectory(tb, interp_factor)
    return min_disk_distance(ta, tb, dims_a, dims_b) < dims_a.radius + dims_b.radius
