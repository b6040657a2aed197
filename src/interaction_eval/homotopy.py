"""Winding angle between two position tracks and its interaction class.

The interaction class of an agent pair is read off the cumulative rotation
of the relative position vector: a clockwise rotation (negative winding)
means one agent passes behind the other, counterclockwise the reverse.
``winding_rows`` winds a ragged stack of rows, back to back, in one call.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import LengthMismatch
from .types import _DEGENERATE_DISP, row_samples, row_starts


class HomotopyClass(enum.Enum):
    CW = "CW"
    CCW = "CCW"
    S = "S"

    def __str__(self) -> str:
        return self.value


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    w = (x + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(w <= -np.pi, w + 2.0 * np.pi, w)


def winding_rows(rel: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Cumulative wrapped change of the bearing of each row of a ragged
    (N, 2) stack of relative positions (position_A - position_B). Row b is
    the next ``lengths[b]`` samples (``row_starts``); a length under 1 raises
    LengthMismatch.

    Frames where the agents (near-)coincide contribute a zero increment and
    carry the row's last well-defined bearing forward, restarting at each
    row. Each row is summed on its own slice, so it gets the bits of a call
    on it alone; ``np.add.reduceat`` would round differently.

    Swapping the agents negates the relative vector, which adds pi to every
    bearing and leaves each wrapped increment as it was: the winding is
    unchanged.
    Reflecting both paths about a line negates every increment, so the
    winding changes sign.
    """
    starts = row_starts(lengths, len(rel))
    sizes = lengths.tolist()
    if min(sizes, default=1) < 1:
        raise LengthMismatch(f"row lengths from {min(sizes)}, a row needs at least 1 sample")
    norm = np.hypot(rel[:, 0], rel[:, 1])
    bearings = np.arctan2(rel[:, 1], rel[:, 0])
    defined = norm >= _DEGENERATE_DISP
    # index of the last well-defined bearing at or before each frame of its
    # row; a row's first frame stands in where it has none, so the carry restarts
    last = np.where(defined, np.arange(len(rel)), -1)
    last[starts] = starts
    np.maximum.accumulate(last, out=last)
    # increment j is from frame j to j + 1; no row sums the one between two rows
    ok = defined[1:] & defined[last[:-1]]
    steps = np.zeros_like(bearings[1:])
    steps[ok] = _wrap_angle(bearings[1:][ok] - bearings[last[:-1]][ok])
    return np.array([np.add.reduce(steps[s:s + n - 1]) for s, n in zip(starts.tolist(), sizes)])


def homotopy_class(delta_theta: float, theta_hat: float = 0.0) -> HomotopyClass:
    """Map a winding angle to {CW, S, CCW}; theta_hat = 0 empties the S band.

    An exact zero winding (0.0 or -0.0) is CCW when theta_hat = 0 and S when
    theta_hat > 0. It arises whenever the relative bearing never changes: a
    pair whose agents coincide at every step (every increment is skipped),
    a pair that only closes or opens along one bearing, and the final frame
    of ``gt_mode_sequence``, whose future is a single sample.
    """
    if delta_theta < -theta_hat:
        return HomotopyClass.CW
    if delta_theta < theta_hat:
        return HomotopyClass.S
    return HomotopyClass.CCW


def classify_pair_windows(xy_a: np.ndarray, xy_b: np.ndarray,
                          theta_hat: float = 0.0) -> HomotopyClass:
    """Winding-angle class of two time-aligned (n, 2) position arrays:
    ``winding_rows`` of one row."""
    if len(xy_a) != len(xy_b):
        raise LengthMismatch(f"trajectory lengths differ: {len(xy_a)} vs {len(xy_b)}")
    return homotopy_class(winding_rows(xy_a - xy_b, np.array([len(xy_a)]))[0], theta_hat)


def gt_mode_sequence(xy_a: np.ndarray, xy_b: np.ndarray, horizon_frames: int,
                     theta_hat: float = 0.0) -> list[HomotopyClass]:
    """Per-frame class of the ground-truth future segments.

    ``xy_a`` and ``xy_b`` are the (n, 2) positions of the co-observed window.
    At frame i the class is computed over frames [i, i + horizon] truncated
    to the recorded overlap; the final frame (a single sample) gets the class
    of a zero winding angle.
    """
    n = len(xy_a)
    if n != len(xy_b):
        raise LengthMismatch(f"trajectory lengths differ: {n} vs {len(xy_b)}")
    # row i holds frames i to i + horizon, or to the window's end
    lengths = np.minimum(horizon_frames + 1, n - np.arange(n))
    windings = winding_rows((xy_a - xy_b)[row_samples(np.arange(n), lengths)], lengths)
    return [homotopy_class(d, theta_hat) for d in windings.tolist()]
