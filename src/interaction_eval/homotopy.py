"""Winding angle between two position tracks and its interaction class.

The interaction class of an agent pair is read off the cumulative rotation
of the relative position vector: a clockwise rotation (negative winding)
means one agent passes behind the other, counterclockwise the reverse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .types import _DEGENERATE_DISP


class HomotopyClass(enum.Enum):
    CW = "CW"
    CCW = "CCW"
    S = "S"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class WindingResult:
    delta_theta: float
    per_step: np.ndarray  # wrapped increments, each in (-pi, pi]


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    w = (x + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(w <= -np.pi, w + 2.0 * np.pi, w)


def winding_angle(xy_a: np.ndarray, xy_b: np.ndarray) -> WindingResult:
    """Cumulative wrapped change of the bearing of (position_A - position_B),
    for two time-aligned (n, 2) position arrays.

    Frames where the agents (near-)coincide contribute a zero increment and
    carry the last well-defined bearing forward.

    Swapping the agents negates the relative vector, which adds pi to every
    bearing and leaves each wrapped increment as it was: the winding is
    unchanged.
    Reflecting both paths about a line negates every increment, so the
    winding changes sign.
    """
    if len(xy_a) != len(xy_b):
        raise LengthMismatch(f"trajectory lengths differ: {len(xy_a)} vs {len(xy_b)}")
    rel = xy_a - xy_b
    norm = np.hypot(rel[:, 0], rel[:, 1])
    bearings = np.arctan2(rel[:, 1], rel[:, 0])
    defined = norm >= _DEGENERATE_DISP
    # index of the last well-defined bearing at or before each frame
    last = np.maximum.accumulate(np.where(defined, np.arange(len(rel)), -1))
    ok = defined[1:] & (last[:-1] >= 0)
    steps = np.zeros_like(bearings[1:])
    steps[ok] = _wrap_angle(bearings[1:][ok] - bearings[last[:-1][ok]])
    return WindingResult(delta_theta=float(np.sum(steps)), per_step=steps)


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
    """Winding-angle class of two time-aligned (n, 2) position arrays."""
    return homotopy_class(winding_angle(xy_a, xy_b).delta_theta, theta_hat)


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
    out = []
    for i in range(n):
        stop = min(n, i + horizon_frames + 1)
        if stop - i < 2:
            out.append(homotopy_class(0.0, theta_hat))
            continue
        out.append(classify_pair_windows(xy_a[i:stop], xy_b[i:stop], theta_hat))
    return out
