"""The collision and winding kernels on zero-padded stacks, frozen.

Before the kernels took ragged stacks (rows back to back), ``collisions``
and the kernels under it, and ``winding_rows``, took (B, T, 2) stacks
padded past each row's length. These are those kernels, copied verbatim
but for the ``frozen_`` names: the ragged kernels must give their flags,
distances, disk centres and windings bit for bit, and the ``ref_``
references in ``conftest`` resample and take headings with them, so that
they do not follow the program.
"""

import numpy as np

from interaction_eval.errors import ConfigError, LengthMismatch, ShortTrajectory

_DEGENERATE_DISP = 1e-9
_REACH_REL = 1e-12


def _positive_int(value) -> bool:
    """A Python or numpy integer of at least 1; ``True`` is no count."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= 1)


def frozen_resample_rows(values: np.ndarray, lengths: np.ndarray,
                         factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Linearly interpolate each row of a padded stack to (n-1)*factor + 1 samples.

    ``values`` has shape (B, T, D); row b's n = ``lengths[b]`` samples are
    ``values[b, :n]`` and whatever follows them is finite padding. Returns
    the (B, (T-1)*factor + 1, D) stack and the new lengths. Original samples
    are preserved exactly; samples past a row's new length are padding.
    Factor 1 returns the input.
    """
    if not _positive_int(factor):
        raise ConfigError("resample factor must be a positive integer")
    if factor == 1:
        return values, lengths
    t = values.shape[1]
    # fractional original index of every new sample; at a row's last sample
    # the next one (padding) has weight 0, and the pin below restores it
    u = np.arange((t - 1) * factor + 1) / factor
    i0 = np.minimum(u.astype(int), t - 2)
    frac = (u - i0)[:, None]
    # np.take keeps the stack C-ordered, where values[:, i0] would lay the
    # sample axis outermost
    out = np.take(values, i0, axis=1) * (1.0 - frac) + np.take(values, i0 + 1, axis=1) * frac
    # pin originals exactly (no fp drift at integer indices)
    out[:, ::factor] = values
    return out, (lengths - 1) * factor + 1


def frozen_kinematics_rows(xy: np.ndarray, lengths: np.ndarray,
                           dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (headings, speeds) of each row of a padded (B, T, 2) stack.

    Row b's samples are ``xy[b, :lengths[b]]``. Central differences at
    interior samples, one-sided at each row's own endpoints. Degenerate
    displacements (norm < 1e-9 m) give speed 0 and carry the row's last
    well-defined heading forward (0 before any heading is defined). Values
    past a row's length are padding.
    """
    # cheaper than lengths.min() on one row; an empty stack has no short row
    shortest = min(lengths.tolist(), default=2)
    if shortest < 2:
        raise ShortTrajectory("kinematics need at least 2 samples")
    b, t, _ = xy.shape
    disp = np.empty_like(xy)
    disp[:, 1:-1] = (xy[:, 2:] - xy[:, :-2]) / 2.0
    disp[:, 0] = xy[:, 1] - xy[:, 0]
    disp[:, -1] = xy[:, -1] - xy[:, -2]
    if shortest < t:  # rows that end before the padding: one-sided at their own end
        rows, end = np.arange(b), lengths - 1
        disp[rows, end] = xy[rows, end] - xy[rows, end - 1]
    norm = np.hypot(disp[..., 0], disp[..., 1])
    speeds = np.where(norm < _DEGENERATE_DISP, 0.0, norm / dt)
    # flat index of the last well-defined displacement at or before each
    # sample of its row (-1 before any)
    flat = np.arange(b * t).reshape(b, t)
    last = np.maximum.accumulate(np.where(norm >= _DEGENERATE_DISP, flat, -1), axis=1)
    headings = np.where(last >= 0, np.arctan2(disp[..., 1], disp[..., 0]).ravel()[last], 0.0)
    return headings, speeds


def frozen_row_sizes(size, rows: int) -> np.ndarray:
    """(rows, 2) ``(radius, offset)`` of each row, from one size or one per row."""
    sizes = np.empty((rows, 2))
    sizes[:] = size
    return sizes


def frozen_disk_centers(xy: np.ndarray, lengths: np.ndarray, offset) -> np.ndarray:
    """(B, 3, 2, M) disk centres of a padded (B, M, 2) stack of positions:
    row, disk (rear, centre, front), coordinate, sample. The front and rear
    disks sit ``offset`` (one for every row, or (B,) of them) ahead of and
    behind each position, along its heading from positions
    (``frozen_kinematics_rows``)."""
    headings, _ = frozen_kinematics_rows(xy, lengths, 1.0)
    pos = xy.transpose(0, 2, 1)  # (B, 2, M)
    step = (np.asarray(offset, dtype=float)[..., None, None]
            * np.stack([np.cos(headings), np.sin(headings)], axis=1))
    return np.stack([pos - step, pos, pos + step], axis=1)


def frozen_check_rows(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray) -> None:
    if xy_a.shape != xy_b.shape:
        raise LengthMismatch(f"trajectory lengths differ: {xy_a.shape} vs {xy_b.shape}")
    if min(lengths.tolist(), default=2) < 2:
        raise ShortTrajectory("collision checks need at least 2 samples per row")


def frozen_min_disk_distances(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray,
                              size_a, size_b, interp_factor: int = 1) -> np.ndarray:
    """Minimum distance of each row pair over its samples, resampled by
    ``interp_factor``, and all 9 disk-centre pairs. ``size_a`` and ``size_b``
    are the ``(radius, offset)`` of every row (``VehicleDims.size``) or a
    (B, 2) array of each row's."""
    frozen_check_rows(xy_a, xy_b, lengths)
    off_a, off_b = (frozen_row_sizes(size, len(lengths))[:, 1] for size in (size_a, size_b))
    xy_a, m = frozen_resample_rows(xy_a, lengths, interp_factor)
    xy_b, _ = frozen_resample_rows(xy_b, lengths, interp_factor)
    ca, cb = frozen_disk_centers(xy_a, m, off_a), frozen_disk_centers(xy_b, m, off_b)
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


def frozen_collisions(xy_a: np.ndarray, xy_b: np.ndarray, lengths: np.ndarray,
                      size_a, size_b, interp_factor: int = 1) -> np.ndarray:
    """True for each row pair of two padded (B, T, 2) stacks of positions
    whose disk footprints overlap at any sample, resampled by
    ``interp_factor``. Row b's samples are ``xy[b, :lengths[b]]``; whatever
    follows them is finite padding, which reaches no sample of the row.
    ``size_a`` and ``size_b`` are the ``(radius, offset)`` of every row
    (``VehicleDims.size``) or a (B, 2) array of each row's."""
    frozen_check_rows(xy_a, xy_b, lengths)
    size_a, size_b = (frozen_row_sizes(size_a, len(lengths)),
                      frozen_row_sizes(size_b, len(lengths)))
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
        hit[near] = (frozen_min_disk_distances(xy_a[near], xy_b[near], lengths[near],
                                               size_a[near], size_b[near], interp_factor)
                     < touch[near])
    return hit


def frozen_wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    w = (x + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(w <= -np.pi, w + 2.0 * np.pi, w)


def frozen_winding_rows(rel: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Cumulative wrapped change of the bearing of each row of a padded
    (B, M, 2) stack of relative positions (position_A - position_B). Row b's
    samples are ``rel[b, :lengths[b]]``, at least one; the rest is padding.
    A length outside [1, M] raises LengthMismatch.

    Frames where the agents (near-)coincide contribute a zero increment and
    carry the row's last well-defined bearing forward. Each row is summed on
    its own slice; a sum along the padded rows would round differently.

    Swapping the agents negates the relative vector, which adds pi to every
    bearing and leaves each wrapped increment as it was: the winding is
    unchanged.
    Reflecting both paths about a line negates every increment, so the
    winding changes sign.
    """
    sizes = lengths.tolist()
    if sizes and not 1 <= min(sizes) <= max(sizes) <= rel.shape[1]:
        raise LengthMismatch(f"row lengths from {min(sizes)} to {max(sizes)}, the stack holds "
                             f"1 to {rel.shape[1]} samples per row")
    norm = np.hypot(rel[..., 0], rel[..., 1])
    bearings = np.arctan2(rel[..., 1], rel[..., 0])
    defined = norm >= _DEGENERATE_DISP
    # index of the last well-defined bearing at or before each frame of its row
    last = np.maximum.accumulate(np.where(defined, np.arange(rel.shape[1]), -1), axis=1)
    ok = defined[:, 1:] & (last[:, :-1] >= 0)
    prev = np.take_along_axis(bearings, np.maximum(last[:, :-1], 0), axis=1)
    steps = np.zeros_like(prev)
    steps[ok] = frozen_wrap_angle(bearings[:, 1:][ok] - prev[ok])
    return np.array([np.add.reduce(steps[b, :n - 1]) for b, n in enumerate(sizes)])
