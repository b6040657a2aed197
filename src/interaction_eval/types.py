"""Core data types: trajectories, agents, scenes, predictions and config.

All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DuplicateAgentId,
    EmptyOverlap,
    LengthMismatch,
    NonFiniteCoordinate,
    NonUniformSampling,
    SceneValidationError,
    ShortTrajectory,
    UnknownAgent,
)

_TIME_ATOL = 1e-6  # absolute slack on timestamp grid comparisons, seconds
_DEGENERATE_DISP = 1e-9  # metres; below this a displacement has no direction


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A uniformly sampled planar trajectory.

    ``t`` has shape (N,), ``xy`` has shape (N, 2); both are read-only numpy
    arrays. ``dt`` is the constant frame period in seconds. Trajectories
    compare and hash by identity.
    """

    t: np.ndarray
    xy: np.ndarray
    dt: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        xy = np.asarray(self.xy, dtype=float)
        t.setflags(write=False)
        xy.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "xy", xy)

    @property
    def n(self) -> int:
        return len(self.t)

    def slice_frames(self, start: int, stop: int) -> "Trajectory":
        return Trajectory(t=self.t[start:stop], xy=self.xy[start:stop], dt=self.dt)


@dataclass(frozen=True)
class Agent:
    """A rectangular road user with its recorded trajectory."""

    id: str
    width: float
    length: float
    trajectory: Trajectory


@dataclass(frozen=True)
class Scene:
    scene_id: str
    dt: float
    agents: tuple[Agent, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))

    @cached_property
    def t_origin(self) -> float:
        """Timestamp of scene frame 0: the earliest first sample of any agent."""
        return min(float(a.trajectory.t[0]) for a in self.agents)

    @cached_property
    def agents_by_id(self) -> dict[str, Agent]:
        """Each id's agent; when an id repeats, its first agent wins."""
        return {a.id: a for a in reversed(self.agents)}

    @cached_property
    def kinematics(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each agent's ``trajectory_kinematics`` (headings, speeds), in
        ``agents`` order."""
        return [trajectory_kinematics(a.trajectory) for a in self.agents]

    @cached_property
    def max_speed(self) -> float:
        """Maximum finite-difference speed over all agents and frames."""
        return max([0.0] + [float(speeds.max()) for _, speeds in self.kinematics])

    def agent(self, agent_id: str) -> Agent:
        agent = self.agents_by_id.get(agent_id)
        if agent is None:
            raise UnknownAgent(agent_id)
        return agent


@dataclass(frozen=True, eq=False)
class JointPredictionSet:
    """K probability-ordered joint predictions issued at one frame.

    ``p`` has shape (K,), ``xy`` (K, A, H, 2) and ``lengths`` (K, A): sample
    k's future of agent ``agent_ids[a]`` is ``xy[k, a, :lengths[k, a]]``,
    padded with 0.0 after it. The arrays are read-only. Code that holds the
    arrays builds a set with the constructor, and per-agent futures go
    through ``from_samples``. Sets compare and hash by identity.
    """

    frame: int
    agent_ids: tuple[str, ...]
    p: np.ndarray
    xy: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        for name, dtype in (("p", float), ("xy", float), ("lengths", int)):
            value = np.asarray(getattr(self, name), dtype=dtype)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def from_samples(cls, frame: int,
                     samples: list[tuple[float, dict[str, np.ndarray]]]) -> "JointPredictionSet":
        """Pack ``[(p, {agent id: (H, 2) future})]`` in the first sample's agent
        order. Raises ConfigError where ``checked_agent_ids`` does."""
        probs = [float(p) for p, _ in samples]
        ids = checked_agent_ids(frame, probs, [trajs.keys() for _, trajs in samples])
        lengths = [[len(trajs[aid]) for aid in ids] for _, trajs in samples]
        xy = np.zeros((len(samples), len(ids), max(max(row, default=0) for row in lengths), 2))
        for k, (_, trajs) in enumerate(samples):
            for a, aid in enumerate(ids):
                xy[k, a, :lengths[k][a]] = trajs[aid]
        return cls(frame, ids, probs, xy, lengths)


def checked_agent_ids(frame: int, probs: list[float], sample_ids: list) -> tuple[str, ...]:
    """The first sample's agent ids, once the samples of a prediction set at
    ``frame`` pass its checks: ``probs`` holds each sample's probability and
    ``sample_ids`` each sample's agent ids. Raises ConfigError for no samples,
    a negative probability, samples not ordered by probability, a probability
    sum past 1, or samples that disagree on agent ids."""
    if not probs:
        raise ConfigError(f"frame {frame}: no samples")
    if min(probs) < 0:
        raise ConfigError(f"frame {frame}: negative probability {min(probs)}")
    if any(b > a + 1e-9 for a, b in zip(probs, probs[1:])):
        raise ConfigError(f"frame {frame}: samples not ordered by probability")
    if sum(probs) > 1.0 + 1e-6:
        raise ConfigError(f"frame {frame}: probabilities sum to {sum(probs)}")
    if any(ids != sample_ids[0] for ids in sample_ids[1:]):
        raise ConfigError(f"frame {frame}: samples disagree on agent ids")
    return tuple(sample_ids[0])


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation thresholds and limits (SI units)."""

    d_collision: float = 1.5
    dt_ps_max: float = 6.0
    a_lon_max: float = 1.47
    a_lat_max: float = 1.18
    t_p: float = 6.0
    theta_hat: float = 0.0
    interp_factor: int = 4
    t_min: float | None = None  # default: first co-observed timestamp per pair

    def __post_init__(self):
        for name in ("d_collision", "dt_ps_max", "a_lon_max", "a_lat_max", "t_p",
                     "theta_hat", "t_min"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("d_collision", "dt_ps_max", "a_lon_max", "a_lat_max", "t_p"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.theta_hat < 0:
            raise ConfigError("theta_hat must be >= 0")
        if not _positive_int(self.interp_factor):
            raise ConfigError("interp_factor must be a positive integer")

    def horizon_frames(self, dt: float) -> int:
        steps = self.t_p / dt
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(f"prediction horizon {self.t_p} is not a multiple of dt={dt}")
        return int(round(steps))


def _positive_int(value) -> bool:
    """A Python or numpy integer of at least 1; ``True`` is no count."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= 1)


def valid_dims(width: float, length: float) -> bool:
    """A vehicle's dimensions: finite, width > 0 and length >= width."""
    return math.isfinite(width) and math.isfinite(length) and 0 < width <= length


def validate_scene(scene: Scene) -> Scene:
    """Check all scene invariants; returns the scene unchanged if they hold."""
    if not scene.agents:
        raise ShortTrajectory(f"scene {scene.scene_id}: contains no agents")
    seen: set[str] = set()
    for agent in scene.agents:
        if agent.id in seen:
            raise DuplicateAgentId(f"scene {scene.scene_id}: duplicate agent id {agent.id!r}")
        seen.add(agent.id)
        traj = agent.trajectory
        if traj.n < 2:
            raise ShortTrajectory(f"agent {agent.id}: {traj.n} sample(s), need at least 2")
        finite = np.isfinite(traj.xy).all(axis=1) & np.isfinite(traj.t)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteCoordinate(f"agent {agent.id}: non-finite value at sample {bad}")
        spacing = np.diff(traj.t)
        if traj.dt <= 0 or np.any(spacing <= 0):
            raise NonUniformSampling(f"agent {agent.id}: timestamps not strictly increasing")
        if not np.allclose(spacing, traj.dt, atol=_TIME_ATOL, rtol=0):
            bad = int(np.argmax(np.abs(spacing - traj.dt) > _TIME_ATOL))
            raise NonUniformSampling(
                f"agent {agent.id}: spacing {spacing[bad]:.6g} at sample {bad}, expected {traj.dt:.6g}"
            )
        if abs(traj.dt - scene.dt) > _TIME_ATOL:
            raise NonUniformSampling(
                f"agent {agent.id}: dt {traj.dt} differs from scene dt {scene.dt}"
            )
        if not valid_dims(agent.width, agent.length):
            raise SceneValidationError(
                f"agent {agent.id}: invalid dimensions width={agent.width}, length={agent.length}"
            )
    return scene


def agent_frame_index(scene: Scene, agent: Agent, frame: int) -> int | None:
    """The agent's sample paired with a scene-global frame (``scene_frame``),
    or None where the agent has none."""
    i = frame - scene_frame(scene, agent.trajectory.t[0])
    if 0 <= i < agent.trajectory.n:
        return i
    return None


def scene_frame(scene: Scene, t: float) -> int:
    """The scene-global frame paired with a sample at time ``t``: the nearest
    frame. A sample within ``_TIME_ATOL`` of the midpoint between two frames
    pairs with the later one, so a frame's sample has been recorded by the
    frame's time (within ``_TIME_ATOL``)."""
    return math.floor((t - scene.t_origin + _TIME_ATOL) / scene.dt + 0.5)


def row_starts(lengths: np.ndarray, samples: int) -> np.ndarray:
    """Where each row of a ragged stack starts: row b is the ``lengths[b]``
    samples from ``starts[b]``, the rows back to back. Raises LengthMismatch
    unless the lengths sum to ``samples``, the stack's sample count."""
    ends = lengths.cumsum()
    held = int(ends[-1]) if len(ends) else 0
    if held != samples:
        raise LengthMismatch(f"row lengths sum to {held}, the stack holds {samples} samples")
    return ends - lengths


def row_samples(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of the samples of rows that start at ``starts`` and hold
    ``lengths`` samples each, row after row: the gather that lays those
    rows of a ragged stack back to back."""
    ends = lengths.cumsum()
    return (np.arange(int(ends[-1]) if len(ends) else 0)
            + (starts - (ends - lengths)).repeat(lengths))


def resample_rows(values: np.ndarray, lengths: np.ndarray,
                  factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Linearly interpolate each row of a ragged stack to (n-1)*factor + 1 samples.

    ``values`` has shape (N, D): the rows back to back, row b the next n =
    ``lengths[b]`` samples (``row_starts``). Returns the C-ordered ragged
    stack of the new rows and their lengths. New sample k of a row lies at
    the fractional original index u = k / factor, between the row's samples
    floor(u) and floor(u) + 1; original samples are preserved exactly. Each
    new sample reads only its own row's samples, so a row gets the same
    bits whatever rows stand beside it. Factor 1 returns a C-ordered input.
    """
    cols, new = _resample_columns(values, lengths, factor)
    return np.ascontiguousarray(cols.T), new


def _resample_columns(values: np.ndarray, lengths: np.ndarray,
                      factor: int) -> tuple[np.ndarray, np.ndarray]:
    """``resample_rows`` as its transpose: the new stack as (D, N') columns,
    each coordinate a run of samples, which the arithmetic and the collision
    kernel's disk layout read fastest, and the new lengths. Factor 1 gives
    ``values.T``."""
    if not _positive_int(factor):
        raise ConfigError("resample factor must be a positive integer")
    starts = row_starts(lengths, len(values))
    if min(lengths.tolist(), default=1) < 1:
        raise ShortTrajectory("resampling needs at least 1 sample per row")
    cols = values.T
    if factor == 1:
        return cols, lengths
    new = lengths * factor - (factor - 1)
    # each new sample's fractional original index u = k / factor, k its
    # index in its row, then its original floor(u) and its weight u -
    # floor(u), each array reused in place once read (they are as long as
    # the new stack). At a row's last sample the next original (another
    # row's, or the last one again) has weight 0, and the pin below
    # restores it
    frac = (np.arange(int(new.sum())) - (new.cumsum() - new).repeat(new)) / factor
    at = frac.astype(int)
    frac -= at
    at += starts.repeat(new)
    out = cols.take(at, axis=1)
    out *= 1.0 - frac
    at += 1
    out += cols.take(at, axis=1, mode="clip") * frac
    # pin originals exactly (no fp drift at integer indices): they are the
    # new samples with u a whole number, in order
    out[:, np.flatnonzero(frac == 0)] = cols
    return out, new


def resample_trajectory(traj: Trajectory, factor: int) -> Trajectory:
    """Linearly interpolate to (N-1)*factor + 1 samples: ``resample_rows``
    on one row of (x, y, t).

    Original samples are preserved exactly; factor 1 returns the input.
    """
    rows, _ = resample_rows(np.concatenate((traj.xy, traj.t[:, None]), axis=1),
                            np.array([traj.n]), factor)
    if factor == 1:
        return traj
    return Trajectory(t=rows[:, 2], xy=rows[:, :2], dt=traj.dt / factor)


def kinematics_rows(xy: np.ndarray, lengths: np.ndarray,
                    dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (headings, speeds) of each row of a ragged (N, 2) stack.

    Row b is the next ``lengths[b]`` samples (``row_starts``). Central
    differences at interior samples, one-sided at each row's own endpoints.
    Degenerate displacements (norm < 1e-9 m) give speed 0 and carry the
    row's last well-defined heading forward (0 before any heading is
    defined). The carry restarts at each row: a row that starts stationary
    gets heading 0, never the heading of the row before it.
    """
    starts = row_starts(lengths, len(xy))
    if min(lengths.tolist(), default=2) < 2:
        raise ShortTrajectory("kinematics need at least 2 samples")
    disp = np.empty_like(xy)
    disp[1:-1] = (xy[2:] - xy[:-2]) / 2.0
    disp[:1] = xy[1:2] - xy[:1]
    disp[-1:] = xy[-1:] - xy[-2:-1]
    if len(starts) > 1:  # one-sided at the rows' own ends inside the stack too
        inner = starts[1:]
        disp[inner] = xy[inner + 1] - xy[inner]
        disp[inner - 1] = xy[inner - 1] - xy[inner - 2]
    norm = np.hypot(disp[:, 0], disp[:, 1])
    speeds = np.where(norm < _DEGENERATE_DISP, 0.0, norm / dt)
    # index of the last well-defined displacement at or before each sample
    # of its row; each row's first sample stands in where it has none, so
    # that the running maximum starts over at every row
    defined = norm >= _DEGENERATE_DISP
    last = np.where(defined, np.arange(len(xy)), -1)
    last[starts] = starts
    np.maximum.accumulate(last, out=last)
    headings = np.where(defined[last], np.arctan2(disp[:, 1], disp[:, 0])[last], 0.0)
    return headings, speeds


def trajectory_kinematics(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (headings, speeds) by finite differences: ``kinematics_rows``
    on one row."""
    return kinematics_rows(traj.xy, np.array([traj.n]), traj.dt)


def co_observed(t: np.ndarray, start: np.ndarray, dt: np.ndarray, i: int | np.ndarray,
                js: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The co-observed window of agent ``i`` with each agent in ``js``.

    ``t`` holds every agent's timestamps back to back, agent k's at
    ``start[k]:start[k + 1]``, and ``dt`` each agent's frame period. ``i``
    is one agent or an array broadcast against ``js``, one agent per pair.
    The window runs from the later first sample to the earlier last one,
    counted in ``i``'s ``dt`` (round half to even), and its times must agree
    within ``_TIME_ATOL`` sample by sample. Returns ``(ok, ia, ib, count)``
    per pair: whether the pair has such a window, where it starts in ``i``
    and in j, and how many samples it holds. A window that runs past a
    trajectory's end, or any NaN, gives no window.
    """
    n = start[1:] - start[:-1]
    first, last = t[start[:-1]], t[start[1:] - 1]
    t0 = np.maximum(first[i], first[js])
    t1 = np.minimum(last[i], last[js])
    with np.errstate(divide="ignore", invalid="ignore"):
        ia = np.rint((t0 - first[i]) / dt[i])
        ib = np.rint((t0 - first[js]) / dt[js])
        count = np.rint((t1 - t0) / dt[i]) + 1
    ok = ((t1 >= t0 - _TIME_ATOL) & (count >= 1) & (np.minimum(ia, ib) >= 0)
          & (count <= np.minimum(n[i] - ia, n[js] - ib)))
    # past its end, a window repeats its last sample
    steps = np.minimum(np.arange(n[i].max(initial=0)), count[ok, None] - 1)
    ra = t[((start[i] + ia)[ok, None] + steps).astype(int)]
    rb = t[(start[js[ok], None] + ib[ok, None] + steps).astype(int)]
    ok[ok] = (np.abs(ra - rb) <= _TIME_ATOL).all(axis=1)
    return ok, ia, ib, count


def common_window(a: Trajectory, b: Trajectory) -> tuple[Trajectory, Trajectory, np.ndarray]:
    """Restrict two same-dt trajectories to their ``co_observed`` time window.

    Returns the two sliced trajectories plus the shared timestamp vector.
    """
    ok, ia, ib, count = co_observed(np.concatenate((a.t, b.t)),
                                    np.array([0, a.n, a.n + b.n]),
                                    np.array([a.dt, b.dt]), 0, np.array([1]))
    if not ok[0]:
        raise EmptyOverlap("no co-observed window on a common time grid")
    ia, ib, count = int(ia[0]), int(ib[0]), int(count[0])
    sa = a.slice_frames(ia, ia + count)
    return sa, b.slice_frames(ib, ib + count), sa.t
