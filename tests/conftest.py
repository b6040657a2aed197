import gc
import importlib
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from interaction_eval import (
    Agent,
    EvalConfig,
    LengthMismatch,
    Scene,
    ShortTrajectory,
    Trajectory,
    validate_scene,
    winding_rows,
)

from frozen_padded import frozen_kinematics_rows, frozen_resample_rows

# Hypothesis imports its patch printer only once a property fails. Where
# libcst is installed, that import raises a mypy_extensions
# DeprecationWarning, which under -W error ends the run with an internal
# error instead of the falsifying example; importing it once here, with
# that warning ignored, keeps the example. Without libcst it is not
# importable, and nothing is needed.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass

DT = 0.5


def straight_traj(start, vel, n, t0=0.0, dt=DT):
    t = t0 + dt * np.arange(n)
    xy = np.asarray(start, dtype=float) + np.outer(dt * np.arange(n), vel)
    return Trajectory(t=t, xy=xy, dt=dt)


def make_agent(aid, traj, width=2.0, length=4.5):
    return Agent(id=aid, width=width, length=length, trajectory=traj)


def crossing_scene(v_a=6.0, v_b=6.0, gap_a=40.0, gap_b=52.0, n=30, dt=DT,
                   scene_id="crossing"):
    """A eastbound through the origin, B northbound arriving later."""
    a = make_agent("a", straight_traj((-gap_a, 0.0), (v_a, 0.0), n, dt=dt))
    b = make_agent("b", straight_traj((0.0, -gap_b), (0.0, v_b), n, dt=dt))
    return validate_scene(Scene(scene_id=scene_id, dt=dt, agents=(a, b)))


def winding_angle(xy_a: np.ndarray, xy_b: np.ndarray) -> float:
    """Winding angle of two time-aligned (n, 2) position arrays:
    ``winding_rows`` of one row."""
    if len(xy_a) != len(xy_b):
        raise LengthMismatch(f"trajectory lengths differ: {len(xy_a)} vs {len(xy_b)}")
    return float(winding_rows(xy_a - xy_b, np.array([len(xy_a)]))[0])


def circle_traj(radius, omega, n, dt=DT, t0=0.0):
    th = omega * dt * np.arange(n)
    xy = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    return Trajectory(t=t0 + dt * np.arange(n), xy=xy, dt=dt)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test after which the cyclic collector is off, and turn it back
    on, so that no code path or test leaves it off for the tests after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic collector was left disabled")


@pytest.fixture
def cfg():
    return EvalConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def four_agent_scene(scene_id="four"):
    """a-b the canonical crossing; c-d a symmetric crossing 500 m east, which
    never collapses. The four cross pairs never share a path."""
    base = crossing_scene()
    c = make_agent("c", straight_traj((460.0, 0.0), (6.0, 0.0), 30))
    d = make_agent("d", straight_traj((500.0, -40.0), (0.0, 6.0), 30))
    return validate_scene(Scene(scene_id=scene_id, dt=DT, agents=base.agents + (c, d)))


def parked_scene(scene_id="parked"):
    """The canonical crossing with a vehicle "p" parked beside it at (30, -25)
    for the whole window, in no critical pair."""
    base = crossing_scene()
    p = make_agent("p", straight_traj((30.0, -25.0), (0.0, 0.0), 30))
    return validate_scene(Scene(scene_id=scene_id, dt=DT, agents=base.agents + (p,)))


# the four arms of a crossing, right-hand lanes 2 m off the axes:
# (start direction, lateral offset, heading)
_ARMS = (
    ((-1, 0), (0, -2), (1, 0)),
    ((0, -1), (2, 0), (0, 1)),
    ((1, 0), (0, 2), (-1, 0)),
    ((0, 1), (-2, 0), (0, -1)),
)


def turn_traj(start, heading, straight_in, radius, speed, n, dt=DT, t0=0.0):
    """A path at constant ``speed`` from ``start`` along ``heading``, for
    ``straight_in`` metres, then a 90-degree right turn of ``radius``, then
    straight on."""
    h = np.asarray(heading, dtype=float)
    right = np.array([h[1], -h[0]])
    s = speed * dt * np.arange(n)
    arc = radius * np.pi / 2
    phi = np.clip((s - straight_in) / radius, 0.0, np.pi / 2)[:, None]
    centre = np.asarray(start, dtype=float) + straight_in * h + radius * right
    xy = np.where((s <= straight_in)[:, None], np.asarray(start) + s[:, None] * h,
                  np.where((s <= straight_in + arc)[:, None],
                           centre - radius * right * np.cos(phi) + radius * h * np.sin(phi),
                           centre + radius * h + (s - straight_in - arc)[:, None] * right))
    return Trajectory(t=t0 + dt * np.arange(n), xy=xy, dt=dt)


def busy_scene(waves=3, n=91, dt=0.1):
    """A busy 10 Hz crossing: ``waves`` agents on each of the four arms,
    wave k about 13 m behind wave k - 1, every agent seen in all ``n``
    frames. The agents of the middle wave turn right on an 8 m radius, where
    the lateral speed cap binds. Many pairs share an agent and a window."""
    agents = []
    for k in range(waves):
        for arm, ((sx, sy), (ox, oy), heading) in enumerate(_ARMS):
            gap, v = 20.0 + 13.0 * k + 3.0 * arm, 7.0 + 0.5 * arm
            start = (sx * gap + ox, sy * gap + oy)
            if k == 1:
                traj = turn_traj(start, heading, gap - 10.0, 8.0, v, n, dt)
            else:
                traj = straight_traj(start, np.multiply(heading, v), n, dt=dt)
            agents.append(make_agent(f"w{k}{'ENWS'[arm]}", traj))
    return validate_scene(Scene(scene_id="busy", dt=dt, agents=tuple(agents)))


def random_crossing_scene(seed, n=30, speed=None):
    """2-4 agents on distinct arms of a crossing, at random gaps and speeds,
    some entering 2 s late, plus 0-2 bystanders 300 m away. A given
    ``speed`` replaces every agent's drawn speed, so that every agent drives
    at the scene speed limit."""
    rng = np.random.default_rng(seed)
    agents = []
    for j, arm in enumerate(rng.permutation(4)[:rng.integers(2, 5)]):
        (sx, sy), (ox, oy), (hx, hy) = _ARMS[arm]
        gap, v = rng.uniform(10.0, 50.0), rng.uniform(3.0, 10.0)
        v = v if speed is None else speed
        late = int(rng.choice([0, 0, 0, 4]))
        traj = straight_traj((sx * gap + ox, sy * gap + oy), (hx * v, hy * v), n - late,
                             t0=0.5 * late)
        agents.append(make_agent(f"a{j}", traj))
    for j in range(rng.integers(0, 3)):
        v = rng.uniform(3.0, 10.0)
        traj = straight_traj((-30.0, 300.0 + 20.0 * j), (v if speed is None else speed, 0.0), n)
        agents.append(make_agent(f"z{j}", traj))
    return validate_scene(Scene(scene_id=f"random{seed}", dt=0.5, agents=tuple(agents)))


# --- frozen per-pair collision check ----------------------------------------
# The three-disk check one trajectory pair at a time, as it was before the
# array kernel in collision.py, on frozen copies of resampling and
# kinematics. Tests compare the kernel and its callers against it bit for bit.

def ref_resample(traj, factor):
    if factor == 1:
        return traj
    n = traj.n
    m = (n - 1) * factor + 1
    u = np.arange(m) / factor
    i0 = np.minimum(u.astype(int), n - 2)
    frac = (u - i0)[:, None]
    xy = traj.xy[i0] * (1.0 - frac) + traj.xy[i0 + 1] * frac
    t = traj.t[i0] * (1.0 - frac[:, 0]) + traj.t[i0 + 1] * frac[:, 0]
    xy[::factor] = traj.xy
    t[::factor] = traj.t
    return Trajectory(t=t, xy=xy, dt=traj.dt / factor)


def ref_headings(traj):
    """Per-sample headings: central differences inside, one-sided at the
    ends, the last well-defined heading carried over degenerate steps."""
    pos = traj.xy
    n = traj.n
    disp = np.empty_like(pos)
    disp[0] = pos[1] - pos[0]
    disp[-1] = pos[-1] - pos[-2]
    disp[1:-1] = (pos[2:] - pos[:-2]) / 2.0
    norm = np.hypot(disp[:, 0], disp[:, 1])
    last = np.maximum.accumulate(np.where(norm >= 1e-9, np.arange(n), -1))
    return np.where(last >= 0, np.arctan2(disp[:, 1], disp[:, 0])[last], 0.0)


def ref_disk_center_tracks(traj, dims):
    """(T, 3, 2) disk centers along a trajectory, headings from positions."""
    headings = ref_headings(traj)
    axis = np.stack([np.cos(headings), np.sin(headings)], axis=1)
    offset = dims.length / 2.0 - dims.radius
    pos = traj.xy
    return np.stack([pos - offset * axis, pos, pos + offset * axis], axis=1)


def ref_min_disk_distance(ta, tb, dims_a, dims_b):
    assert ta.n == tb.n
    ca = ref_disk_center_tracks(ta, dims_a)
    cb = ref_disk_center_tracks(tb, dims_b)
    diff = ca[:, :, None, :] - cb[:, None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return float(d.min())


def as_traj(xy, dt=DT):
    """(n, 2) positions on a time grid from 0, for the frozen references
    that take trajectories."""
    return Trajectory(t=dt * np.arange(len(xy)), xy=xy, dt=dt)


def ref_is_collision(ta, tb, dims_a, dims_b, interp_factor=1):
    if interp_factor > 1:
        ta = ref_resample(ta, interp_factor)
        tb = ref_resample(tb, interp_factor)
    return ref_min_disk_distance(ta, tb, dims_a, dims_b) < dims_a.radius + dims_b.radius


# --- frozen track-layout collision kernel ------------------------------------
# The array kernel as it was while callers laid out resampled tracks first
# (``disk_tracks``) and its reach test ran on every resampled sample, copied
# verbatim but for the ``ref_`` names, on padded stacks. It resamples and
# takes headings with the frozen padded kernels (``frozen_padded``). The
# kernel on ragged position rows must give its flags and distances bit for
# bit.

_REF_REACH_REL = 1e-12


class RefDiskTracks(NamedTuple):
    """A stack of resampled position rows and the disks laid along them.

    ``xy`` has shape (B, M, 2). Row b's samples are ``xy[b, :lengths[b]]``;
    the rest is padding. The front and rear disks sit ``offset`` ahead of
    and behind each position, along its heading.
    """

    xy: np.ndarray
    lengths: np.ndarray
    offset: float
    radius: float

    def rows(self, index) -> "RefDiskTracks":
        """The tracks of the rows at ``index`` (a numpy index along B)."""
        return RefDiskTracks(self.xy[index], self.lengths[index], self.offset, self.radius)

    @property
    def centers(self) -> np.ndarray:
        """(B, 3, 2, M) disk centres: row, disk (rear, centre, front),
        coordinate, sample; headings from positions."""
        headings, _ = frozen_kinematics_rows(self.xy, self.lengths, 1.0)
        pos = self.xy.transpose(0, 2, 1)  # (B, 2, M)
        step = self.offset * np.stack([np.cos(headings), np.sin(headings)], axis=1)
        return np.stack([pos - step, pos, pos + step], axis=1)


def ref_disk_tracks(xy, lengths, dims, interp_factor=1):
    """Resample each row of a padded (B, T, 2) stack of positions by
    ``interp_factor``, for disks of ``dims`` along its headings. Row b's
    samples are ``xy[b, :lengths[b]]``; whatever follows them is finite
    padding, which reaches no sample of the row."""
    xy, lengths = frozen_resample_rows(xy, lengths, interp_factor)
    if min(lengths.tolist(), default=2) < 2:
        raise ShortTrajectory("disk tracks need at least 2 samples per row")
    return RefDiskTracks(xy, lengths, dims.offset, dims.radius)


def ref_min_disk_distances(a, b):
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


def ref_collisions(a, b):
    """True for each row pair whose disk footprints overlap at any sample."""
    if not np.array_equal(a.lengths, b.lengths):
        raise LengthMismatch(f"trajectory lengths differ: {a.lengths} vs {b.lengths}")
    reach = a.radius + b.radius + abs(a.offset) + abs(b.offset)
    scale = np.maximum(np.abs(a.xy).max(axis=(1, 2), initial=0.0),
                       np.abs(b.xy).max(axis=(1, 2), initial=0.0))
    limit = reach * (1.0 + _REF_REACH_REL) + _REF_REACH_REL * scale
    d = a.xy - b.xy
    d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    valid = np.arange(d2.shape[1]) < a.lengths[:, None]
    near = np.flatnonzero((valid & (d2 <= (limit * limit)[:, None])).any(axis=1))
    hit = np.zeros(len(a.lengths), dtype=bool)
    if len(near):
        hit[near] = ref_min_disk_distances(a.rows(near), b.rows(near)) < a.radius + b.radius
    return hit
