"""Reference predictors: constant-velocity and the mode-covering oracle."""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from .collision import VehicleDims, chunk_bounds, collisions
# the benchmark's tracer patches this name in this module
from .collision import is_collision  # noqa: F401
from .errors import ConfigError, NoFeasibleCombo
from .filtering import CriticalPair
from .rollout import ProfileKind, max_scene_speed, rollout_rows
from .types import EvalConfig, JointPredictionSet, Scene, agent_frame_index, scene_frame
# the benchmark's tracer patches this name in this module
from .types import trajectory_kinematics  # noqa: F401


# the speed profiles an interacting agent may take in an oracle combination,
# in the tie-break order
ORACLE_PROFILES = tuple(ProfileKind)


def cv_predict(scene: Scene, frames: Iterable[int],
               cfg: EvalConfig) -> dict[int, JointPredictionSet]:
    """A single joint sample at each of ``frames``, extrapolating each
    present agent's current heading and speed (``Scene.kinematics``):
    ``{frame: JointPredictionSet}`` in frame order.

    Every present agent's heading, speed and position are gathered at once,
    one row per (frame, agent), frame by frame in ``scene.agents`` order.
    One broadcast then writes every future as ``k * step + xy`` with ``step
    = speed * dt * (cos, sin)(heading)``: the float operations of one agent
    at one frame. Each frame's set views its own rows of that one array, so
    its arrays are C-contiguous and read-only.
    """
    frames = sorted(frames)
    if not frames:
        return {}
    horizon = cfg.horizon_frames(scene.dt)
    n = np.array([agent.trajectory.n for agent in scene.agents])
    # each agent's sample index at each frame, and whether it has one there
    at = np.array(frames)[:, None] - np.array(
        [scene_frame(scene, agent.trajectory.t[0]) for agent in scene.agents])
    present = (at >= 0) & (at < n)
    f, a = np.nonzero(present)
    i = np.concatenate(([0], np.cumsum(n[:-1])))[a] + at[f, a]
    headings = np.concatenate([h for h, _ in scene.kinematics])[i]
    speeds = np.concatenate([v for _, v in scene.kinematics])[i] * scene.dt
    xy = np.concatenate([agent.trajectory.xy for agent in scene.agents])[i]
    step = np.stack((speeds * np.cos(headings), speeds * np.sin(headings)), axis=1)
    futures = np.empty((len(i), horizon, 2))
    np.multiply(np.arange(1.0, horizon + 1.0)[:, None], step[:, None], out=futures)
    futures += xy[:, None]
    futures.setflags(write=False)
    ids = [agent.id for agent in scene.agents]
    bounds = np.concatenate(([0], np.cumsum(present.sum(axis=1)))).tolist()
    predictions = {}
    for frame, here, lo, hi in zip(frames, present, bounds, bounds[1:]):
        agent_ids = tuple(ids[c] for c in np.flatnonzero(here).tolist())
        # with no agent present, a set has no positions, as from_samples packs it
        rows = futures[lo:hi].reshape(1, hi - lo, horizon if hi > lo else 0, 2)
        predictions[frame] = JointPredictionSet(frame, agent_ids, [1.0], rows,
                                                np.full((1, hi - lo), horizon))
    return predictions


def _collision_tables(scene: Scene, rolled: np.ndarray, present: list[dict[str, int]],
                      pairs: list[CriticalPair],
                      interp_factor: int) -> list[list[tuple[str, str, np.ndarray]]]:
    """Per frame, ``(a, b, table)`` for each critical pair whose agents are
    both present: whether each (profile, profile) of their rolls collides,
    ``table[i, j]`` for ``ORACLE_PROFILES[i]`` of a and ``[j]`` of b.

    ``rolled[i, row]`` is a row's roll of ``ORACLE_PROFILES[i]``
    (``rollout_rows``), and ``present[f]`` the row of each agent present at
    frame ``f``. A pair's tables at every frame its agents share are 9 row
    pairs per frame gathered from ``rolled``; one ``collisions`` call, with
    each row's vehicle size, checks the row pairs of every pair in a run of
    whole pairs (``chunk_bounds``).
    """
    # row pair 3 * i + j of a frame is profiles (i, j)
    rows_a, rows_b = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
    width = rolled.shape[2]
    # each pair with frames its agents share: (a, b, those frames)
    shared = []
    for p in pairs:
        frames = [f for f, here in enumerate(present) if p.agent_a in here and p.agent_b in here]
        if frames:
            shared.append((p.agent_a, p.agent_b, frames))
    sizes = {aid: VehicleDims(scene.agent(aid).width, scene.agent(aid).length).size
             for a, b, _ in shared for aid in (a, b)}
    counts = [9 * len(frames) for *_, frames in shared]
    tables: list[list] = [[] for _ in present]
    for lo, hi in chunk_bounds(counts, [width] * len(shared)):
        run = shared[lo:hi]
        at_a = np.array([present[f][a] for a, _, frames in run for f in frames])[:, None]
        at_b = np.array([present[f][b] for _, b, frames in run for f in frames])[:, None]
        size_a = np.repeat([sizes[a] for a, _, _ in run], counts[lo:hi], axis=0)
        size_b = np.repeat([sizes[b] for _, b, _ in run], counts[lo:hi], axis=0)
        # every roll holds the same samples: the rows, back to back
        hit = collisions(rolled[rows_a, at_a].reshape(-1, 2), rolled[rows_b, at_b].reshape(-1, 2),
                         np.full(len(size_a), width), size_a, size_b, interp_factor)
        hit = iter(hit.reshape(-1, 3, 3))
        for a, b, frames in run:
            for f in frames:
                tables[f].append((a, b, next(hit)))
    return tables


def _predict_frames(scene: Scene, frames: list[int], pairs: list[CriticalPair], k: int,
                    cfg: EvalConfig) -> dict[int, JointPredictionSet] | int:
    """``oracle_predict`` at the sorted ``frames``, or the first of them
    where every combination collides."""
    v_max = max_scene_speed(scene)
    horizon = cfg.horizon_frames(scene.dt)
    interacting = {aid for p in pairs for aid in (p.agent_a, p.agent_b)}
    # one rollout row per (frame, present agent); present[f] maps each agent
    # present at frames[f] to its row
    rows, present = [], []
    for t in frames:
        here = {}
        for agent, (_, speeds) in zip(scene.agents, scene.kinematics):
            i = agent_frame_index(scene, agent, t)
            if i is not None:
                here[agent.id] = len(rows)
                rows.append((agent.trajectory, i, float(speeds[i]), horizon))
        present.append(here)
    # every roll holds horizon + 1 positions, so (profile, row, frame, 2); a
    # bystander's ACCEL and DECEL rolls are made too, but no combination picks them
    rolled = rollout_rows(rows, ORACLE_PROFILES, v_max, cfg).reshape(
        len(ORACLE_PROFILES), len(rows), horizon + 1, 2)
    step = np.diff(rolled, axis=2)
    # each roll's mean over its horizon steps: np.mean's sum and division,
    # without its warning where no agent is present and there are no rolls
    mean_speed = np.hypot(step[..., 0], step[..., 1]).sum(axis=2) / horizon / scene.dt
    tables = _collision_tables(scene, rolled, present, pairs, cfg.interp_factor)
    predictions = {}
    for t, here, checks in zip(frames, present, tables):
        ids, at = tuple(here), list(here.values())
        cols = [c for c, aid in enumerate(ids) if aid in interacting]
        combos = np.array(list(itertools.product(range(3), repeat=len(cols))), dtype=int)
        # each combination's profile per present agent, in itertools.product
        # order, which is ORACLE_PROFILES order; a bystander (in no critical
        # pair) only ever keeps constant velocity
        choice = np.full((len(combos), len(ids)), ORACLE_PROFILES.index(ProfileKind.CONST_VEL))
        choice[:, cols] = combos
        free = np.ones(len(choice), dtype=bool)
        for a, b, table in checks:
            free &= ~table[choice[:, ids.index(a)], choice[:, ids.index(b)]]
        if not free.any():
            return t
        choice = choice[free]
        avg_speed = mean_speed[choice, at].mean(axis=1) if ids else np.zeros(len(choice))
        # a stable sort keeps equal speeds in ORACLE_PROFILES order
        top = np.argsort(-avg_speed, kind="stable")[:k]
        total = sum(avg_speed[top].tolist())
        p = avg_speed[top] / total if total > 0 else np.full(len(top), 1.0 / len(top))
        # each future is its roll past the start position; with no agent
        # present, a set has no positions, as from_samples packs it
        xy = rolled[choice[top], at, 1:1 + (horizon if ids else 0)]
        predictions[t] = JointPredictionSet(t, ids, p, xy, np.full((len(top), len(ids)), horizon))
    return predictions


def oracle_predict(scene: Scene, frames: Iterable[int], pairs: list[CriticalPair], k: int,
                   cfg: EvalConfig) -> dict[int, JointPredictionSet]:
    """Top-K collision-free profile combinations ranked by average speed, at
    each of ``frames``: ``{frame: JointPredictionSet}`` in frame order.

    Every present agent is rolled out with all three speed profiles along
    its ground-truth path. Agents involved in a critical pair may take any
    of them; everyone else keeps constant velocity in every combination.
    Each rollout starts at the agent's recorded speed (``Scene.kinematics``).

    One call serves every frame: one ``rollout_rows`` call rolls every
    (frame, present agent) row, one array op gives every roll's mean speed,
    and ``_collision_tables`` checks each critical pair's 3x3 profile table
    at every frame its agents share. A frame's combinations are then scored
    as arrays of profile indices.

    Raises NoFeasibleCombo naming the first frame where every combination
    collides.
    """
    if k < 1:
        raise ConfigError(f"oracle k must be >= 1, got {k}")
    predicted = _predict_frames(scene, sorted(frames), pairs, k, cfg)
    if not isinstance(predicted, dict):
        # raised here, in a frame that holds none of the rolls: a caller that
        # keeps the traceback keeps no arrays
        raise NoFeasibleCombo(f"all profile combinations collide at frame {predicted}")
    return predicted
