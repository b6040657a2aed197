"""Reference predictors: constant-velocity and the mode-covering oracle."""

from __future__ import annotations

import itertools

import numpy as np

from .collision import VehicleDims, collisions, disk_tracks
# the benchmark's tracer patches this name in this module
from .collision import is_collision  # noqa: F401
from .errors import ConfigError, NoFeasibleCombo
from .filtering import CriticalPair
from .rollout import ProfileKind, PROFILE_ORDER, max_scene_speed, rollout_rows
from .types import EvalConfig, JointPredictionSet, Scene, agent_frame_index
# the benchmark's tracer patches this name in this module
from .types import trajectory_kinematics  # noqa: F401


# the speed profiles an interacting agent may take in an oracle combination
ORACLE_PROFILES = (ProfileKind.ACCEL, ProfileKind.CONST_VEL, ProfileKind.DECEL)


def cv_predict(scene: Scene, t: int, cfg: EvalConfig) -> JointPredictionSet:
    """Single joint sample extrapolating each agent's current heading and speed
    (``Scene.kinematics``)."""
    horizon = cfg.horizon_frames(scene.dt)
    trajs: dict[str, np.ndarray] = {}
    for agent, (headings, speeds) in zip(scene.agents, scene.kinematics):
        i = agent_frame_index(scene, agent, t)
        if i is None:
            continue
        step = speeds[i] * scene.dt * np.array([np.cos(headings[i]), np.sin(headings[i])])
        future = agent.trajectory.xy[i] + np.outer(np.arange(1, horizon + 1), step)
        trajs[agent.id] = future
    return JointPredictionSet.from_samples(t, [(1.0, trajs)])


def _collision_tables(rollouts: dict[str, dict[ProfileKind, np.ndarray]],
                      dims: dict[str, VehicleDims], check_pairs: list[tuple[str, str]],
                      interp_factor: int) -> dict:
    """Per checked pair, whether each (profile, profile) of its rollouts collides.

    The disk tracks of each agent's rollouts are laid out once and live only
    while the tables are built.
    """
    tracks = {aid: disk_tracks([rollouts[aid][kind] for kind in ORACLE_PROFILES], dims[aid],
                               interp_factor)
              for aid in {aid for pair in check_pairs for aid in pair}}
    # row pair 3 * i + j of a table is (ORACLE_PROFILES[i], ORACLE_PROFILES[j])
    rows_a, rows_b = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
    keys = list(itertools.product(ORACLE_PROFILES, ORACLE_PROFILES))
    return {(a, b): dict(zip(keys, collisions(tracks[a].rows(rows_a),
                                              tracks[b].rows(rows_b)).tolist()))
            for a, b in check_pairs}


def oracle_predict(scene: Scene, t: int, pairs: list[CriticalPair], k: int,
                   cfg: EvalConfig) -> JointPredictionSet:
    """Top-K collision-free profile combinations ranked by average speed.

    Agents involved in a critical pair get all three speed profiles along
    their ground-truth path; everyone else is rolled out, and kept, at
    constant velocity only.

    Once per frame, each agent of a critical pair gets the disk tracks of
    its three rollouts, each pair whose agents are both present gets a 3x3
    collision table from one ``collisions`` call, and each rollout gets its
    mean speed. The combination loop only looks these up, so a frame costs
    one collision check per critical pair however many combinations there
    are. Each rollout starts at the agent's recorded speed
    (``Scene.kinematics``).
    """
    if k < 1:
        raise ConfigError(f"oracle k must be >= 1, got {k}")
    v_max = max_scene_speed(scene)
    horizon = cfg.horizon_frames(scene.dt)
    interacting = {aid for p in pairs for aid in (p.agent_a, p.agent_b)}
    present = [(agent, i, speeds)
               for agent, (_, speeds) in zip(scene.agents, scene.kinematics)
               if (i := agent_frame_index(scene, agent, t)) is not None]
    # a bystander (in no critical pair) only ever keeps constant velocity
    choices = [
        (agent.id, ORACLE_PROFILES if agent.id in interacting else (ProfileKind.CONST_VEL,))
        for agent, _, _ in present
    ]
    rolled = rollout_rows([(agent.trajectory, i, float(speeds[i]), horizon, profiles)
                           for (agent, i, speeds), (_, profiles) in zip(present, choices)],
                          v_max, cfg)
    rollouts = {agent.id: rolls for (agent, _, _), rolls in zip(present, rolled)}
    dims = {a.id: VehicleDims(a.width, a.length) for a, _, _ in present}
    check_pairs = [(p.agent_a, p.agent_b) for p in pairs
                   if p.agent_a in rollouts and p.agent_b in rollouts]
    collides_at = _collision_tables(rollouts, dims, check_pairs, cfg.interp_factor)
    mean_speed = {
        aid: {kind: np.hypot(*(np.diff(rollouts[aid][kind], axis=0).T)).mean() / scene.dt
              for kind in profiles}
        for aid, profiles in choices
    }
    candidates = []
    for combo in itertools.product(*(profiles for _, profiles in choices)):
        assignment = dict(zip((aid for aid, _ in choices), combo))
        if any(collides_at[a, b][assignment[a], assignment[b]] for a, b in check_pairs):
            continue
        speeds = [mean_speed[aid][kind] for aid, kind in assignment.items()]
        avg_speed = float(np.mean(speeds)) if speeds else 0.0
        order_key = tuple(PROFILE_ORDER[kind] for kind in combo)
        candidates.append((-avg_speed, order_key, assignment, avg_speed))
    if not candidates:
        raise NoFeasibleCombo(f"all profile combinations collide at frame {t}")
    candidates.sort(key=lambda c: (c[0], c[1]))
    top = candidates[:k]
    total = sum(c[3] for c in top)
    return JointPredictionSet.from_samples(t, [
        (avg_speed / total if total > 0 else 1.0 / len(top),
         {aid: rollouts[aid][kind][1:] for aid, kind in assignment.items()})
        for _, _, assignment, avg_speed in top])
