"""Reference predictors: constant-velocity and the mode-covering oracle."""

from __future__ import annotations

import itertools

import numpy as np

from .collision import VehicleDims, is_collision
from .errors import ConfigError, NoFeasibleCombo
from .filtering import CriticalPair
from .rollout import ProfileKind, PROFILE_ORDER, max_scene_speed, profile_rollouts
from .types import (
    Agent,
    EvalConfig,
    JointPredictionSet,
    JointSample,
    Scene,
    Trajectory,
    agent_frame_index,
    trajectory_kinematics,
)


# the speed profiles an interacting agent may take in an oracle combination
ORACLE_PROFILES = (ProfileKind.ACCEL, ProfileKind.CONST_VEL, ProfileKind.DECEL)


def cv_predict(scene: Scene, t: int, cfg: EvalConfig) -> JointPredictionSet:
    """Single joint sample extrapolating each agent's current heading and speed."""
    horizon = cfg.horizon_frames(scene.dt)
    trajs: dict[str, np.ndarray] = {}
    for agent in scene.agents:
        i = agent_frame_index(scene, agent, t)
        if i is None:
            continue
        headings, speeds = trajectory_kinematics(agent.trajectory)
        step = speeds[i] * scene.dt * np.array([np.cos(headings[i]), np.sin(headings[i])])
        future = agent.trajectory.xy[i] + np.outer(np.arange(1, horizon + 1), step)
        trajs[agent.id] = future
    return JointPredictionSet(frame=t, samples=(JointSample(p=1.0, trajs=trajs),))


def oracle_predict(scene: Scene, t: int, pairs: list[CriticalPair], k: int,
                   cfg: EvalConfig) -> JointPredictionSet:
    """Top-K collision-free profile combinations ranked by average speed.

    Agents involved in a critical pair get all three speed profiles along
    their ground-truth path; everyone else keeps constant velocity.

    Once per frame, each critical pair whose agents are both present gets a
    3x3 collision table, one ``is_collision`` call per (profile, profile),
    and each rollout gets its mean speed. The combination loop only looks
    these up, so a frame costs 9 collision checks per critical pair however
    many combinations there are.
    """
    if k < 1:
        raise ConfigError(f"oracle k must be >= 1, got {k}")
    v_max = max_scene_speed(scene)
    horizon = cfg.horizon_frames(scene.dt)
    interacting = sorted({aid for p in pairs for aid in (p.agent_a, p.agent_b)})
    rollouts: dict[str, dict[ProfileKind, Trajectory]] = {}
    present: list[Agent] = []
    for agent in scene.agents:
        i = agent_frame_index(scene, agent, t)
        if i is None:
            continue
        traj = agent.trajectory
        _, speeds = trajectory_kinematics(traj)
        rollouts[agent.id] = profile_rollouts(traj, i, float(speeds[i]), v_max, horizon,
                                              ORACLE_PROFILES, cfg, t0=float(traj.t[i]))
        present.append(agent)
    choices = [
        (agent.id, ORACLE_PROFILES if agent.id in interacting else (ProfileKind.CONST_VEL,))
        for agent in present
    ]
    dims = {a.id: VehicleDims(a.width, a.length) for a in present}
    check_pairs = [(p.agent_a, p.agent_b) for p in pairs
                   if p.agent_a in rollouts and p.agent_b in rollouts]
    collides_at = {
        (a, b): {(ka, kb): is_collision(ta, tb, dims[a], dims[b], cfg.interp_factor)
                 for ka, ta in rollouts[a].items() for kb, tb in rollouts[b].items()}
        for a, b in check_pairs
    }
    mean_speed = {
        aid: {kind: np.hypot(*(np.diff(rollouts[aid][kind].xy, axis=0).T)).mean() / scene.dt
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
    samples = []
    for _, _, assignment, avg_speed in top:
        p = avg_speed / total if total > 0 else 1.0 / len(top)
        trajs = {aid: rollouts[aid][kind].xy[1:] for aid, kind in assignment.items()}
        samples.append(JointSample(p=p, trajs=trajs))
    return JointPredictionSet(frame=t, samples=tuple(samples))
