"""JSON scene and prediction file loading/saving.

Scene file:
    { "scene_id": str, "dt": number,
      "agents": [ { "id": str, "width": number, "length": number,
                    "states": [ { "t": number, "x": number, "y": number } ] } ] }

Prediction file:
    { "scene_id": str, "horizon": number,
      "frames": [ { "frame": int,
                    "samples": [ { "p": number,
                                   "trajs": { "<agent_id>": [[x, y], ...] } } ] } ] }

All values SI. Prediction samples are ordered by non-increasing p; every
trajectory has shape (H, 2). ``load_predictions`` raises ``ParseError`` for
a file that breaks this, or that holds a ``NaN`` or ``Infinity`` token.
Optional heading fields in scene states are ignored: headings are always
derived from positions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .types import Agent, JointPredictionSet, JointSample, Scene, Trajectory, validate_scene


def load_scene(path: str | Path) -> Scene:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(path, str(e))
    try:
        agents = []
        for a in data["agents"]:
            states = a["states"]
            traj = Trajectory(
                t=np.array([s["t"] for s in states], dtype=float),
                xy=np.array([[s["x"], s["y"]] for s in states], dtype=float),
                dt=float(data["dt"]),
            )
            agents.append(Agent(id=str(a["id"]), width=float(a["width"]),
                                length=float(a["length"]), trajectory=traj))
        scene = Scene(scene_id=str(data["scene_id"]), dt=float(data["dt"]),
                      agents=tuple(agents))
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise ParseError(path, f"malformed scene file: {e!r}")
    return validate_scene(scene)


def save_scene(scene: Scene, path: str | Path) -> None:
    data = {
        "scene_id": scene.scene_id,
        "dt": scene.dt,
        "agents": [
            {
                "id": a.id,
                "width": a.width,
                "length": a.length,
                "states": [
                    {"t": float(t), "x": float(x), "y": float(y)}
                    for t, (x, y) in zip(a.trajectory.t, a.trajectory.xy)
                ],
            }
            for a in scene.agents
        ],
    }
    Path(path).write_text(json.dumps(data, indent=1), encoding="utf-8")


def load_predictions(path: str | Path, scene: Scene | None = None,
                     substitute_static: bool = False) -> dict[int, JointPredictionSet]:
    """Prediction sets keyed by frame index.

    Given a scene, a sample that names an agent not in the scene is a
    ParseError. With ``substitute_static`` (and a scene), agents missing from
    a sample are filled with their current ground-truth position held static.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
    except (OSError, ValueError) as e:  # json.JSONDecodeError is a ValueError
        raise ParseError(path, str(e))
    scene_ids = set(scene.agent_ids) if scene is not None else None
    out: dict[int, JointPredictionSet] = {}
    try:
        for fr in data["frames"]:
            frame = int(fr["frame"])
            samples = []
            for s in fr["samples"]:
                trajs = {}
                for aid, pts in s["trajs"].items():
                    xy = np.asarray(pts, dtype=float)
                    if xy.ndim != 2 or xy.shape[1] != 2:
                        raise ParseError(path, f"frame {frame}, agent {aid}: trajectory "
                                               f"of shape {xy.shape}, expected (H, 2)")
                    trajs[str(aid)] = xy
                samples.append(JointSample(p=float(s["p"]), trajs=trajs))
            if substitute_static and scene is not None and samples:
                samples = [_substitute_static(s, scene, frame) for s in samples]
            out[frame] = JointPredictionSet(frame=frame, samples=tuple(samples)).validate()
            # validate() makes every sample name the same agents as the first
            unknown = sorted(set(samples[0].trajs) - scene_ids) if scene_ids else []
            if unknown:
                raise ParseError(path, f"frame {frame}: agent(s) {', '.join(unknown)} "
                                       f"not in scene {scene.scene_id}")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(path, f"malformed prediction file: {e!r}")
    except ConfigError as e:  # JointPredictionSet.validate
        raise ParseError(path, str(e))
    return out


def _no_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _substitute_static(sample: JointSample, scene: Scene, frame: int) -> JointSample:
    from .baselines import agent_frame_index

    horizon = max((len(v) for v in sample.trajs.values()), default=0)
    trajs = dict(sample.trajs)
    for agent in scene.agents:
        if agent.id in trajs:
            continue
        i = agent_frame_index(scene, agent, frame)
        if i is None:
            continue
        trajs[agent.id] = np.tile(agent.trajectory.xy[i], (horizon, 1))
    return JointSample(p=sample.p, trajs=trajs)


def save_predictions(scene_id: str, horizon: float,
                     frames: dict[int, JointPredictionSet], path: str | Path) -> None:
    data = {
        "scene_id": scene_id,
        "horizon": horizon,
        "frames": [
            {
                "frame": frame,
                "samples": [
                    {"p": s.p, "trajs": {aid: np.asarray(t).tolist()
                                         for aid, t in sorted(s.trajs.items())}}
                    for s in pset.samples
                ],
            }
            for frame, pset in sorted(frames.items())
        ],
    }
    Path(path).write_text(json.dumps(data, indent=1), encoding="utf-8")
