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

All values SI. Prediction samples are ordered by non-increasing p, and no p
is negative; every trajectory has shape (H, 2), every frame holds at least
one sample, the samples of a frame name the same agents, and no frame number
is listed twice.
Both loaders raise ``ParseError`` for a file that breaks its format, that
holds a number a float cannot hold, or that puts a bool or a string where a
number belongs. A scene file must also pass
``validate_scene``, and a prediction file must hold no ``NaN`` or infinite
value (an ``Infinity`` token or a literal such as ``1e999``).
Optional heading fields in scene states are ignored: headings are always
derived from positions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, SceneValidationError
from .types import (
    Agent,
    JointPredictionSet,
    Scene,
    Trajectory,
    agent_frame_index,
    validate_scene,
)


def load_scene(path: str | Path) -> Scene:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(path, str(e))
    read_numbers = _numbers_reader(text)
    try:
        dt = number(data["dt"], "dt", path)
        agents = []
        for a in data["agents"]:
            states, aid = a["states"], str(a["id"])
            traj = Trajectory(
                t=read_numbers([s["t"] for s in states], f"agent {aid}: t", path),
                xy=read_numbers([[s["x"], s["y"]] for s in states], f"agent {aid}: x, y", path),
                dt=dt,
            )
            agents.append(Agent(id=aid, width=number(a["width"], f"agent {aid}: width", path),
                                length=number(a["length"], f"agent {aid}: length", path),
                                trajectory=traj))
        scene = Scene(scene_id=str(data["scene_id"]), dt=dt, agents=tuple(agents))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
        raise ParseError(path, f"malformed scene file: {e!r}")
    try:
        return validate_scene(scene)
    except SceneValidationError as e:
        raise ParseError(path, f"invalid scene: {type(e).__name__}: {e}")


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


def load_predictions(path: str | Path, scene: Scene,
                     substitute_static: bool = False) -> dict[int, JointPredictionSet]:
    """Prediction sets keyed by frame index.

    A sample that names an agent not in ``scene`` is a ParseError. With
    ``substitute_static``, agents missing from a sample are filled with their
    current ground-truth position held static.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text, parse_constant=_no_constant)
    except (OSError, ValueError) as e:  # json.JSONDecodeError is a ValueError
        raise ParseError(path, str(e))
    read_numbers = _numbers_reader(text)
    out: dict[int, JointPredictionSet] = {}
    try:
        for fr in data["frames"]:
            frame = frame_number(fr["frame"], path)
            if frame in out:
                raise ParseError(path, f"frame {frame}: listed more than once")
            samples = []
            for k, s in enumerate(fr["samples"]):
                trajs = {}
                for aid, pts in s["trajs"].items():
                    xy = read_numbers(pts, f"frame {frame}, sample {k}, agent {aid}", path)
                    if xy.ndim != 2 or xy.shape[1] != 2:
                        raise ParseError(path, f"frame {frame}, agent {aid}: trajectory "
                                               f"of shape {xy.shape}, expected (H, 2)")
                    trajs[str(aid)] = xy
                samples.append((number(s["p"], f"frame {frame}, sample {k}: p", path), trajs))
            out[frame] = pset = (_substitute_static(samples, scene, frame) if substitute_static
                                 else JointPredictionSet.from_samples(frame, samples))
            unknown = sorted(set(pset.agent_ids) - scene.agents_by_id.keys())
            if unknown:
                raise ParseError(path, f"frame {frame}: agent(s) {', '.join(unknown)} "
                                       f"not in scene {scene.scene_id}")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(path, f"malformed prediction file: {e!r}")
    except ConfigError as e:  # JointPredictionSet.from_samples
        raise ParseError(path, str(e))
    for frame, pset in out.items():
        if not (np.isfinite(pset.p).all() and np.isfinite(pset.xy).all()):
            # per sample, its probability and then each agent's positions
            finite = np.column_stack((np.isfinite(pset.p),
                                      np.isfinite(pset.xy).all(axis=(2, 3))))
            k, col = (int(i) for i in np.argwhere(~finite)[0])
            where = (f"frame {frame}, sample {k}: non-finite probability" if col == 0 else
                     f"frame {frame}, sample {k}, agent {pset.agent_ids[col - 1]}: "
                     "non-finite position")
            raise ParseError(path, where)
    return out


def number(value, field: str, path: Path) -> float:
    """A scalar read from a JSON file: a number, never a bool or a string."""
    if isinstance(value, (bool, str)):
        raise ParseError(path, f"{field}: {value!r} is not a number")
    return float(value)


def numbers(values, field: str, path: Path) -> np.ndarray:
    """A float array of JSON numbers: strings or bools alone are a ParseError."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":  # an int a float cannot hold, or a null: raises
        arr = arr.astype(float)
    if arr.dtype.kind not in "iuf":
        raise ParseError(path, f"{field}: values must be numbers, got numpy dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _holds_bool(values) -> bool:
    if isinstance(values, list):
        return any(_holds_bool(v) for v in values)
    return isinstance(values, bool)


def _numbers_without_bools(values, field: str, path: Path) -> np.ndarray:
    """``numbers``, where a JSON true or false among numbers, which the float
    array would hold as 1.0 or 0.0, is also a ParseError."""
    arr = numbers(values, field, path)
    if _holds_bool(values):
        raise ParseError(path, f"{field}: values must be numbers, got a bool among them")
    return arr


def _numbers_reader(text: str):
    """``numbers`` for a file of JSON ``text``; it scans every value for a
    bool only when the text holds a true or false token at all."""
    return _numbers_without_bools if "true" in text or "false" in text else numbers


def frame_number(value, path: Path) -> int:
    """A frame number read from a JSON file: an integer, never a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(path, f"frame {value!r}: frame numbers must be integers")
    return value


def _no_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _substitute_static(samples: list[tuple[float, dict[str, np.ndarray]]], scene: Scene,
                       frame: int) -> JointPredictionSet:
    """The set of ``samples`` with each scene agent that a sample leaves out
    held static at its current recorded position, over the sample's longest
    horizon."""
    filled = []
    for p, trajs in samples:
        horizon = max((len(v) for v in trajs.values()), default=0)
        trajs = dict(trajs)
        for agent in scene.agents:
            if agent.id in trajs:
                continue
            i = agent_frame_index(scene, agent, frame)
            if i is None:
                continue
            trajs[agent.id] = np.tile(agent.trajectory.xy[i], (horizon, 1))
        filled.append((p, trajs))
    return JointPredictionSet.from_samples(frame, filled)


def save_predictions(scene_id: str, horizon: float,
                     frames: dict[int, JointPredictionSet], path: str | Path) -> None:
    data = {
        "scene_id": scene_id,
        "horizon": horizon,
        "frames": [
            {
                "frame": frame,
                "samples": [
                    {"p": p, "trajs": {aid: pset.xy[k, a, :pset.lengths[k, a]].tolist()
                                       for aid, a in sorted((aid, a) for a, aid
                                                            in enumerate(pset.agent_ids))}}
                    for k, p in enumerate(pset.p.tolist())
                ],
            }
            for frame, pset in sorted(frames.items())
        ],
    }
    Path(path).write_text(json.dumps(data, indent=1), encoding="utf-8")
