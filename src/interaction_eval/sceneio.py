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
is listed twice. A prediction file names the scene it is loaded for, and
none of its objects lists a key twice.
Both loaders raise ``ParseError`` for a file that breaks its format, that
holds a number a float cannot hold, or that puts a bool or a string where a
number belongs. A scene file must also pass
``validate_scene``, and a prediction file must hold no ``NaN`` or infinite
value (an ``Infinity`` token or a literal such as ``1e999``).
Optional heading fields in scene states are ignored: headings are always
derived from positions.
"""

from __future__ import annotations

import gc
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
    checked_agent_ids,
    validate_scene,
)


def read_json(path: Path, convert, **decode):
    """``convert(text, data)`` for the ``text`` of the JSON file at ``path``
    and its tree ``data``, decoded by ``json.loads(text, **decode)``.

    A file that cannot be read or decoded is a ParseError. The cyclic
    collector is paused from the read until the tree is dropped, and then put
    back as it was: a decoded tree holds no reference cycles, so the
    collections that its many lists would set off during the decode and the
    conversion free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            text = path.read_text(encoding="utf-8")
            data = json.loads(text, **decode)
        except (OSError, ValueError) as e:  # json.JSONDecodeError is a ValueError
            raise ParseError(path, str(e))
        result = convert(text, data)
        del text, data
        return result
    finally:
        if enabled:
            gc.enable()


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` ``object_pairs_hook``: an object that lists a key
    twice is a ValueError naming the key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"key {repeated!r} listed more than once in one object")
    return obj


# what a decoded JSON value of the wrong structure raises in a loader: a
# missing key or index, a list where an object belongs, a number a float
# cannot hold
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError)


def load_scene(path: str | Path) -> Scene:
    path = Path(path)
    scene = read_json(path, lambda text, data: _scene(text, data, path))
    try:
        return validate_scene(scene)
    except SceneValidationError as e:
        raise ParseError(path, f"invalid scene: {type(e).__name__}: {e}")


def _scene(text: str, data, path: Path) -> Scene:
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
        return Scene(scene_id=str(data["scene_id"]), dt=dt, agents=tuple(agents))
    except MALFORMED as e:
        raise ParseError(path, f"malformed scene file: {e!r}")


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

    A file whose ``scene_id`` is not ``scene``'s, or a sample that names an
    agent not in ``scene``, is a ParseError. With ``substitute_static``,
    agents missing from a sample are filled with their current ground-truth
    position held static.
    """
    path = Path(path)
    out = read_json(path, lambda text, data: _prediction_sets(text, data, path, scene,
                                                              substitute_static),
                    object_pairs_hook=unique_keys, parse_constant=_no_constant)
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


def _prediction_sets(text: str, data, path: Path, scene: Scene,
                     substitute_static: bool) -> dict[int, JointPredictionSet]:
    read_numbers = _numbers_reader(text)
    # With a true or false token, every frame is read per future, where a
    # bool among numbers is found; a float stack would hold it as 1.0 or 0.0.
    # Substituted agents join per future too.
    stack = read_numbers is numbers and not substitute_static
    out: dict[int, JointPredictionSet] = {}
    try:
        if str(data["scene_id"]) != scene.scene_id:
            raise ParseError(path, f"predictions for scene {data['scene_id']}, "
                                   f"loaded for scene {scene.scene_id}")
        for fr in data["frames"]:
            frame = frame_number(fr["frame"], path)
            if frame in out:
                raise ParseError(path, f"frame {frame}: listed more than once")
            out[frame] = pset = _frame_set(fr["samples"], frame, path, read_numbers, stack,
                                           scene, substitute_static)
            unknown = sorted(set(pset.agent_ids) - scene.agents_by_id.keys())
            if unknown:
                raise ParseError(path, f"frame {frame}: agent(s) {', '.join(unknown)} "
                                       f"not in scene {scene.scene_id}")
    except MALFORMED as e:
        raise ParseError(path, f"malformed prediction file: {e!r}")
    except ConfigError as e:  # checked_agent_ids
        raise ParseError(path, str(e))
    return out


def _frame_set(samples, frame: int, path: Path, read_numbers, stack: bool, scene: Scene,
               substitute_static: bool) -> JointPredictionSet:
    """The prediction set of one frame's decoded ``samples``: one stacked
    array where ``stack`` is set and the futures form one, else one array
    per future."""
    xy = _stacked_futures(samples) if stack else None
    if xy is None:
        filled = _agent_futures(samples, frame, path, read_numbers)
        return (_substitute_static(filled, scene, frame) if substitute_static
                else JointPredictionSet.from_samples(frame, filled))
    probs = [number(s["p"], f"frame {frame}, sample {k}: p", path) for k, s in enumerate(samples)]
    ids = checked_agent_ids(frame, probs, [s["trajs"].keys() for s in samples])
    return JointPredictionSet(frame, ids, probs, xy, np.full(xy.shape[:2], xy.shape[2]))


def _stacked_futures(samples) -> np.ndarray | None:
    """Every future of one frame's decoded ``samples`` as one (K, A, H, 2)
    number array, in the first sample's agent order; None where they form no
    such array: the samples name different agents, the futures differ in
    length, or a point is not two numbers."""
    try:
        ids = samples[0]["trajs"].keys()
        if any(s["trajs"].keys() != ids for s in samples):
            return None
        xy = np.asarray([[s["trajs"][aid] for aid in ids] for s in samples])
    except MALFORMED:
        return None
    return xy if xy.ndim == 4 and xy.shape[3] == 2 and xy.dtype.kind in "iuf" else None


def _agent_futures(samples, frame: int, path: Path,
                   read_numbers) -> list[tuple[float, dict[str, np.ndarray]]]:
    """One frame's decoded ``samples`` as ``[(p, {agent id: (H, 2) future})]``,
    one array per future."""
    out = []
    for k, s in enumerate(samples):
        trajs = {}
        for aid, pts in s["trajs"].items():
            xy = read_numbers(pts, f"frame {frame}, sample {k}, agent {aid}", path)
            if xy.ndim != 2 or xy.shape[1] != 2:
                raise ParseError(path, f"frame {frame}, agent {aid}: trajectory "
                                       f"of shape {xy.shape}, expected (H, 2)")
            trajs[str(aid)] = xy
        out.append((number(s["p"], f"frame {frame}, sample {k}: p", path), trajs))
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
