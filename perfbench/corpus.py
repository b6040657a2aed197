"""Seeded synthetic corpus for the interaction-eval benchmark.

Writes scene files (and, for the prediction-file workload, prediction files)
in the package's documented JSON formats, plus a ``labels.json`` that the
evaluator never reads: the outcome every agent pair must get from the
path-sharing filter ("Accepted" or the reject reason).

The scene schedule (kinds and agent counts per scene index) is fixed; the
seed draws a rigid motion per scene and small jitters of speeds, gaps and
offsets, chosen with wide margins so that no filter decision depends on it.
The same seed therefore gives the same bytes, and every seed gives the same
amount of work to within a few percent.

Run:  python3 perfbench/corpus.py --workload wod-10hz-predfile --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("wod-10hz-predfile", "intersection-2hz-oracle", "dense-10hz-cv")
SCENES_PER_CORPUS = 40  # ten scenes lie beyond the 75th percentile

WIDTH, LENGTH = 1.9, 4.6  # metres, every agent
LANE = 3.5  # lane spacing, metres
PRED_PROBS = (0.3, 0.2, 0.15, 0.13, 0.12, 0.1)  # K = 6, non-increasing
# per joint sample: speed scale of the pair's first and second agent
PRED_SCALES = ((1.0, 1.0), (0.6, 1.3), (1.3, 0.6), (0.45, 1.0), (1.0, 0.45), (1.35, 1.35))
PRED_FIRST_FRAME = 40  # predictions cover the last five seconds of each scene
PRED_HORIZON_S = 6.0


class Route:
    """A polyline in metres, extended straight beyond both ends."""

    def __init__(self, pts):
        self.pts = np.asarray(pts, dtype=float)
        seg = np.hypot(*np.diff(self.pts, axis=0).T)
        self.s = np.concatenate([[0.0], np.cumsum(seg)])
        self.length = float(self.s[-1])

    def at(self, s: np.ndarray) -> np.ndarray:
        """Positions at arc lengths ``s``, shape ``s.shape + (2,)``."""
        s = np.asarray(s, dtype=float)
        xy = np.stack([np.interp(s, self.s, self.pts[:, k]) for k in (0, 1)], axis=-1)
        head = self.pts[1] - self.pts[0]
        tail = self.pts[-1] - self.pts[-2]
        before = self.pts[0] + np.multiply.outer(s, head / np.hypot(*head))
        after = self.pts[-1] + np.multiply.outer(s - self.length, tail / np.hypot(*tail))
        xy = np.where((s < 0.0)[..., None], before, xy)
        return np.where((s > self.length)[..., None], after, xy)


def line(p0, p1) -> Route:
    return Route([p0, p1])


def turn(p0, heading0, straight_in, radius, angle, straight_out) -> Route:
    """Straight, circular arc (angle > 0 turns left), straight."""
    h = heading0
    d = np.array([math.cos(h), math.sin(h)])
    start = np.asarray(p0, dtype=float)
    pts = [start, start + d * straight_in]
    c = pts[-1] + radius * np.sign(angle) * np.array([-d[1], d[0]])
    phi0 = math.atan2(pts[-1][1] - c[1], pts[-1][0] - c[0])
    for k in range(1, 25):
        phi = phi0 + angle * k / 24
        pts.append(c + radius * np.array([math.cos(phi), math.sin(phi)]))
    h1 = h + angle
    pts.append(pts[-1] + straight_out * np.array([math.cos(h1), math.sin(h1)]))
    return Route(pts)


class SceneBuilder:
    def __init__(self, scene_id: str, dt: float, n_frames: int, rng: np.random.Generator):
        self.scene_id = scene_id
        self.dt = dt
        self.n = n_frames
        self.rng = rng
        self.agents: list[dict] = []
        self.labels: list[dict] = []
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        self._rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        self._shift = rng.uniform(-500.0, 500.0, size=2)

    def jitter(self, value: float, rel: float) -> float:
        return float(value * (1.0 + self.rng.uniform(-rel, rel)))

    def add(self, route: Route, s_at_first: float, v: float,
            first: int = 0, last: int | None = None) -> str:
        """Agent at constant speed ``v`` along ``route``, observed in frames
        ``first..last``; ``s_at_first`` is its arc length at ``first``."""
        last = self.n - 1 if last is None else last
        aid = f"a{len(self.agents)}"
        s = s_at_first + v * self.dt * np.arange(last + 1 - first)
        self.agents.append(dict(id=aid, route=route, first=first, last=last,
                                s0=s_at_first, v=v, xy=route.at(s)))
        return aid

    def label(self, a: str, b: str, reason: str) -> None:
        self.labels.append({"pair": sorted([a, b]), "reason": reason})

    def world(self, xy: np.ndarray) -> np.ndarray:
        return xy @ self._rot.T + self._shift

    def scene_json(self) -> dict:
        agents = []
        for a in self.agents:
            xy = self.world(a["xy"])
            states = [{"t": round((a["first"] + k) * self.dt, 6),
                       "x": round(float(x), 6), "y": round(float(y), 6)}
                      for k, (x, y) in enumerate(xy)]
            agents.append({"id": a["id"], "width": WIDTH, "length": LENGTH, "states": states})
        return {"scene_id": self.scene_id, "dt": self.dt, "agents": agents}

    def predictions_json(self, pair: tuple[str, ...]) -> dict:
        """K joint samples per frame for the agents of ``pair``.

        In sample k each agent follows its own route from its current state
        at ``PRED_SCALES[k]`` times its current speed.
        """
        horizon = int(round(PRED_HORIZON_S / self.dt))
        steps = self.dt * np.arange(1, horizon + 1)
        by_id = {a["id"]: a for a in self.agents}
        frames = []
        for f in range(PRED_FIRST_FRAME, self.n - 1):
            present = [aid for aid in pair
                       if by_id[aid]["first"] <= f <= by_id[aid]["last"]]
            if not present:
                continue
            futures = {}
            for aid in present:
                a = by_id[aid]
                col = 1 if len(pair) > 1 and aid == pair[1] else 0
                scale = np.array([sc[col] for sc in PRED_SCALES])[:, None]
                s = a["s0"] + a["v"] * (f - a["first"]) * self.dt
                xy = self.world(a["route"].at(s + scale * a["v"] * steps).reshape(-1, 2))
                futures[aid] = np.round(xy, 2).reshape(len(PRED_SCALES), horizon, 2).tolist()
            samples = [{"p": p, "trajs": {aid: futures[aid][k] for aid in present}}
                       for k, p in enumerate(PRED_PROBS)]
            frames.append({"frame": f, "samples": samples})
        return {"scene_id": self.scene_id, "horizon": PRED_HORIZON_S, "frames": frames}


# ---------------------------------------------------------------------------
# building blocks; every pair's filter outcome is labelled as it is built


def _cross(b: SceneBuilder, origin: float, arrive_a: float, arrive_b: float,
           va: float, vb: float, first_b: int = 0) -> tuple[str, str]:
    """A eastbound and B northbound through ``(origin, 0)``; arrival times in seconds."""
    va, vb = b.jitter(va, 0.01), b.jitter(vb, 0.01)
    arrive_a, arrive_b = b.jitter(arrive_a, 0.005), b.jitter(arrive_b, 0.005)
    a = b.add(line((origin - 300.0, 0.0), (origin + 300.0, 0.0)), 300.0 - va * arrive_a, va)
    tb = arrive_b - first_b * b.dt
    c = b.add(line((origin, -300.0), (origin, 300.0)), 300.0 - vb * tb, vb, first=first_b)
    return a, c


def _curve(b: SceneBuilder, origin: float) -> tuple[str, str]:
    """A turns left on a 20 m arc, so its lateral-acceleration cap binds; B crosses the arc."""
    va, vb = b.jitter(6.0, 0.01), b.jitter(8.0, 0.01)
    ra = turn((origin - 60.0, 0.0), 0.0, 40.0, 20.0, math.pi / 2, 300.0)
    s_cross = 40.0 + 20.0 * math.pi / 3  # the arc meets y = 10 at 60 degrees
    a = b.add(ra, s_cross - va * b.jitter(7.0, 0.005), va)
    rb = line((origin + 60.0, 10.0), (origin - 300.0, 10.0))
    x_cross = origin - 20.0 + 20.0 * math.sin(math.pi / 3)
    c = b.add(rb, (origin + 60.0 - x_cross) - vb * (b.jitter(7.8, 0.005) - 4.0), vb, first=40)
    return a, c


def _merge(b: SceneBuilder, origin: float) -> tuple[str, str]:
    """B merges 1.2 s behind A and follows 1 m off A's line at A's speed.

    Both passing orders stay feasible to the end of the window: NoCollapse.
    """
    v = b.jitter(10.0, 0.01)
    a = b.add(line((origin - 300.0, 0.0), (origin + 300.0, 0.0)), 290.0 - v * b.jitter(5.5, 0.005), v)
    ramp = Route([(origin - 70.0, -20.0), (origin - 10.0, 1.0), (origin + 300.0, 1.0)])
    s_merge = float(np.hypot(60.0, 21.0))
    c = b.add(ramp, s_merge - v * (5.5 + b.jitter(1.2, 0.02) - 4.0), v, first=40)
    return a, c


def _follow(b: SceneBuilder, origin: float, lane_y: float = 0.0, v: float = 9.0,
            count: int = 2, gap: float = 16.0, first: int = 0,
            last: int | None = None) -> list[str]:
    """A platoon in one lane at one speed.

    A pair is SharedFromStart when the rear agent reaches the front agent's
    first position within the track, else NeverPathSharing; callers keep
    the gaps at least 3 m away from that threshold.
    """
    v = b.jitter(v, 0.01)
    last = b.n - 1 if last is None else last
    reach = v * (last - first) * b.dt
    route = line((origin, lane_y), (origin + 600.0, lane_y))
    offsets = np.cumsum([0.0] + [b.jitter(gap, 0.05) for _ in range(count - 1)])[::-1]
    ids = [b.add(route, float(s), v, first=first, last=last) for s in offsets]
    for i, x in enumerate(ids):
        for j in range(i + 1, count):
            if offsets[i] - offsets[j] < reach:
                b.label(x, ids[j], "SharedFromStart")
    return ids


def _parallel(b: SceneBuilder, origin: float) -> list[str]:
    """Two agents on adjacent lanes: NeverPathSharing."""
    v = b.jitter(10.0, 0.02)
    a0 = b.add(line((origin, 0.0), (origin + 400.0, 0.0)), 0.0, v)
    a1 = b.add(line((origin, LANE), (origin + 400.0, LANE)), b.jitter(6.0, 0.2), b.jitter(v, 0.02))
    return [a0, a1]


def _late(b: SceneBuilder, origin: float) -> list[str]:
    """A crossing the second agent reaches ~7.7 s after the first: TimeGapTooLarge."""
    a0, a1 = _cross(b, origin, 0.8, 8.5, 8.0, 8.0)
    b.label(a0, a1, "TimeGapTooLarge")
    return [a0, a1]


def _lone(b: SceneBuilder, origin: float) -> list[str]:
    return [b.add(line((origin, 0.0), (origin, 400.0)), 0.0, b.jitter(7.0, 0.02))]


def _finish_labels(b: SceneBuilder, accepted: list[tuple[str, str]]) -> None:
    """Label designed critical pairs and every pair not labelled yet as NeverPathSharing."""
    for a, c in accepted:
        b.label(a, c, "Accepted")
    done = {tuple(x["pair"]) for x in b.labels}
    ids = sorted(a["id"] for a in b.agents)
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            if (x, y) not in done:
                b.label(x, y, "NeverPathSharing")
    b.labels.sort(key=lambda x: x["pair"])


SPACING = 2000.0  # metres between isolated groups of one scene

# wod-10hz-predfile: at most one designed pair per scene, which decides its
# fate; a quiet scene has none, only filler groups
WOD_KINDS = ("cross", "curve", "quiet", "merge", "cross", "decided", "quiet", "unpredicted")
WOD_FILLERS = ((), (_lone,), (_follow,), (_follow, _lone), (_parallel, _late),
               (_follow, _parallel, _lone), (_follow, _parallel, _late), (_late,))


def _wod_scene(i: int, rng: np.random.Generator) -> tuple[dict, dict, list[dict]]:
    b = SceneBuilder(f"wod-{i:02d}", 0.1, 91, rng)
    kind = WOD_KINDS[i % len(WOD_KINDS)]
    if kind in ("cross", "unpredicted"):
        pair = _cross(b, 0.0, 8.0, 8.8, 9.0, 8.0, first_b=40)
    elif kind == "decided":  # A is committed before B enters: DegenerateInterval
        pair = _cross(b, 0.0, 6.5, 8.0, 9.0, 8.0, first_b=45)
    elif kind == "curve":
        pair = _curve(b, 0.0)
    elif kind == "merge":
        pair = _merge(b, 0.0)
    else:
        pair = tuple(_parallel(b, 0.0))
    for k, group in enumerate(WOD_FILLERS[(3 * i) % len(WOD_FILLERS)]):
        group(b, SPACING * (k + 1))
    _finish_labels(b, [] if kind == "quiet" else [pair])
    predicted = pair[:1] if kind == "unpredicted" else pair  # NoPredictionFrames
    return b.scene_json(), b.predictions_json(predicted), b.labels


# intersection-2hz-oracle: (arm, arrival time at the centre in s); a negative
# time is an agent that left the intersection before the first frame
ARMS = {"E": ((-300.0, -LANE / 2), (300.0, -LANE / 2)), "W": ((300.0, LANE / 2), (-300.0, LANE / 2)),
        "N": ((LANE / 2, -300.0), (LANE / 2, 300.0)), "S": ((-LANE / 2, 300.0), (-LANE / 2, -300.0))}
TRI = (("E", 4.0), ("N", 6.0), ("W", 8.0))
QUAD = (("E", 4.0), ("N", 6.0), ("S", 6.2), ("W", 8.0))
JAM = (("N", 5.0), ("W", 5.9), ("S", 8.0))  # N and W 0.9 s apart: NoFeasibleCombo
PAIR = TRI[:2]
LEFT = (("S", -1.0), ("E", -1.2))
L1, L1B, L2 = LEFT[:1], LEFT[1:], LEFT
# 20 slots: 7 PAIR, 8 TRI, 4 JAM, 1 QUAD, with 3-6 agents; the slow QUAD
# scenes stay above the 75th percentile of scene latency
INTERSECTION_SLOTS = (PAIR + L1, TRI, JAM, PAIR + L2, TRI + L1, TRI + L2, PAIR + L1B,
                      JAM + L1, TRI + L2, PAIR + L2, TRI, JAM + L2, PAIR + L1, QUAD + L2,
                      TRI + L1B, PAIR + L2, JAM, TRI + L2, PAIR + L1, TRI + L1)
PERPENDICULAR = {frozenset("EN"), frozenset("ES"), frozenset("WN"), frozenset("WS")}


def _intersection_scene(i: int, rng: np.random.Generator) -> tuple[dict, None, list[dict]]:
    b = SceneBuilder(f"intersection-{i:02d}", 0.5, 20, rng)
    spec = INTERSECTION_SLOTS[i % len(INTERSECTION_SLOTS)]
    placed = []
    for arm, arrive in spec:
        v = b.jitter(9.0 if arm in "EW" else 8.0, 0.01)
        placed.append((b.add(line(*ARMS[arm]), 300.0 - v * b.jitter(arrive, 0.005), v),
                       arm, arrive))
    accepted = []
    for k, (x, arm_x, tx) in enumerate(placed):
        for y, arm_y, ty in placed[k + 1:]:
            if arm_x == arm_y:
                b.label(x, y, "SharedFromStart")
            elif frozenset(arm_x + arm_y) in PERPENDICULAR and min(tx, ty) > 0:
                accepted.append((x, y))
    _finish_labels(b, accepted)
    return b.scene_json(), None, b.labels


# dense-10hz-cv: platoons on parallel lanes, observed for 3 s each, staggered by
# lane; every fifth scene adds one isolated crossing pair observed for 4 s
DENSE_AGENTS = (24, 26, 28, 30, 32, 27, 25, 31)


def _dense_scene(i: int, rng: np.random.Generator) -> tuple[dict, None, list[dict]]:
    b = SceneBuilder(f"dense-{i:02d}", 0.1, 41, rng)
    n_agents = DENSE_AGENTS[i % len(DENSE_AGENTS)]
    accepted = []
    if i % 5 == 1:
        accepted.append(_cross(b, SPACING, 3.0, 3.6, 5.0, 4.5))
        n_agents -= 2
    lanes = 4
    for lane in range(lanes):
        count = n_agents // lanes + (1 if lane < n_agents % lanes else 0)
        first = 0 if lane % 2 == 0 else 10
        _follow(b, 0.0, lane * LANE, 8.0 + 0.5 * lane, count, 18.0, first, first + 30)
    _finish_labels(b, accepted)
    return b.scene_json(), None, b.labels


BUILDERS = {"wod-10hz-predfile": _wod_scene,
            "intersection-2hz-oracle": _intersection_scene,
            "dense-10hz-cv": _dense_scene}


def _dump(obj, path: Path) -> int:
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def generate(workload: str, seed: int, out_dir: str | Path) -> dict:
    """Write ``scenes/``, ``preds/`` (if the workload reads predictions) and
    ``labels.json`` under ``out_dir``; returns a summary of what was written."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out_dir)
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    labels: dict[str, list[dict]] = {}
    n_bytes = 0
    has_preds = False
    for i in range(SCENES_PER_CORPUS):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), i])
        scene, preds, scene_labels = BUILDERS[workload](i, rng)
        n_bytes += _dump(scene, out / "scenes" / f"{scene['scene_id']}.json")
        if preds is not None:
            (out / "preds").mkdir(exist_ok=True)
            n_bytes += _dump(preds, out / "preds" / f"{scene['scene_id']}.json")
            has_preds = True
        labels[scene["scene_id"]] = scene_labels
    _dump(labels, out / "labels.json")
    return {"workload": workload, "seed": seed, "scenes": SCENES_PER_CORPUS,
            "predictions": has_preds, "bytes": n_bytes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
