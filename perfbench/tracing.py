"""In-memory span tracing of interaction-eval, applied from outside the package.

``Tracer.install()`` replaces public callables where their callers look
them up (``pipeline.interaction_timeline``, ``rollout.is_collision``,
``PathRollout.roll``, ...) with wrappers that record one span per call:
name, start, end, parent span and scene id. ``uninstall()`` puts the
originals back, so untraced passes run the unmodified program.

A span's self time is its duration minus the time its child spans cover.
Because one thread runs every call, children never overlap and the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

from interaction_eval import baselines, collision, filtering, homotopy, metrics, pipeline, rollout, sceneio
from interaction_eval.errors import NoFeasibleCombo
from interaction_eval.filtering import CriticalPair
from interaction_eval.rollout import PathRollout

# the program integrates each frame of a roll in this many substeps;
# rollout.roll.substeps is computed from it, not counted
ROLL_SUBSTEPS = rollout._SUBSTEPS

# (per-layer metric, unit, better, end-to-end metric it should move, workload)
LAYER_METRICS = (
    ("sceneio.load_scene.s", "s", "lower", "setup_s", "dense-10hz-cv"),
    ("sceneio.load_predictions.s", "s", "lower", "setup_s", "wod-10hz-predfile"),
    ("sceneio.load_predictions.bytes", "bytes", "lower", "setup_s", "wod-10hz-predfile"),
    ("filtering.classify_pair.calls", "count", "lower", "scenes_per_s", "dense-10hz-cv"),
    ("filtering.classify_pair.s", "s", "lower", "scenes_per_s, scene_tail_s", "dense-10hz-cv"),
    ("filtering.distance_cells", "count", "lower", "scenes_per_s, scene_tail_s", "dense-10hz-cv"),
    ("filtering.accept_ratio", "ratio", "higher", "scenes_per_s", "dense-10hz-cv"),
    ("rollout.interaction_timeline.calls", "count", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("rollout.interaction_timeline.s", "s", "lower", "pairs_per_s, scene_p50_s", "wod-10hz-predfile"),
    ("rollout.PathRollout.init.calls", "count", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("rollout.PathRollout.init.s", "s", "lower", "pairs_per_s, scene_p50_s", "wod-10hz-predfile"),
    ("rollout.roll.calls", "count", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("rollout.roll.s", "s", "lower", "pairs_per_s, scene_p50_s", "wod-10hz-predfile"),
    ("rollout.roll.substeps", "count", "lower", "pairs_per_s, scene_p50_s", "wod-10hz-predfile"),
    ("rollout.max_scene_speed.calls", "count", "lower", "pairs_per_s", "intersection-2hz-oracle"),
    ("rollout.timeline_evaluable_ratio", "ratio", "higher", "pairs_per_s", "wod-10hz-predfile"),
    ("collision.is_collision.calls", "count", "lower", "pairs_per_s", "intersection-2hz-oracle"),
    ("collision.is_collision.s", "s", "lower", "pairs_per_s", "intersection-2hz-oracle"),
    ("collision.is_collision.rollout.calls", "count", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("collision.is_collision.rollout.s", "s", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("collision.is_collision.baselines.calls", "count", "lower", "scenes_per_s", "intersection-2hz-oracle"),
    ("collision.is_collision.baselines.s", "s", "lower", "scenes_per_s", "intersection-2hz-oracle"),
    ("collision.collide_ratio", "ratio", "higher", "pairs_per_s", "intersection-2hz-oracle"),
    ("homotopy.classify_pair_windows.calls", "count", "lower", "pair_frames_per_s", "wod-10hz-predfile"),
    ("homotopy.classify_pair_windows.s", "s", "lower", "pair_frames_per_s", "wod-10hz-predfile"),
    ("homotopy.gt_mode_sequence.s", "s", "lower", "pair_frames_per_s", "wod-10hz-predfile"),
    ("baselines.oracle_predict.calls", "count", "lower", "scenes_per_s", "intersection-2hz-oracle"),
    ("baselines.oracle_predict.s", "s", "lower", "scenes_per_s", "intersection-2hz-oracle"),
    ("baselines.oracle_predict.failed", "count", "lower", "scene_graded_ratio", "intersection-2hz-oracle"),
    ("baselines.cv_predict.s", "s", "lower", "scenes_per_s", "dense-10hz-cv"),
    ("metrics.frame_flags.calls", "count", "lower", "pair_frames_per_s", "wod-10hz-predfile"),
    ("metrics.displacement_metrics.s", "s", "lower", "pair_frames_per_s", "wod-10hz-predfile"),
    ("metrics.aggregate.s", "s", "lower", "pair_frames_per_s", "wod-10hz-predfile"),
    ("pipeline.evaluate_scene.self_s", "s", "lower", "scenes_per_s", "all"),
    ("pipeline.write.s", "s", "lower", "scenes_per_s", "all"),
    ("pipeline.write.bytes", "bytes", "lower", "scenes_per_s", "all"),
    ("pipeline.scene_fail_ratio", "ratio", "lower", "scene_graded_ratio", "intersection-2hz-oracle"),
    ("types.trajectory_kinematics.calls", "count", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("types.trajectory_kinematics.s", "s", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("types.resample_trajectory.calls", "count", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("types.resample_trajectory.s", "s", "lower", "pairs_per_s", "wod-10hz-predfile"),
    ("trace.overhead_s", "s", "lower", "(none: traced minus untraced pass)", "all"),
)


def self_times(spans: list) -> list[int]:
    """Self time of every span, in the spans' clock units.

    ``spans`` holds ``[name, start, end, parent, scene_id]`` records, where
    ``parent`` is the index of the enclosing span or -1.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _overlap_cells(args) -> int:
    """(4n-3)^2 distance cells of the matrix classify_pair builds (interp_factor 4)."""
    scene, a, b, cfg = args[:4]
    ta = scene.agent(a).trajectory.t
    tb = scene.agent(b).trajectory.t
    t0, t1 = max(ta[0], tb[0]), min(ta[-1], tb[-1])
    if t1 < t0:
        return 0
    n = int(round((t1 - t0) / scene.dt)) + 1
    m = (n - 1) * cfg.interp_factor + 1
    return m * m


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.scene_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._scales: list[tuple[int, int, float]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.scene_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                rec[2] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(args, kwargs, e)
                raise
            rec[2] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span recorded from the benchmark's own code."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self) -> None:
        c = self.counts

        def count(key, weigh=lambda args, kwargs, result: 1):
            def hook(args, kwargs, result):
                c[key] += weigh(args, kwargs, result)
            return hook

        def classify_hook(args, kwargs, result):
            c["filtering.distance_cells"] += _overlap_cells(args)
            c["filtering.accepted"] += isinstance(result, CriticalPair)

        def roll_hook(args, kwargs, result):
            n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
            c["rollout.roll.substeps"] += n_steps * ROLL_SUBSTEPS

        def oracle_error(args, kwargs, e):
            c["baselines.oracle_predict.failed"] += isinstance(e, NoFeasibleCombo)

        self._patch(sceneio, "load_scene", "sceneio.load_scene")
        self._patch(sceneio, "load_predictions", "sceneio.load_predictions",
                    on_result=count("sceneio.load_predictions.bytes",
                                    lambda a, k, r: Path(a[0]).stat().st_size))
        self._patch(pipeline, "evaluate_scene", "pipeline.evaluate_scene")
        self._patch(filtering, "classify_pair", "filtering.classify_pair",
                    on_result=classify_hook)
        self._patch(pipeline, "interaction_timeline", "rollout.interaction_timeline",
                    on_result=count("rollout.timeline_evaluable"))
        self._patch(PathRollout, "__init__", "rollout.PathRollout.init")
        self._patch(PathRollout, "roll", "rollout.roll", on_result=roll_hook)
        for caller in (rollout, baselines):
            tag = caller.__name__.rsplit(".", 1)[-1]
            self._patch(caller, "max_scene_speed", "rollout.max_scene_speed")
            self._patch(caller, "is_collision", f"collision.is_collision.{tag}",
                        on_result=count("collision.collide", lambda a, k, r: int(bool(r))))
            self._patch(caller, "trajectory_kinematics", "types.trajectory_kinematics")
        self._patch(collision, "trajectory_kinematics", "types.trajectory_kinematics")
        for caller in (filtering, collision):
            self._patch(caller, "resample_trajectory", "types.resample_trajectory")
        for caller in (rollout, pipeline, homotopy):
            self._patch(caller, "classify_pair_windows", "homotopy.classify_pair_windows")
        self._patch(rollout, "gt_mode_sequence", "homotopy.gt_mode_sequence")
        self._patch(pipeline, "oracle_predict", "baselines.oracle_predict", on_error=oracle_error)
        self._patch(pipeline, "cv_predict", "baselines.cv_predict")
        self._patch(pipeline, "frame_flags", "metrics.frame_flags")
        self._patch(metrics, "displacement_metrics", "metrics.displacement_metrics")
        self._patch(metrics, "aggregate", "metrics.aggregate")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def scale(self, first: int, factor: float) -> None:
        """Report the spans recorded since index ``first`` in seconds times
        ``factor``; the run passes the reference-over-wall factor of a pass."""
        self._scales.append((first, len(self.spans), factor))

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds (scaled, see scale())."""
        factors = [1.0] * len(self.spans)
        for first, last, factor in self._scales:
            factors[first:last] = [factor] * (last - first)
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), own, f in zip(self.spans, self_times(self.spans), factors):
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += f * (end - start) / 1e9
            row["self_s"] += f * own / 1e9
        return dict(out)

    def write(self, path: Path) -> None:
        """One tab-separated span per line: name, start_ns, end_ns, parent, scene."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tscene_id\n")
            for name, start, end, parent, scene_id in self.spans:
                f.write(f"{name}\t{start}\t{end}\t{parent}\t{scene_id}\n")


def layer_metrics(rows: dict[str, dict], counts: Counter, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass from span rows and hook counters.

    The ``trace.overhead_s``, ``pipeline.write.*`` and
    ``pipeline.scene_fail_ratio`` entries are filled in by the caller.
    """
    def row(name):
        return rows.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def merged(*names):
        return {"calls": sum(row(n)["calls"] for n in names),
                "self_s": sum(row(n)["self_s"] for n in names)}

    coll = merged("collision.is_collision.rollout", "collision.is_collision.baselines")
    cp = row("filtering.classify_pair")
    tl = row("rollout.interaction_timeline")
    m = {
        "sceneio.load_scene.s": row("sceneio.load_scene")["self_s"],
        "sceneio.load_predictions.s": row("sceneio.load_predictions")["self_s"],
        "sceneio.load_predictions.bytes": counts["sceneio.load_predictions.bytes"],
        "filtering.classify_pair.calls": cp["calls"],
        "filtering.classify_pair.s": cp["self_s"],
        "filtering.distance_cells": counts["filtering.distance_cells"],
        "filtering.accept_ratio": counts["filtering.accepted"] / cp["calls"] if cp["calls"] else 0.0,
        "rollout.interaction_timeline.calls": tl["calls"],
        "rollout.interaction_timeline.s": tl["self_s"],
        "rollout.PathRollout.init.calls": row("rollout.PathRollout.init")["calls"],
        "rollout.PathRollout.init.s": row("rollout.PathRollout.init")["self_s"],
        "rollout.roll.calls": row("rollout.roll")["calls"],
        "rollout.roll.s": row("rollout.roll")["self_s"],
        "rollout.roll.substeps": counts["rollout.roll.substeps"],
        "rollout.max_scene_speed.calls": row("rollout.max_scene_speed")["calls"],
        "rollout.timeline_evaluable_ratio":
            counts["rollout.timeline_evaluable"] / tl["calls"] if tl["calls"] else 0.0,
        "collision.is_collision.calls": coll["calls"],
        "collision.is_collision.s": coll["self_s"],
        "collision.collide_ratio": counts["collision.collide"] / coll["calls"] if coll["calls"] else 0.0,
    }
    for tag in ("rollout", "baselines"):
        r = row(f"collision.is_collision.{tag}")
        m[f"collision.is_collision.{tag}.calls"] = r["calls"]
        m[f"collision.is_collision.{tag}.s"] = r["self_s"]
    m.update({
        "homotopy.classify_pair_windows.calls": row("homotopy.classify_pair_windows")["calls"],
        "homotopy.classify_pair_windows.s": row("homotopy.classify_pair_windows")["self_s"],
        "homotopy.gt_mode_sequence.s": row("homotopy.gt_mode_sequence")["self_s"],
        "baselines.oracle_predict.calls": row("baselines.oracle_predict")["calls"],
        "baselines.oracle_predict.s": row("baselines.oracle_predict")["self_s"],
        "baselines.oracle_predict.failed": counts["baselines.oracle_predict.failed"],
        "baselines.cv_predict.s": row("baselines.cv_predict")["self_s"],
        "metrics.frame_flags.calls": row("metrics.frame_flags")["calls"],
        "metrics.displacement_metrics.s": row("metrics.displacement_metrics")["self_s"],
        "metrics.aggregate.s": row("metrics.aggregate")["self_s"],
        "pipeline.evaluate_scene.self_s": row("pipeline.evaluate_scene")["self_s"],
        "pipeline.write.s": row("pipeline.write")["incl_s"],
        "types.trajectory_kinematics.calls": row("types.trajectory_kinematics")["calls"],
        "types.trajectory_kinematics.s": row("types.trajectory_kinematics")["self_s"],
        "types.resample_trajectory.calls": row("types.resample_trajectory")["calls"],
        "types.resample_trajectory.s": row("types.resample_trajectory")["self_s"],
    })
    per_pass = {k: v / passes for k, v in m.items() if not k.endswith("_ratio")}
    per_pass.update({k: v for k, v in m.items() if k.endswith("_ratio")})
    return per_pass
