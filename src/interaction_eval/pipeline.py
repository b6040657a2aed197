"""End-to-end evaluation: ingestion, filtering, rollouts, metrics, reports."""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import cv_predict, oracle_predict
from .errors import ConfigError, EmptyCorpus, ParseError
from .filtering import CriticalPair, PairFates, PairRejection, filter_scene
from .homotopy import HomotopyClass, homotopy_class, winding_rows
# the benchmark's tracer patches this name in this module
from .homotopy import classify_pair_windows  # noqa: F401
from .metrics import (
    AggregateReport,
    DisplacementMetrics,
    FROM_START,
    FrameRecord,
    PairRecord,
    aggregate,
    displacement_metrics,
    frame_flags,
    pair_time_metrics,
)
from .rollout import InteractionTimeline, interaction_timelines
# the benchmark's tracer patches this name in this module
from .rollout import interaction_timeline  # noqa: F401
from .sceneio import (
    MALFORMED,
    frame_number,
    load_predictions,
    load_scene,
    number,
    read_json,
    unique_keys,
)
from .types import EvalConfig, JointPredictionSet, Scene, scene_frame

BASELINE_MODELS = ("cv", "oracle")
DEFAULT_ORACLE_K = 5
HEATMAP_TIME_BIN = 0.5  # seconds of dt_ps per heatmap.csv cell
HEATMAP_DIST_BIN = 1.0  # metres of closest approach per heatmap.csv cell


@dataclass
class PairEvaluation:
    pair: CriticalPair
    timeline: InteractionTimeline | None
    skipped: str | None  # reason when the pair is excluded from time metrics
    frame_records: list[FrameRecord] = field(default_factory=list)
    record: PairRecord | None = None


@dataclass
class SceneEvaluation:
    scene: Scene
    pairs: list[PairEvaluation]
    fates: PairFates
    predictions: dict[int, JointPredictionSet]

    @cached_property
    def rejections(self) -> list[PairRejection]:
        """The rejected pairs' records, rendered from ``fates`` when first read."""
        return self.fates.rejections()


def _prediction_classes(pset: JointPredictionSet, pair: CriticalPair, theta_hat: float):
    """(h_ml, h_pred) of a joint prediction set for one pair; None if unusable.
    Every sample with two or more positions of both agents is wound in one call."""
    if pair.agent_a not in pset.agent_ids or pair.agent_b not in pset.agent_ids:
        return None
    ia, ib = pset.agent_ids.index(pair.agent_a), pset.agent_ids.index(pair.agent_b)
    h = np.minimum(pset.lengths[:, ia], pset.lengths[:, ib])
    if h[0] < 2:
        return None
    usable = h >= 2
    windings = winding_rows(pset.xy[usable, ia] - pset.xy[usable, ib], h[usable])
    classes = [homotopy_class(d, theta_hat) for d in windings.tolist()]
    return classes[0], frozenset(classes)


def _graded_pair(scene_id: str, agent_a: str, agent_b: str, frames: list[tuple],
                 t_h_start: float, t_h_final: float, t_h_collapse: float,
                 dt: float) -> tuple[list[FrameRecord], PairRecord]:
    """Frame records and the pair record of one pair's graded frames, given
    as (frame, t, h_gt, h_ml, h_pred, h_feas) in frame order."""
    frame_records = [
        FrameRecord(scene_id=scene_id, agent_a=agent_a, agent_b=agent_b, t=t,
                    dt_collapse=t_h_collapse - t,
                    flags=frame_flags(frame, h_gt, h_ml, h_pred, h_feas))
        for frame, t, h_gt, h_ml, h_pred, h_feas in frames]
    record = PairRecord(scene_id=scene_id, agent_a=agent_a, agent_b=agent_b,
                        t_h_start=t_h_start, t_h_final=t_h_final, t_h_collapse=t_h_collapse,
                        metrics=pair_time_metrics([fr.flags for fr in frame_records], dt))
    return frame_records, record


def analyse_scene(scene: Scene, cfg: EvalConfig) -> SceneEvaluation:
    """Filter pairs and locate their IHS: everything the grades compare against.

    The result holds one ungraded PairEvaluation per accepted pair, in filter
    order, with its timeline or the reason it has none, and no predictions.
    It depends only on the scene and ``cfg``, so one analysis can be graded
    against any number of prediction sets (``grade_scene``).
    """
    pairs, fates = filter_scene(scene, cfg)
    evals = [PairEvaluation(pair, tl, skipped=None) if isinstance(tl, InteractionTimeline)
             else PairEvaluation(pair, None, skipped=type(tl).__name__)
             for pair, tl in zip(pairs, interaction_timelines(scene, pairs, cfg))]
    return SceneEvaluation(scene=scene, pairs=evals, fates=fates, predictions={})


def grade_scene(analysis: SceneEvaluation, predictions: dict[int, JointPredictionSet],
                cfg: EvalConfig) -> SceneEvaluation:
    """Grade ``predictions`` (keyed by scene frame) against an analysis,
    frame by frame over each timed pair's evaluation interval.

    Returns a new SceneEvaluation; ``analysis`` is not changed. A timed pair
    without a gradable frame is skipped as ``NoPredictionFrames``.
    """
    scene = analysis.scene
    pairs: list[PairEvaluation] = []
    for ev in analysis.pairs:
        pair, tl = ev.pair, ev.timeline
        if tl is None:
            pairs.append(PairEvaluation(pair, None, ev.skipped))
            continue
        off = scene_frame(scene, tl.t[0])  # the scene frame of the timeline's first sample
        graded = []
        for i in range(tl.start_idx, tl.final_idx + 1):
            pset = predictions.get(off + i)
            if pset is None or not tl.h_feas[i]:
                continue  # an empty feasible set (both rollouts collide) shows in the timeline
            got = _prediction_classes(pset, pair, cfg.theta_hat)
            if got is not None:
                graded.append((off + i, float(tl.t[i]), tl.h_gt[i], *got, tl.h_feas[i]))
        if not graded:
            pairs.append(PairEvaluation(pair, tl, skipped="NoPredictionFrames"))
        else:
            frame_records, record = _graded_pair(
                scene.scene_id, pair.agent_a, pair.agent_b, graded,
                tl.t_h_start, tl.t_h_final, tl.t_h_collapse, scene.dt)
            pairs.append(PairEvaluation(pair, tl, None, frame_records, record))
    return SceneEvaluation(scene=scene, pairs=pairs, fates=analysis.fates,
                           predictions=predictions)


def evaluate_scene(scene: Scene, cfg: EvalConfig,
                   predictions: dict[int, JointPredictionSet] | None = None,
                   baseline: str | None = None,
                   oracle_k: int = DEFAULT_ORACLE_K) -> SceneEvaluation:
    """Filter pairs, locate their IHS, and grade predictions frame by frame:
    ``analyse_scene``, then ``grade_scene``.

    The result holds one PairEvaluation per accepted pair, in filter order,
    with its timeline or the reason it has none. The predictions graded are
    ``predictions`` or a ``baseline`` model's over the frames the analysis
    needs, not both; conflicting arguments are refused before any filtering.
    """
    if predictions is not None and baseline is not None:
        raise ConfigError(f"predictions and the {baseline!r} baseline both given; grade one")
    if baseline is not None and baseline not in BASELINE_MODELS:
        raise ConfigError(f"unknown baseline model {baseline!r}")
    if baseline == "oracle" and oracle_k < 1:
        raise ConfigError(f"oracle k must be >= 1, got {oracle_k}")
    analysis = analyse_scene(scene, cfg)
    if baseline is not None:
        needed_frames: set[int] = set()
        for tl in (ev.timeline for ev in analysis.pairs if ev.timeline is not None):
            off = scene_frame(scene, tl.t[0])
            needed_frames.update(range(off + tl.start_idx, off + tl.final_idx + 1))
        # a baseline's sets, in frame order, from one call for them all
        if baseline == "cv":
            predictions = cv_predict(scene, needed_frames, cfg)
        elif needed_frames:
            predictions = oracle_predict(scene, needed_frames,
                                         [ev.pair for ev in analysis.pairs], oracle_k, cfg)
    return grade_scene(analysis, predictions or {}, cfg)


# ---------------------------------------------------------------------------
# corpus-level pipeline and file emission


def _load_scene_dir(scene_dir: str | Path) -> list[Scene]:
    paths = sorted(Path(scene_dir).glob("*.json"))
    if not paths:
        raise EmptyCorpus(f"no scene files in {scene_dir}")
    return [load_scene(p) for p in paths]


def _evaluate_corpus(scene_dir: str | Path, cfg: EvalConfig,
                     pred_source: str | Path | None = None,
                     oracle_k: int = DEFAULT_ORACLE_K,
                     substitute_static: bool = False) -> tuple[list[SceneEvaluation], float]:
    """Evaluate every scene of a directory; returns the results and the time step.

    ``pred_source`` is a baseline name ("cv" / "oracle"), a directory of
    prediction files named <scene_id>.json, or None for the scenes' analyses
    alone (``analyse_scene``), with nothing graded.
    The time step bins the curves and ``ihs_hist.csv``, so a corpus whose
    scenes differ in time step is a ParseError.
    """
    scenes = _load_scene_dir(scene_dir)
    steps = sorted({scene.dt for scene in scenes})
    if len(steps) > 1:
        raise ParseError(scene_dir, "scenes have mixed time steps "
                                    + ", ".join(f"{dt:g} s" for dt in steps))
    if pred_source is None:
        return [analyse_scene(scene, cfg) for scene in scenes], steps[0]
    # a baseline is named by a string; a Path always names a directory
    baseline = (pred_source if isinstance(pred_source, str) and pred_source in BASELINE_MODELS
                else None)
    if baseline is not None and Path(pred_source).is_dir():
        raise ConfigError(f"--pred {baseline} names the {baseline} baseline, and a directory "
                          f"{baseline}/ exists; write ./{baseline} to read the directory")
    results = []
    for scene in scenes:
        preds = None
        if baseline is None:
            pred_path = Path(pred_source) / f"{scene.scene_id}.json"
            if not pred_path.exists():
                raise ParseError(pred_path, "missing prediction file for scene")
            preds = load_predictions(pred_path, scene, substitute_static)
        results.append(evaluate_scene(scene, cfg, predictions=preds, baseline=baseline,
                                      oracle_k=oracle_k))
    return results, steps[0]


def _histogram_inputs(results: list[SceneEvaluation]):
    """Every accepted pair, and every pair with a timeline, keyed by scene id:
    the two lists that ``emit_histograms`` takes."""
    accepted = [(r.scene.scene_id, ev.pair) for r in results for ev in r.pairs]
    timelines = [(r.scene.scene_id, ev.pair, ev.timeline)
                 for r in results for ev in r.pairs if ev.timeline is not None]
    return accepted, timelines


def _cell(v):
    """A CSV cell: a float (``np.float64`` too) to 6 significant digits, a
    bool as 0 or 1, and any other value as ``csv`` writes it."""
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    return f"{v:.6g}" if isinstance(v, float) else v


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True, allow_nan=False),
                    encoding="utf-8")


def _classes(classes) -> str:
    """A set of homotopy classes as one cell: the sorted names, space-separated."""
    return " ".join(sorted(str(c) for c in classes))


def write_pair_csv(path: Path, records: list[PairRecord]) -> None:
    rows = [[r.scene_id, r.agent_a, r.agent_b, r.t_h_start, r.t_h_final, r.t_h_collapse,
             *("FromStart" if dt is FROM_START else dt
               for dt in (r.metrics.dt_correct, r.metrics.dt_covered)),
             r.metrics.consistent, r.metrics.collapse_rate,
             r.metrics.n_frames, r.metrics.n_two_feasible]
            for r in records]
    _write_csv(path, ["scene_id", "agent_a", "agent_b", "t_h_start", "t_h_final",
                      "t_h_collapse", "dt_correct", "dt_covered", "consistent",
                      "collapse_rate", "n_frames", "n_two_feasible"], rows)


def write_frames_csv(path: Path, records: list[FrameRecord]) -> None:
    rows = [[r.scene_id, r.agent_a, r.agent_b, r.flags.frame, r.t, r.dt_collapse,
             r.flags.h_gt, r.flags.h_ml, _classes(r.flags.h_pred), _classes(r.flags.h_feas),
             r.flags.correct, r.flags.covered, r.flags.collapse]
            for r in records]
    _write_csv(path, ["scene_id", "agent_a", "agent_b", "frame", "t", "dt_collapse",
                      "gt_class", "ml_class", "pred_classes", "feasible_classes",
                      "correct", "covered", "collapse"], rows)


def write_curves_csv(path: Path, report: AggregateReport) -> None:
    header = ["dt_collapse", "n", "correct_rate", "covered_rate", "collapse_rate"]
    _write_csv(path, header, [[c[k] for k in header] for c in report.curves])


def write_filter_csv(path: Path, rows_in: list[tuple[str, CriticalPair]]) -> None:
    """CSV of accepted pairs: sharing times, time gap and closest approach."""
    rows = [[scene_id, p.agent_a, p.agent_b, p.t_ps_a, p.t_ps_b, p.dt_ps, p.min_distance]
            for scene_id, p in rows_in]
    _write_csv(path, ["scene_id", "agent_a", "agent_b", "t_ps_a", "t_ps_b",
                      "dt_ps", "min_distance"], rows)


def write_rollout_csv(path: Path, results: list[SceneEvaluation]) -> None:
    """CSV of each accepted pair's per-frame feasible classes and a summary row
    with its IHS bracketing, or with its skip reason if it has no timeline."""
    rows = []
    for r in results:
        for ev in r.pairs:
            key = [r.scene.scene_id, ev.pair.agent_a, ev.pair.agent_b]
            tl = ev.timeline
            if tl is None:
                rows.append(key + ["summary", "", "", "", "", ev.skipped, "", ""])
                continue
            rows.extend(key + ["frame", tl.t[i], _classes(feas), tl.h_gt[i],
                               i == tl.collapse_idx, "", "", ""]
                        for i, feas in enumerate(tl.h_feas))
            rows.append(key + ["summary", "", "", "", "", tl.t_h_collapse,
                               tl.t_h_final, tl.t_h_start])
    _write_csv(path, ["scene_id", "agent_a", "agent_b", "row", "frame_t",
                      "feasible_classes", "gt_class", "is_ihs",
                      "t_h_collapse", "t_h_final", "t_h_start"], rows)


def _write_report_files(out: Path, pair_records: list[PairRecord],
                        frame_records: list[FrameRecord], report: AggregateReport) -> None:
    """pairs.csv, frames.csv, curves.csv and report.json of a graded corpus."""
    write_pair_csv(out / "pairs.csv", pair_records)
    write_frames_csv(out / "frames.csv", frame_records)
    write_curves_csv(out / "curves.csv", report)
    _write_json(out / "report.json", report.to_dict())


def emit_histograms(pairs: list[tuple[str, CriticalPair]],
                    timelines: list[tuple[str, CriticalPair, InteractionTimeline]],
                    out_dir: str | Path, dt: float) -> None:
    """Plot-data CSVs: closeness heatmap and time-to-IHS histogram."""
    out = Path(out_dir)
    cells: dict[tuple[int, int], int] = {}
    for _, p in pairs:
        key = (int(p.dt_ps // HEATMAP_TIME_BIN),
               int(p.min_distance // HEATMAP_DIST_BIN))
        cells[key] = cells.get(key, 0) + 1
    rows = [[kt * HEATMAP_TIME_BIN, kd * HEATMAP_DIST_BIN, n]
            for (kt, kd), n in sorted(cells.items())]
    _write_csv(out / "heatmap.csv", ["dt_ps_bin", "min_distance_bin", "count"], rows)

    hist: dict[int, int] = {}
    for _, _, tl in timelines:
        for i in range(tl.start_idx, tl.final_idx + 1):
            b = int(round((tl.t_h_collapse - float(tl.t[i])) / dt))
            hist[b] = hist.get(b, 0) + 1
    rows = [[b * dt, n] for b, n in sorted(hist.items())]
    _write_csv(out / "ihs_hist.csv", ["dt_collapse", "count"], rows)


def run_pipeline(scene_dir: str | Path, pred_source: str | Path, out_dir: str | Path,
                 cfg: EvalConfig, oracle_k: int = DEFAULT_ORACLE_K,
                 substitute_static: bool = False) -> AggregateReport:
    """Evaluate a scene directory against a prediction directory or baseline.

    ``pred_source`` is either a baseline name ("cv" / "oracle") or a
    directory of prediction files named <scene_id>.json. Writes manifest,
    pairs.csv, frames.csv, curves.csv, report.json and the histogram CSVs.
    """
    t_start = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results, dt = _evaluate_corpus(scene_dir, cfg, pred_source, oracle_k,
                                   substitute_static)

    pair_records = [ev.record for r in results for ev in r.pairs if ev.record]
    frame_records = [fr for r in results for ev in r.pairs for fr in ev.frame_records]
    if not pair_records:
        raise EmptyCorpus("no evaluable interaction pairs in corpus")
    per_scene = []
    for r in results:
        if not r.predictions:
            continue
        try:
            per_scene.append(displacement_metrics(
                sorted(r.predictions.values(), key=lambda p: p.frame), r.scene))
        except EmptyCorpus:
            continue  # no recorded ground truth ahead of any prediction frame
    disp = DisplacementMetrics(**{
        f.name: float(np.mean([getattr(d, f.name) for d in per_scene]))
        for f in fields(DisplacementMetrics)}) if per_scene else None
    report = aggregate(pair_records, frame_records, bin_width=dt, displacement=disp)

    _write_report_files(out, pair_records, frame_records, report)
    accepted, tls = _histogram_inputs(results)
    emit_histograms(accepted, tls, out, dt)
    write_filter_csv(out / "filter.csv", accepted)

    manifest = {
        "tool": "interaction-eval",
        "version": __version__,
        "config": asdict(cfg),
        "inputs": {"scene_dir": str(scene_dir), "pred_source": str(pred_source),
                   "oracle_k": oracle_k, "substitute_static": substitute_static},
        "scenes": {r.scene.scene_id: {
            "n_agents": len(r.scene.agents),
            "n_accepted_pairs": len(r.pairs),
            "n_rejected_pairs": r.fates.n_rejected,
            "skipped": dict(Counter(ev.skipped for ev in r.pairs if ev.skipped)),
        } for r in results},
        "timing_s": round(time.time() - t_start, 3),
    }
    _write_json(out / "manifest.json", manifest)
    return report


# ---------------------------------------------------------------------------
# fixture ingestion: pre-computed per-frame mode tables


def load_mode_fixture(path: str | Path) -> tuple[float, list[PairRecord], list[FrameRecord]]:
    """Read a fixture of per-frame mode tables and fold it into records.

    Fixture shape::

        { "dt": 0.5,
          "pairs": [ { "scene_id": str, "agent_a": str, "agent_b": str,
                       "frames": [ { "frame": int, "gt": "CW", "ml": "CW",
                                     "pred": ["CW"], "feas": ["CCW", "CW"] } ] } ] }

    Listed frames are the evaluation interval; the IHS sits one frame after
    the last listed frame.
    """
    path = Path(path)
    return read_json(path, lambda text, data: _mode_records(data, path),
                     object_pairs_hook=unique_keys)


def _mode_records(data, path: Path) -> tuple[float, list[PairRecord], list[FrameRecord]]:
    try:
        dt = number(data["dt"], "dt", path)
        if not 0.0 < dt < float("inf"):
            raise ParseError(path, f"dt must be finite and > 0, got {data['dt']!r}")
        pair_records, frame_records = [], []
        seen = set()
        for p in data["pairs"]:
            key = (str(p["scene_id"]), str(p["agent_a"]), str(p["agent_b"]))
            where = f"scene {p['scene_id']}, pair ({p['agent_a']}, {p['agent_b']})"
            unordered = (key[0], frozenset(key[1:]))
            if unordered in seen:
                raise ParseError(path, f"{where}: pair listed more than once")
            seen.add(unordered)
            if not p["frames"]:
                raise ParseError(path, f"{where}: no frames listed")
            graded = []
            for f in sorted(p["frames"], key=lambda f: frame_number(f["frame"], path)):
                if graded and f["frame"] == graded[-1][0]:
                    raise ParseError(path, f"{where}, frame {f['frame']}: listed more than once")
                if not f["feas"]:
                    raise ParseError(path, f"{where}, frame {f['frame']}: empty feasible set")
                graded.append((f["frame"], f["frame"] * dt, HomotopyClass(f["gt"]),
                               HomotopyClass(f["ml"]),
                               frozenset(HomotopyClass(c) for c in f["pred"]),
                               frozenset(HomotopyClass(c) for c in f["feas"])))
            final = graded[-1][0]
            frames, record = _graded_pair(*key, graded, graded[0][1], final * dt,
                                          (final + 1) * dt, dt)
            frame_records.extend(frames)
            pair_records.append(record)
    except MALFORMED as e:
        raise ParseError(path, f"malformed mode fixture: {e!r}")
    return dt, pair_records, frame_records


def run_fixture(path: str | Path, out_dir: str | Path) -> AggregateReport:
    """Metrics-only evaluation from a pre-computed mode table fixture."""
    dt, pair_records, frame_records = load_mode_fixture(path)
    report = aggregate(pair_records, frame_records, bin_width=dt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_report_files(out, pair_records, frame_records, report)
    return report
