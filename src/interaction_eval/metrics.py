"""Mode flags, per-pair time metrics, displacement metrics and aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCorpus, EmptyFeasibleSet
from .homotopy import HomotopyClass
from .types import JointPredictionSet, Scene, agent_frame_index


@dataclass(frozen=True)
class FrameModeFlags:
    frame: int
    h_gt: HomotopyClass
    h_ml: HomotopyClass
    h_pred: frozenset
    h_feas: frozenset
    correct: bool
    covered: bool
    collapse: bool


def frame_flags(frame: int, h_gt: HomotopyClass, h_ml: HomotopyClass,
                h_pred: frozenset, h_feas: frozenset) -> FrameModeFlags:
    """Correct / covered / collapse flags for one evaluated frame."""
    if not h_feas:
        raise EmptyFeasibleSet(f"frame {frame}: no feasible class")
    return FrameModeFlags(
        frame=frame, h_gt=h_gt, h_ml=h_ml,
        h_pred=frozenset(h_pred), h_feas=frozenset(h_feas),
        correct=h_ml == h_gt,
        covered=h_gt in h_pred,
        collapse=not h_feas <= frozenset(h_pred),
    )


# dT value of a pair that is correct/covered from the start of the interval
FROM_START = None


@dataclass(frozen=True)
class PairMetrics:
    """Time-based metrics over one pair's evaluation interval.

    ``dt_correct`` / ``dt_covered`` are seconds; None means the pair was
    correct (covered) from the start of the interval; 0.0 means it was still
    wrong at the last two-feasible frame (the "@0s" bucket).
    """

    dt_correct: float | None
    dt_covered: float | None
    consistent: bool
    collapse_rate: float
    n_frames: int
    n_two_feasible: int


def pair_time_metrics(flags: list[FrameModeFlags], dt: float) -> PairMetrics:
    """Fold per-frame flags over [t_h_start, t_h_final] into pair metrics."""
    if not flags:
        raise EmptyCorpus("no frames in evaluation interval")
    two = [f for f in flags if len(f.h_feas) == 2]
    # dT anchors on the last frame before the IHS (last two-feasible frame);
    # later frames may still be present for context but do not move the anchor
    final = two[-1].frame if two else flags[-1].frame

    def time_to(mode_ok) -> float | None:
        bad = [f.frame for f in flags if f.frame <= final and not mode_ok(f)]
        if not bad:
            return FROM_START
        return (final - bad[-1]) * dt

    ml_seq = [f.h_ml for f in flags]
    changes = sum(1 for a, b in zip(ml_seq, ml_seq[1:]) if a != b)
    collapsed = sum(1 for f in two if f.collapse)
    return PairMetrics(
        dt_correct=time_to(lambda f: f.correct),
        dt_covered=time_to(lambda f: f.covered),
        consistent=changes <= 1,
        collapse_rate=collapsed / len(two) if two else 0.0,
        n_frames=len(flags),
        n_two_feasible=len(two),
    )


@dataclass(frozen=True)
class DisplacementMetrics:
    ml_ade: float
    ml_fde: float
    joint_min_ade: float
    joint_min_fde: float


def displacement_metrics(predictions: list[JointPredictionSet],
                         scene: Scene) -> DisplacementMetrics:
    """ML ADE/FDE and joint (scene-level) minADE/minFDE.

    The joint minimum is taken over whole joint samples: the best sample's
    scene-averaged error, never a per-agent mix-and-match.

    Each future is cut to the recorded steps left after its frame. A
    sample's errors are its agents' errors over the steps they keep, in the
    set's agent order; its final errors are their last kept steps.
    """
    ml_err, ml_fin, jmin_ade, jmin_fde = [], [], [], []
    for pred in predictions:
        horizon = pred.xy.shape[2]
        truth = np.zeros(pred.xy.shape[1:])  # recorded positions after the frame
        recorded = np.zeros(len(pred.agent_ids), dtype=int)
        for a, aid in enumerate(pred.agent_ids):
            agent = scene.agent(aid)
            i = agent_frame_index(scene, agent, pred.frame)
            if i is not None:
                future = agent.trajectory.xy[i + 1:i + 1 + horizon]
                truth[a, :len(future)], recorded[a] = future, len(future)
        kept = np.minimum(pred.lengths, recorded)  # (K, A) steps graded
        graded = kept >= 1
        diff = pred.xy - truth
        err = np.hypot(diff[..., 0], diff[..., 1])  # (K, A, H)
        # the kept errors of all samples back to back, and each agent's last one
        steps = err[np.arange(horizon) < kept[..., None]]
        finals = steps[np.cumsum(kept.ravel())[graded.ravel()] - 1]
        per_sample_ade, per_sample_fde = [], []
        at_step = at_final = 0
        for k, (n_steps, n_graded) in enumerate(zip(kept.sum(axis=1).tolist(),
                                                    graded.sum(axis=1).tolist())):
            if not n_steps:
                continue
            e, fin = steps[at_step:at_step + n_steps], finals[at_final:at_final + n_graded]
            at_step, at_final = at_step + n_steps, at_final + n_graded
            # a sum over the count is the mean, bit for bit, without its call overhead
            per_sample_ade.append(float(np.add.reduce(e)) / n_steps)
            per_sample_fde.append(float(np.add.reduce(fin)) / n_graded)
            if k == 0:
                ml_err.append(e)
                ml_fin.append(fin)
        if per_sample_ade:
            jmin_ade.append(min(per_sample_ade))
            jmin_fde.append(min(per_sample_fde))
    if not ml_err:
        raise EmptyCorpus("no overlapping prediction/ground-truth samples")
    return DisplacementMetrics(
        ml_ade=float(np.mean(np.concatenate(ml_err))),
        ml_fde=float(np.mean(np.concatenate(ml_fin))),
        joint_min_ade=float(np.mean(jmin_ade)),
        joint_min_fde=float(np.mean(jmin_fde)),
    )


@dataclass(frozen=True)
class FrameRecord:
    """A frame flag annotated with its pair identity and time-to-IHS."""

    scene_id: str
    agent_a: str
    agent_b: str
    t: float
    dt_collapse: float  # t_h_collapse - t, seconds
    flags: FrameModeFlags


@dataclass(frozen=True)
class PairRecord:
    scene_id: str
    agent_a: str
    agent_b: str
    t_h_start: float
    t_h_final: float
    t_h_collapse: float
    metrics: PairMetrics


@dataclass(frozen=True)
class AggregateReport:
    n_pairs: int
    n_frames: int
    mode_correct_rate: float  # percentages over pooled frames
    mode_covered_rate: float
    mode_collapse_rate: float
    dt_correct_mean: float | None  # seconds, over pairs with 0 < dT (not FromStart)
    dt_covered_mean: float | None
    pct_correct_at_tpred: float  # percentages over pairs
    pct_covered_at_tpred: float
    pct_correct_at_0s: float
    pct_covered_at_0s: float
    consistency_rate: float
    displacement: DisplacementMetrics | None
    curves: list[dict] = field(default_factory=list)  # binned rates vs dt_collapse

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "n_pairs", "n_frames", "mode_correct_rate", "mode_covered_rate",
            "mode_collapse_rate", "dt_correct_mean", "dt_covered_mean",
            "pct_correct_at_tpred", "pct_covered_at_tpred",
            "pct_correct_at_0s", "pct_covered_at_0s", "consistency_rate")}
        if self.displacement is not None:
            d.update(ml_ade=self.displacement.ml_ade, ml_fde=self.displacement.ml_fde,
                     joint_min_ade=self.displacement.joint_min_ade,
                     joint_min_fde=self.displacement.joint_min_fde)
        d["curves"] = self.curves
        return d


def _pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


def aggregate(pairs: list[PairRecord], frames: list[FrameRecord],
              bin_width: float,
              displacement: DisplacementMetrics | None = None) -> AggregateReport:
    """Pool frame-level rates over all pair-frames and pair-level metrics."""
    if not pairs:
        raise EmptyCorpus("no evaluated pairs")
    n_frames = len(frames)
    correct = sum(1 for r in frames if r.flags.correct)
    covered = sum(1 for r in frames if r.flags.covered)
    two = [r for r in frames if len(r.flags.h_feas) == 2]
    collapsed = sum(1 for r in two if r.flags.collapse)

    def mean_dt(get) -> float | None:
        vals = [get(p.metrics) for p in pairs]
        numeric = [v for v in vals if v is not None and v > 0.0]
        return float(np.mean(numeric)) if numeric else None

    def pct_tag(get, predicate) -> float:
        return _pct(sum(1 for p in pairs if predicate(get(p.metrics))), len(pairs))

    # binned rates vs time-to-IHS (histogram-curve plot data)
    curves = []
    if frames:
        bins: dict[int, list[FrameRecord]] = {}
        for r in frames:
            bins.setdefault(int(round(r.dt_collapse / bin_width)), []).append(r)
        for b in sorted(bins):
            rs = bins[b]
            two_b = [r for r in rs if len(r.flags.h_feas) == 2]
            curves.append({
                "dt_collapse": b * bin_width,
                "n": len(rs),
                "correct_rate": _pct(sum(r.flags.correct for r in rs), len(rs)),
                "covered_rate": _pct(sum(r.flags.covered for r in rs), len(rs)),
                "collapse_rate": _pct(sum(r.flags.collapse for r in two_b), len(two_b)),
            })
    return AggregateReport(
        n_pairs=len(pairs),
        n_frames=n_frames,
        mode_correct_rate=_pct(correct, n_frames),
        mode_covered_rate=_pct(covered, n_frames),
        mode_collapse_rate=_pct(collapsed, len(two)),
        dt_correct_mean=mean_dt(lambda m: m.dt_correct),
        dt_covered_mean=mean_dt(lambda m: m.dt_covered),
        pct_correct_at_tpred=pct_tag(lambda m: m.dt_correct, lambda v: v is None),
        pct_covered_at_tpred=pct_tag(lambda m: m.dt_covered, lambda v: v is None),
        pct_correct_at_0s=pct_tag(lambda m: m.dt_correct, lambda v: v == 0.0),
        pct_covered_at_0s=pct_tag(lambda m: m.dt_covered, lambda v: v == 0.0),
        consistency_rate=_pct(sum(1 for p in pairs if p.metrics.consistent), len(pairs)),
        displacement=displacement,
        curves=curves,
    )
