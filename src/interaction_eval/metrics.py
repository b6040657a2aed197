"""Mode flags, per-pair time metrics, displacement metrics and aggregation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyCorpus, EmptyFeasibleSet
from .homotopy import HomotopyClass
from .types import JointPredictionSet, Scene, scene_frame


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


def _row_means(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each row of ``flat``, where row r is the next
    ``counts[r]`` (at least 1) values.

    Each run of consecutive rows of one length is a contiguous (rows x n)
    block, reduced along its rows in one call: the same pairwise sum, bit
    for bit, as a 1-D ``np.add.reduce`` of each row alone. A sum over the
    count is the mean, bit for bit, without ``np.mean``'s call overhead.
    """
    sums = np.empty(len(counts))
    runs = np.flatnonzero(np.diff(counts, prepend=0, append=0)).tolist()
    offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
    for a, b in zip(runs, runs[1:]):
        np.add.reduce(flat[offsets[a]:offsets[b]].reshape(b - a, -1), axis=1, out=sums[a:b])
    return sums / counts


def displacement_metrics(predictions: list[JointPredictionSet],
                         scene: Scene) -> DisplacementMetrics:
    """ML ADE/FDE and joint (scene-level) minADE/minFDE.

    The joint minimum is taken over whole joint samples: the best sample's
    scene-averaged error, never a per-agent mix-and-match.

    Each future is cut to the recorded steps left after its frame. A
    sample's errors are its agents' errors over the steps they keep, in the
    set's agent order; its final errors are their last kept steps.

    All sets are graded in one pass: one zero-padded (sets x K x A x H)
    stack of the futures, the recorded positions gathered from one padded
    table of the named agents' tracks, and the kept steps' errors read out
    back to back in (set, sample, agent, step) order.
    """
    if not predictions:
        raise EmptyCorpus("no prediction sets")
    n_k, n_a, horizon = map(max, zip(*(p.xy.shape[:3] for p in predictions)))
    xy = np.zeros((len(predictions), n_k, n_a, horizon, 2))
    lengths = np.zeros((len(predictions), n_k, n_a), dtype=int)  # 0: nothing graded
    # each set's agents as rows of one table of the agents the sets name
    index: dict[str, int] = {}
    slot = np.zeros((len(predictions), n_a), dtype=int)
    for s, pred in enumerate(predictions):
        k, a, h = pred.xy.shape[:3]
        xy[s, :k, :a, :h] = pred.xy
        lengths[s, :k, :a] = pred.lengths
        slot[s, :a] = [index.setdefault(aid, len(index)) for aid in pred.agent_ids]
    agents = [scene.agent(aid) for aid in index]
    # positions are read as one complex number each, so that the gathers and
    # the boolean read below move whole items
    n = np.array([a.trajectory.n for a in agents], dtype=int)
    width = int(n.max(initial=0))
    table = np.zeros((len(agents), width + horizon, 2))
    for g, agent in enumerate(agents):
        table[g, :n[g]] = agent.trajectory.xy
    table = table.view(np.complex128)[..., 0]
    # each agent's sample at its set's frame (agent_frame_index) and the
    # steps recorded after it; an absent agent's start is clamped into the
    # table, so that its (ungraded) truth never reads past it
    first = np.array([scene_frame(scene, a.trajectory.t[0]) for a in agents], dtype=int)
    i = np.array([p.frame for p in predictions])[:, None] - first[slot]
    n_rec = n[slot]
    recorded = np.where((i >= 0) & (i < n_rec), n_rec - 1 - i, 0)
    start = np.clip(i + 1, 0, width)
    truth = table[slot[..., None], start[..., None] + np.arange(horizon)]  # (sets, A, H)
    kept = np.minimum(lengths, recorded[:, None])  # (sets, K, A) steps graded
    # the kept steps' errors back to back, and each graded agent's last one
    diff = xy.view(np.complex128)[..., 0]
    diff -= truth[:, None]
    diff = diff[np.arange(horizon) < kept[..., None]]
    steps = np.hypot(diff.real, diff.imag)
    graded = kept >= 1
    finals = steps[np.cumsum(kept.ravel())[graded.ravel()] - 1]
    n_steps, n_graded = kept.sum(axis=2), graded.sum(axis=2)
    sample = n_steps > 0  # (sets, K): the samples with a graded step
    if not sample[:, 0].any():
        raise EmptyCorpus("no overlapping prediction/ground-truth samples")
    ade = _row_means(steps, n_steps[sample])
    fde = _row_means(finals, n_graded[sample])
    # ML: the first samples' errors, in set order; joint: each set's best
    # sample, from the first of its rows on
    first_sample = np.broadcast_to(np.arange(n_k) == 0, sample.shape).ravel()
    set_rows = np.flatnonzero(np.diff(np.nonzero(sample)[0], prepend=-1))
    return DisplacementMetrics(
        ml_ade=float(np.mean(steps[np.repeat(first_sample, n_steps.ravel())])),
        ml_fde=float(np.mean(finals[np.repeat(first_sample, n_graded.ravel())])),
        joint_min_ade=float(np.mean(np.minimum.reduceat(ade, set_rows))),
        joint_min_fde=float(np.mean(np.minimum.reduceat(fde, set_rows))),
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
        """Every field by name, with the displacement fields in place of
        ``displacement`` when it is set."""
        d = asdict(self)
        d.update(d.pop("displacement") or {})
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
