import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    HomotopyClass,
    JointPredictionSet,
    LengthMismatch,
    VehicleDims,
    classify_pair_windows,
    gt_mode_sequence,
    homotopy_class,
    winding_rows,
)
from interaction_eval.collision import collisions
from interaction_eval.filtering import CriticalPair
from interaction_eval.homotopy import _wrap_angle
from interaction_eval.pipeline import _prediction_classes

from conftest import circle_traj, straight_traj, winding_angle
from frozen_padded import frozen_winding_rows


def random_walk_pair(rng, n):
    a = np.cumsum(rng.normal(0.0, 1.0, (n, 2)), axis=0)
    b = 10.0 + np.cumsum(rng.normal(0.0, 1.0, (n, 2)), axis=0)
    return a, b


def two_sample_windings(xy_a, xy_b):
    """The winding of each two-sample window [i, i + 1]."""
    return [winding_angle(xy_a[i:i + 2], xy_b[i:i + 2]) for i in range(len(xy_a) - 1)]


class TestWindingAngle:
    def test_full_ccw_loop(self):
        """A orbits B once counter-clockwise: total winding is +2*pi."""
        n = 73
        ta = circle_traj(5.0, 2.0 * np.pi / ((n - 1) * 0.5), n).xy
        tb = straight_traj((0, 0), (0, 0), n).xy
        assert winding_angle(ta, tb) == pytest.approx(2.0 * np.pi, abs=1e-9)

    def test_full_cw_loop(self):
        n = 73
        ta = circle_traj(5.0, -2.0 * np.pi / ((n - 1) * 0.5), n).xy
        tb = straight_traj((0, 0), (0, 0), n).xy
        assert winding_angle(ta, tb) == pytest.approx(-2.0 * np.pi, abs=1e-9)

    def test_per_step_sums_to_total(self):
        """With no coincident frame, each step is the winding of its
        two-sample window, in (-pi, pi], and the steps add up to the total."""
        rng = np.random.default_rng(3)
        ta, tb = random_walk_pair(rng, 40)
        steps = two_sample_windings(ta, tb)
        assert winding_angle(ta, tb) == pytest.approx(sum(steps), abs=1e-12)
        assert all(-np.pi < w <= np.pi for w in steps)

    def test_concatenation_identity(self):
        rng = np.random.default_rng(4)
        ta, tb = random_walk_pair(rng, 50)
        whole = winding_angle(ta, tb)
        first = winding_angle(ta[0:25], tb[0:25])
        second = winding_angle(ta[24:50], tb[24:50])
        assert whole == pytest.approx(first + second, abs=1e-12)

    def test_mirror_flip_negates(self):
        """Reflecting both paths about the x-axis reverses the winding sign."""
        rng = np.random.default_rng(5)
        ta, tb = random_walk_pair(rng, 50)
        flip = np.array([1.0, -1.0])
        assert winding_angle(ta * flip, tb * flip) == pytest.approx(
            -winding_angle(ta, tb), abs=1e-12
        )

    def test_swap_invariance(self):
        """Swapping the two agents negates the relative vector, which leaves
        the rotation sense of the bearing unchanged."""
        rng = np.random.default_rng(6)
        ta, tb = random_walk_pair(rng, 50)
        assert winding_angle(tb, ta) == pytest.approx(
            winding_angle(ta, tb), abs=1e-12
        )

    def test_coincident_frames_skipped(self):
        """A coincident frame adds no increment, on the way into it or out of
        it, and the bearing before it carries forward: the winding is that of
        the pair with the frame left out."""
        xy_a = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
        xy_b = np.array([[0, -1], [1, 0], [2, -1], [3, -1]], dtype=float)
        total = winding_angle(xy_a, xy_b)
        assert np.isfinite(total)
        assert two_sample_windings(xy_a, xy_b)[:2] == [0.0, 0.0]
        assert total == winding_angle(xy_a[[0, 2, 3]], xy_b[[0, 2, 3]])
        # the bearing turns by pi/4 across the coincident frame
        xy_b = np.array([[0, -1], [1, 0], [3, -1], [4, -1]], dtype=float)
        assert two_sample_windings(xy_a, xy_b)[:2] == [0.0, 0.0]
        assert winding_angle(xy_a[:3], xy_b[:3]) == pytest.approx(np.pi / 4, abs=1e-15)
        assert winding_angle(xy_a, xy_b) == winding_angle(xy_a[[0, 2, 3]], xy_b[[0, 2, 3]])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_step_magnitude_bounded(self, seed):
        rng = np.random.default_rng(seed)
        ta, tb = random_walk_pair(rng, 20)
        assert all(-np.pi < w <= np.pi for w in two_sample_windings(ta, tb))



def ref_winding(xy_a, xy_b):
    """Frozen copy of the scalar carry-forward loop that ``winding_angle``
    replaced with array code; the two must agree bit for bit."""
    rel = xy_a - xy_b
    norm = np.hypot(rel[:, 0], rel[:, 1])
    bearings = np.arctan2(rel[:, 1], rel[:, 0])
    defined = norm >= 1e-9
    if defined.all():
        steps = _wrap_angle(np.diff(bearings))
    else:
        steps = np.zeros(len(rel) - 1)
        prev = bearings[0] if defined[0] else None
        for i in range(1, len(rel)):
            if not defined[i]:
                continue  # bearing carries forward, zero increment
            if prev is not None:
                steps[i - 1] = _wrap_angle(np.asarray(bearings[i] - prev))
            prev = bearings[i]
    return float(np.sum(steps)), steps


@pytest.mark.parametrize("check", [
    lambda a, b: winding_angle(a, b),
    lambda a, b: classify_pair_windows(a, b),
    lambda a, b: gt_mode_sequence(a, b, horizon_frames=4),
    lambda a, b: collisions(a, b, np.array([len(a)]), VehicleDims(1.8, 4.5).size,
                            VehicleDims(1.8, 4.5).size),
], ids=["winding_angle", "classify_pair_windows", "gt_mode_sequence", "collisions"])
def test_length_mismatch(check):
    """Position tracks of different lengths are not time-aligned: each check
    that pairs them sample by sample refuses them."""
    ta, tb = random_walk_pair(np.random.default_rng(7), 12)
    with pytest.raises(LengthMismatch, match="trajectory lengths differ"):
        check(ta, tb[:11])


@pytest.mark.parametrize("lengths, samples", [([0, 5], 5), ([3, 6], 5), ([-1, 5], 4),
                                               ([1, 3], 5)],
                         ids=["empty_row", "past_the_width", "negative", "short_of_the_stack"])
def test_winding_rows_refuses_lengths_the_stack_cannot_hold(lengths, samples):
    """A row of no samples has no winding, and lengths that do not sum to
    the ragged stack's samples do not say where its rows lie: both are
    refused, and so is a negative length whose lengths sum right."""
    rel = np.random.default_rng(3).normal(size=(samples, 2))
    with pytest.raises(LengthMismatch, match="row lengths"):
        winding_rows(rel, np.array(lengths))
    assert winding_rows(rel, np.array([1, samples - 1])).shape == (2,)


def rel_row(rng, n, p_coincident, coincident_start=False):
    """The (n, 2) relative positions of a random-walk pair whose agents
    coincide on a share ``p_coincident`` of its frames, and on its first
    few where ``coincident_start``."""
    ta, tb = random_walk_pair(rng, n)
    mask = rng.random(n) < p_coincident
    if coincident_start:
        mask |= np.arange(n) < rng.integers(1, n + 1)
    return ta - np.where(mask[:, None], ta, tb)


def ragged(rows):
    """Rows of (n, 2) samples, back to back, and their lengths."""
    lengths = np.array([len(row) for row in rows], dtype=int)
    return (np.concatenate(rows) if rows else np.zeros((0, 2))), lengths


class TestWindingReference:
    @pytest.mark.parametrize("coincident", ["none", "some", "first", "all"])
    def test_matches_scalar_loop(self, coincident):
        """Bit-equal per-step increments and totals on seeded pairs whose
        agents coincide on no, some, the first few, or all frames."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            ta, tb = random_walk_pair(rng, n)
            mask = {"none": np.zeros(n, dtype=bool),
                    "some": rng.random(n) < 0.3,
                    "first": np.arange(n) < rng.integers(1, n),
                    "all": np.ones(n, dtype=bool)}[coincident]
            tb = np.where(mask[:, None], ta, tb)
            assert winding_angle(ta, tb) == ref_winding(ta, tb)[0], seed

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 12),
           st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_scalar_loop(self, seed, n_rows, p_coincident):
        """Every row of a ``winding_rows`` stack equals the frozen loop's
        total on that row alone, bit for bit: mixed lengths (rows of 1 and 2
        samples among them) and coincident frames."""
        rng = np.random.default_rng(seed)
        lengths = np.where(rng.random(n_rows) < 0.3, rng.integers(1, 3, n_rows),
                           rng.integers(1, 100, n_rows))
        pairs = []
        for n in lengths:
            ta, tb = random_walk_pair(rng, n)
            pairs.append((ta, np.where((rng.random(n) < p_coincident)[:, None], ta, tb)))
        got = winding_rows(*ragged([ta - tb for ta, tb in pairs]))
        assert got.shape == (n_rows,)
        for b, (ta, tb) in enumerate(pairs):
            assert got[b] == ref_winding(ta, tb)[0], (b, lengths[b])

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 12),
           st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_frozen_padded_kernel(self, seed, n_rows, p_coincident, zero_padding):
        """The ragged ``winding_rows`` gives every row the bits of the
        padded kernel it replaced (``frozen_padded``), signed zeros too:
        mixed lengths (rows of 1 and 2 samples among them), coincident
        frames, rows that start coincident, and padding of zeros or of
        arbitrary finite values."""
        rng = np.random.default_rng(seed)
        lengths = np.where(rng.random(n_rows) < 0.3, rng.integers(1, 3, n_rows),
                           rng.integers(1, 100, n_rows))
        rows = [rel_row(rng, n, p_coincident, rng.random() < 0.3) for n in lengths]
        width = max(lengths.tolist(), default=1)
        padded = (np.zeros((n_rows, width, 2)) if zero_padding
                  else rng.normal(0.0, 50.0, (n_rows, width, 2)))
        for b, row in enumerate(rows):
            padded[b, :len(row)] = row
        got = winding_rows(*ragged(rows))
        want = frozen_winding_rows(padded, lengths)
        assert got.shape == want.shape == (n_rows,)
        assert got.tobytes() == want.tobytes()

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_rows_are_isolated(self, seed, n_rows, most_fillers):
        """Each row winds the same bits whatever rows stand beside it. Up to
        ``most_fillers`` filler rows (ending on a defined bearing, ending
        with the agents coincident, coincident throughout, or of one sample)
        go before, between and after the drawn rows, and every drawn row
        that starts with the agents coincident comes right after a filler
        that ends on a defined bearing, which a carry that does not restart
        at each row would read."""
        rng = np.random.default_rng(seed)

        def defined_end(n):
            row = rel_row(rng, n, 0.3)
            row[-1] = rng.normal(0.0, 10.0, 2)
            return row

        def filler():
            n = int(rng.integers(1, 8))
            kind = rng.integers(4)
            if kind == 0:
                return defined_end(n)
            if kind == 1:  # ends coincident
                return np.concatenate((rel_row(rng, n, 0.3), np.zeros((1, 2))))
            if kind == 2:  # coincident throughout
                return np.zeros((n, 2))
            return rng.normal(size=(1, 2))

        rows = [rel_row(rng, int(rng.integers(1, 30)), 0.2, rng.random() < 0.5)
                for _ in range(n_rows)]
        stack, at = [], []
        for row in rows:
            stack += [filler() for _ in range(int(rng.integers(0, most_fillers + 1)))]
            if not np.any(row[0]):
                stack.append(defined_end(int(rng.integers(1, 8))))
            at.append(len(stack))
            stack.append(row)
        stack += [filler() for _ in range(int(rng.integers(0, most_fillers + 1)))]
        got = winding_rows(*ragged(stack))
        for i, row in zip(at, rows):
            assert got[i].tobytes() == winding_rows(*ragged([row])).tobytes(), i

    def test_carry_restarts_at_each_row(self):
        """A row whose agents coincide at its first frame has no bearing to
        carry until its own first defined one: the row before it, ending on
        a bearing of pi / 2, leaves its winding pi / 2, where a carry from
        it would read 0."""
        filler = np.array([[1.0, 0.0], [0.0, 1.0]])
        row = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert winding_rows(*ragged([row]))[0] == np.pi / 2
        assert winding_rows(*ragged([filler, row])).tolist() == [np.pi / 2, np.pi / 2]


def ref_gt_mode_sequence(xy_a, xy_b, horizon_frames, theta_hat):
    """Frozen per-frame loop that ``gt_mode_sequence`` replaced with one
    ``winding_rows`` call."""
    n = len(xy_a)
    out = []
    for i in range(n):
        stop = min(n, i + horizon_frames + 1)
        if stop - i < 2:
            out.append(homotopy_class(0.0, theta_hat))
            continue
        out.append(homotopy_class(ref_winding(xy_a[i:stop], xy_b[i:stop])[0], theta_hat))
    return out


def ref_prediction_classes(pset, pair, theta_hat):
    """Frozen per-sample loop that ``pipeline._prediction_classes`` replaced
    with one ``winding_rows`` call."""
    if pair.agent_a not in pset.agent_ids or pair.agent_b not in pset.agent_ids:
        return None
    ia, ib = pset.agent_ids.index(pair.agent_a), pset.agent_ids.index(pair.agent_b)
    h_ml = None
    classes = []
    for k, h in enumerate(np.minimum(pset.lengths[:, ia], pset.lengths[:, ib]).tolist()):
        if h < 2:
            continue
        cls = homotopy_class(ref_winding(pset.xy[k, ia, :h], pset.xy[k, ib, :h])[0], theta_hat)
        classes.append(cls)
        if k == 0:
            h_ml = cls
    if h_ml is None:
        return None
    return h_ml, frozenset(classes)


class TestBatchedCallers:
    @pytest.mark.parametrize("seed", range(20))
    def test_gt_mode_sequence_matches_frame_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        ta, tb = random_walk_pair(rng, n)
        tb = np.where((rng.random(n) < 0.2)[:, None], ta, tb)
        for horizon in (1, 2, 12, n, n + 5):
            for theta_hat in (0.0, 0.3):
                assert (gt_mode_sequence(ta, tb, horizon, theta_hat)
                        == ref_gt_mode_sequence(ta, tb, horizon, theta_hat)), (horizon, theta_hat)

    @pytest.mark.parametrize("seed", range(20))
    def test_prediction_classes_match_sample_loop(self, seed):
        """Samples of mixed horizons, some under two positions (sample 0 too)."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        samples = []
        for _ in range(k):
            h_a, h_b = rng.integers(0, 14, size=2)
            ta, tb = random_walk_pair(rng, 14)
            tb = np.where((rng.random(14) < 0.1)[:, None], ta, tb)
            samples.append((1.0 / k, {"a": ta[:h_a], "b": tb[:h_b], "c": ta}))
        pset = JointPredictionSet.from_samples(3, samples)
        for pair in (CriticalPair("a", "b", 0.0, 0.0, 0.0, 0.0),
                     CriticalPair("b", "a", 0.0, 0.0, 0.0, 0.0),
                     CriticalPair("a", "z", 0.0, 0.0, 0.0, 0.0)):
            for theta_hat in (0.0, 0.3):
                assert (_prediction_classes(pset, pair, theta_hat)
                        == ref_prediction_classes(pset, pair, theta_hat))


class TestClassification:
    def test_zero_threshold_empties_static(self):
        assert homotopy_class(0.3, 0.0) is HomotopyClass.CCW
        assert homotopy_class(-0.3, 0.0) is HomotopyClass.CW

    def test_zero_winding_is_ccw(self):
        assert homotopy_class(0.0, 0.0) is HomotopyClass.CCW

    def test_positive_threshold_creates_static(self):
        assert homotopy_class(0.3, 0.5) is HomotopyClass.S
        assert homotopy_class(-0.3, 0.5) is HomotopyClass.S
        assert homotopy_class(0.5, 0.5) is HomotopyClass.CCW
        assert homotopy_class(-0.6, 0.5) is HomotopyClass.CW

    def test_passing_in_front_is_ccw_for_yielder(self):
        """B crosses in front of a stopped A: the pair (A, B) winds CCW."""
        n = 20
        ta = straight_traj((-5, 0), (0, 0), n).xy
        tb = straight_traj((0, -5), (0, 1), n).xy
        assert homotopy_class(winding_angle(ta, tb), 0.0) is HomotopyClass.CCW

    def test_crossing_first_is_cw(self):
        """A clears the conflict point before B arrives: class CW."""
        n = 30
        ta = straight_traj((-10, 0), (6, 0), n).xy
        tb = straight_traj((0, -22), (0, 6), n).xy
        assert homotopy_class(winding_angle(ta, tb), 0.0) is HomotopyClass.CW


class TestZeroWinding:
    """The documented rule: with theta_hat = 0 an exact zero winding is CCW."""

    def test_signed_zero_is_ccw(self):
        assert homotopy_class(-0.0, 0.0) is HomotopyClass.CCW
        assert homotopy_class(0.0, 0.5) is HomotopyClass.S

    def test_coincident_prediction_is_ccw(self):
        # a joint sample that puts both agents on the same points at every step
        ta = straight_traj((3.0, -2.0), (4.0, 1.0), 12).xy
        assert winding_angle(ta, ta) == 0.0
        assert not any(two_sample_windings(ta, ta))
        assert classify_pair_windows(ta, ta, 0.0) is HomotopyClass.CCW

    def test_single_bearing_is_ccw(self):
        # B closes in on a stopped A along one line: the bearing never turns
        ta = straight_traj((0.0, 0.0), (0.0, 0.0), 12).xy
        tb = straight_traj((-30.0, 0.0), (5.0, 0.0), 12).xy
        assert winding_angle(ta, tb) == 0.0
        assert classify_pair_windows(ta, tb, 0.0) is HomotopyClass.CCW

    @pytest.mark.parametrize("horizon", [1, 4, 40])
    def test_single_sample_final_frame_is_ccw(self, horizon):
        # the crossing winds CW over any future, but the last frame has none
        ta = straight_traj((-10.0, 0.0), (6.0, 0.0), 30).xy
        tb = straight_traj((0.0, -22.0), (0.0, 6.0), 30).xy
        seq = gt_mode_sequence(ta, tb, horizon_frames=horizon, theta_hat=0.0)
        assert seq[-1] is HomotopyClass.CCW
        assert gt_mode_sequence(ta, tb, horizon, theta_hat=0.5)[-1] is HomotopyClass.S


class TestModeSequence:
    def test_sequence_length_and_tail(self):
        n = 30
        ta = straight_traj((-40, 0), (6, 0), n).xy
        tb = straight_traj((0, -52), (0, 6), n).xy
        seq = gt_mode_sequence(ta, tb, horizon_frames=12, theta_hat=0.0)
        assert len(seq) == n
        # Final frame has a single-sample future: zero winding, class CCW.
        assert seq[-1] is HomotopyClass.CCW

    def test_truncated_horizon_uses_future_only(self):
        n = 40
        ta = straight_traj((-40, 0), (6, 0), n).xy
        tb = straight_traj((0, -52), (0, 6), n).xy
        seq_full = gt_mode_sequence(ta, tb, horizon_frames=n, theta_hat=0.0)
        seq_short = gt_mode_sequence(ta, tb, horizon_frames=4, theta_hat=0.0)
        # With the full horizon the crossing dominates early frames.
        assert seq_full[0] is HomotopyClass.CW
        # A short horizon far before the crossing sees almost no rotation.
        assert len(seq_short) == n
