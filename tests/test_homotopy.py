import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    HomotopyClass,
    classify_pair_windows,
    gt_mode_sequence,
    homotopy_class,
    winding_angle,
)
from interaction_eval.homotopy import _wrap_angle

from conftest import circle_traj, straight_traj


def random_walk_pair(rng, n):
    a = np.cumsum(rng.normal(0.0, 1.0, (n, 2)), axis=0)
    b = 10.0 + np.cumsum(rng.normal(0.0, 1.0, (n, 2)), axis=0)
    return a, b


class TestWindingAngle:
    def test_full_ccw_loop(self):
        """A orbits B once counter-clockwise: total winding is +2*pi."""
        n = 73
        ta = circle_traj(5.0, 2.0 * np.pi / ((n - 1) * 0.5), n).xy
        tb = straight_traj((0, 0), (0, 0), n).xy
        res = winding_angle(ta, tb)
        assert res.delta_theta == pytest.approx(2.0 * np.pi, abs=1e-9)

    def test_full_cw_loop(self):
        n = 73
        ta = circle_traj(5.0, -2.0 * np.pi / ((n - 1) * 0.5), n).xy
        tb = straight_traj((0, 0), (0, 0), n).xy
        res = winding_angle(ta, tb)
        assert res.delta_theta == pytest.approx(-2.0 * np.pi, abs=1e-9)

    def test_per_step_sums_to_total(self):
        rng = np.random.default_rng(3)
        ta, tb = random_walk_pair(rng, 40)
        res = winding_angle(ta, tb)
        assert res.delta_theta == pytest.approx(res.per_step.sum(), abs=1e-12)
        assert np.all(np.abs(res.per_step) <= np.pi)

    def test_concatenation_identity(self):
        rng = np.random.default_rng(4)
        ta, tb = random_walk_pair(rng, 50)
        whole = winding_angle(ta, tb).delta_theta
        first = winding_angle(ta[0:25], tb[0:25])
        second = winding_angle(ta[24:50], tb[24:50])
        assert whole == pytest.approx(first.delta_theta + second.delta_theta, abs=1e-12)

    def test_mirror_flip_negates(self):
        """Reflecting both paths about the x-axis reverses the winding sign."""
        rng = np.random.default_rng(5)
        ta, tb = random_walk_pair(rng, 50)
        flip = np.array([1.0, -1.0])
        assert winding_angle(ta * flip, tb * flip).delta_theta == pytest.approx(
            -winding_angle(ta, tb).delta_theta, abs=1e-12
        )

    def test_swap_invariance(self):
        """Swapping the two agents negates the relative vector, which leaves
        the rotation sense of the bearing unchanged."""
        rng = np.random.default_rng(6)
        ta, tb = random_walk_pair(rng, 50)
        assert winding_angle(tb, ta).delta_theta == pytest.approx(
            winding_angle(ta, tb).delta_theta, abs=1e-12
        )

    def test_coincident_frames_skipped(self):
        xy_a = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
        xy_b = np.array([[0, -1], [1, 0], [2, -1], [3, -1]], dtype=float)
        res = winding_angle(xy_a, xy_b)
        assert np.isfinite(res.delta_theta)
        assert res.per_step[1] == 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_step_magnitude_bounded(self, seed):
        rng = np.random.default_rng(seed)
        ta, tb = random_walk_pair(rng, 20)
        res = winding_angle(ta, tb)
        assert np.all(np.abs(res.per_step) <= np.pi + 1e-12)



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
            res = winding_angle(ta, tb)
            ref_total, ref_steps = ref_winding(ta, tb)
            assert np.array_equal(res.per_step, ref_steps), seed
            assert res.delta_theta == ref_total, seed


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
        res = winding_angle(ta, tb)
        assert homotopy_class(res.delta_theta, 0.0) is HomotopyClass.CCW

    def test_crossing_first_is_cw(self):
        """A clears the conflict point before B arrives: class CW."""
        n = 30
        ta = straight_traj((-10, 0), (6, 0), n).xy
        tb = straight_traj((0, -22), (0, 6), n).xy
        res = winding_angle(ta, tb)
        assert homotopy_class(res.delta_theta, 0.0) is HomotopyClass.CW


class TestZeroWinding:
    """The documented rule: with theta_hat = 0 an exact zero winding is CCW."""

    def test_signed_zero_is_ccw(self):
        assert homotopy_class(-0.0, 0.0) is HomotopyClass.CCW
        assert homotopy_class(0.0, 0.5) is HomotopyClass.S

    def test_coincident_prediction_is_ccw(self):
        # a joint sample that puts both agents on the same points at every step
        ta = straight_traj((3.0, -2.0), (4.0, 1.0), 12).xy
        res = winding_angle(ta, ta)
        assert res.delta_theta == 0.0
        assert not res.per_step.any()
        assert classify_pair_windows(ta, ta, 0.0) is HomotopyClass.CCW

    def test_single_bearing_is_ccw(self):
        # B closes in on a stopped A along one line: the bearing never turns
        ta = straight_traj((0.0, 0.0), (0.0, 0.0), 12).xy
        tb = straight_traj((-30.0, 0.0), (5.0, 0.0), 12).xy
        assert winding_angle(ta, tb).delta_theta == 0.0
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
