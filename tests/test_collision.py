import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    ConfigError,
    LengthMismatch,
    ShortTrajectory,
    Trajectory,
    VehicleDims,
    is_collision,
    resample_trajectory,
)
from interaction_eval import collision
from interaction_eval.collision import collisions, disk_centers, min_disk_distances
from interaction_eval.types import kinematics_rows, resample_rows

from frozen_padded import (
    frozen_collisions,
    frozen_disk_centers,
    frozen_min_disk_distances,
    frozen_resample_rows,
)
from conftest import (
    as_traj,
    ref_collisions,
    ref_disk_center_tracks,
    ref_disk_tracks,
    ref_is_collision,
    ref_min_disk_distance,
    ref_min_disk_distances,
    ref_resample,
    straight_traj,
)


DIMS = VehicleDims(width=2.0, length=4.0)


def ragged(rows):
    """(n_b, 2) position rows back to back, and their lengths: the stack
    ``collisions`` takes."""
    return np.concatenate(rows), np.array([len(r) for r in rows])


def ragged_pairs(pairs):
    """Row pairs ``(a, b)`` as two ragged stacks and their lengths, which
    the two rows of a pair share."""
    (xy_a, lengths), (xy_b, _) = ragged([a for a, _ in pairs]), ragged([b for _, b in pairs])
    return xy_a, xy_b, lengths


def row_slices(lengths):
    """Each row's slice of a ragged stack with these row lengths."""
    ends = np.cumsum(lengths).tolist()
    return [slice(end - n, end) for end, n in zip(ends, lengths.tolist())]


def padded(rows, extra=0):
    """(n_b, 2) position rows as a zero-padded stack, ``extra`` samples
    wider than the longest, and their lengths: the input of the frozen
    padded kernels."""
    lengths = np.array([len(r) for r in rows])
    xy = np.zeros((len(rows), lengths.max() + extra, 2))
    for b, r in enumerate(rows):
        xy[b, :len(r)] = r
    return xy, lengths


def padded_pairs(pairs, extra=0):
    """Row pairs ``(a, b)`` as two padded stacks and their lengths, which
    the two rows of a pair share."""
    (xy_a, lengths), (xy_b, _) = (padded([a for a, _ in pairs], extra),
                                  padded([b for _, b in pairs], extra))
    return xy_a, xy_b, lengths


def fill_padding(xy, lengths, rng, scale):
    """A copy of a padded stack with random values in [-scale, scale] past
    each row's length."""
    pad = np.arange(xy.shape[1]) >= lengths[:, None]
    filled = xy.copy()
    filled[pad] = rng.uniform(-scale, scale, (int(pad.sum()), 2))
    return filled


def one_row_distance(ta, tb, dims_a, dims_b):
    """The kernel's minimum disk distance of one trajectory pair."""
    return min_disk_distances(*ragged_pairs([(ta.xy, tb.xy)]), dims_a.size, dims_b.size)[0]


def disks_at(x, y, heading, dims):
    """(3, 2) disk centres of a vehicle at (x, y): the first sample of a
    two-sample track heading along ``heading``, as ``is_collision`` lays them."""
    xy = np.array([[x, y], [x + np.cos(heading), y + np.sin(heading)]])
    return disk_centers(xy, np.array([2]), dims.offset)[:, :, 0]


class TestDiskLayout:
    def test_centers_axis_aligned(self):
        dims = VehicleDims(width=2.0, length=4.0)
        centers = disks_at(0.0, 0.0, 0.0, dims)
        np.testing.assert_allclose(centers, [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert dims.radius == pytest.approx(1.0)

    def test_radius_is_half_width(self):
        assert DIMS.radius == pytest.approx(1.0)

    @pytest.mark.parametrize("width, length", [
        (2.0, 1.0), (0.0, 4.0), (-1.0, 4.0), (float("nan"), 4.0), (2.0, float("inf")),
        (float("inf"), float("inf")),
    ], ids=["shorter_than_wide", "zero_width", "negative_width", "nan_width", "inf_length",
            "inf_both"])
    def test_invalid_dims_raise(self, width, length):
        """The scene validator's rule: finite, width > 0, length >= width. A
        shorter-than-wide vehicle would swap its front and rear disks."""
        with pytest.raises(ConfigError):
            VehicleDims(width=width, length=length)

    def test_round_vehicle_is_one_disk_thrice(self):
        dims = VehicleDims(width=2.0, length=2.0)
        assert dims.offset == 0.0
        np.testing.assert_array_equal(disks_at(3.0, 4.0, 0.3, dims), [[3.0, 4.0]] * 3)

    def test_centers_rotate_with_heading(self):
        centers = disks_at(1.0, 2.0, np.pi / 2, VehicleDims(width=2.0, length=4.0))
        np.testing.assert_allclose(
            centers, [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], atol=1e-12
        )

    @given(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(-np.pi, np.pi),
        st.floats(1.5, 2.5), st.floats(3.5, 5.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_disks_stay_inside_footprint(self, x, y, h, w, length):
        """Every disk lies fully within the vehicle rectangle."""
        centers = disks_at(x, y, h, VehicleDims(width=w, length=length))
        rot = np.array([[np.cos(h), np.sin(h)], [-np.sin(h), np.cos(h)]])
        local = (centers - np.array([x, y])) @ rot.T
        r = w / 2.0
        assert np.all(np.abs(local[:, 0]) + r <= length / 2.0 + 1e-9)
        assert np.all(np.abs(local[:, 1]) <= 1e-9)


class TestMinDistance:
    def test_parallel_lanes(self):
        ta = straight_traj((0, 0), (6, 0), 10)
        tb = straight_traj((0, 5), (6, 0), 10)
        d = one_row_distance(ta, tb, DIMS, DIMS)
        assert d == pytest.approx(5.0)

    def test_nose_to_tail_same_heading(self):
        ta = straight_traj((0, 0), (6, 0), 10)
        tb = straight_traj((10, 0), (6, 0), 10)
        d = one_row_distance(ta, tb, DIMS, DIMS)
        # Closest disks are the facing bumpers: 10 - 1 - 1 = 8.
        assert d == pytest.approx(8.0)


class TestCollision:
    def test_far_apart_no_collision(self):
        ta = straight_traj((0, 0), (6, 0), 10)
        tb = straight_traj((0, 50), (6, 0), 10)
        assert not is_collision(ta.xy, tb.xy, DIMS, DIMS)

    def test_identical_paths_collide(self):
        ta = straight_traj((0, 0), (6, 0), 10)
        assert is_collision(ta.xy, ta.xy, DIMS, DIMS)

    def test_threshold_is_strict(self):
        # Side-by-side exactly at touching distance r_a + r_b = 2.
        ta = straight_traj((0, 0), (6, 0), 10)
        tb = straight_traj((0, 2), (6, 0), 10)
        assert not is_collision(ta.xy, tb.xy, DIMS, DIMS)
        tc = straight_traj((0, 1.99), (6, 0), 10)
        assert is_collision(ta.xy, tc.xy, DIMS, DIMS)

    def test_interpolation_catches_tunnelling(self):
        # Perpendicular high-speed crossing that only overlaps between frames.
        dt = 0.5
        ta = straight_traj((-10.5, 0), (30, 0), 2, dt=dt)
        tb = straight_traj((0, 0.5), (0, 0), 2, dt=dt)
        assert not is_collision(ta.xy, tb.xy, DIMS, DIMS, interp_factor=1)
        assert is_collision(ta.xy, tb.xy, DIMS, DIMS, interp_factor=4)

    def test_symmetry(self):
        ta = straight_traj((-10, 0), (6, 0), 20)
        tb = straight_traj((0, -10), (0, 6), 20)
        assert is_collision(ta.xy, tb.xy, DIMS, DIMS) == is_collision(tb.xy, ta.xy, DIMS, DIMS)

    def test_empty_stacks(self):
        """An empty stack gives empty resampled rows and disks, and no row
        pairs to check."""
        xy, lengths, dims = np.zeros((0, 2)), np.zeros(0, int), VehicleDims(2, 4.5)
        rows, m = resample_rows(xy, lengths, 4)
        assert rows.shape == (0, 2) and m.shape == (0,)
        assert disk_centers(rows, m, dims.offset).shape == (3, 2, 0)
        hit = collisions(xy, xy, lengths, dims.size, dims.size, 4)
        assert hit.shape == (0,) and hit.dtype == bool
        assert min_disk_distances(xy, xy, lengths, dims.size, dims.size, 4).shape == (0,)

    def test_short_row_raises(self):
        xy, lengths = ragged([np.zeros((5, 2)), np.zeros((1, 2))])
        with pytest.raises(ShortTrajectory):
            collisions(xy, xy, lengths, DIMS.size, DIMS.size, 4)

    @pytest.mark.parametrize("lengths", [[9, 9], [4], [2, 2]],
                             ids=["past_the_stack", "short_of_it", "one_short"])
    @pytest.mark.parametrize("check", ["collisions", "min_disk_distances", "disk_centers"])
    def test_lengths_must_fill_the_stack(self, check, lengths):
        """Row lengths that do not sum to the stack's 5 samples describe rows
        the stack does not hold: every kernel refuses them, before reading
        any sample."""
        xy, lengths = np.zeros((5, 2)), np.array(lengths)
        call = {"collisions": lambda: collisions(xy, xy, lengths, DIMS.size, DIMS.size, 4),
                "min_disk_distances": lambda: min_disk_distances(xy, xy, lengths, DIMS.size,
                                                                 DIMS.size, 4),
                "disk_centers": lambda: disk_centers(xy, lengths, DIMS.offset)}[check]
        with pytest.raises(LengthMismatch, match="row lengths sum to"):
            call()

    def test_far_rows_get_no_disks(self, monkeypatch):
        """Only the row pairs whose centres come within reach get headings
        and disks."""
        laid = []

        def counting(xy, lengths, dt):
            laid.append(len(lengths))
            return kinematics(xy, lengths, dt)

        kinematics = collision.kinematics_rows
        monkeypatch.setattr(collision, "kinematics_rows", counting)
        ta = straight_traj((0, 0), (6, 0), 10)
        far = [straight_traj((0, y), (6, 0), 10) for y in (50.0, 4.01)]
        near = straight_traj((0, 3.99), (6, 0), 10)  # reach = 1 + 1 + 1 + 1
        hit = collisions(*ragged_pairs([(ta.xy, b.xy) for b in (far[0], near, far[1])]),
                         DIMS.size, DIMS.size)
        assert hit.tolist() == [False, False, False]
        # one stack of both sides' rows of the one near row pair
        assert laid == [2]


@st.composite
def ragged_row_pairs(draw):
    """1-12 row pairs of 2-40 samples each, both rows of a pair equally long,
    inside a 40 m box so that some pairs collide. A row may be stopped at
    its start and at its end, with steps of 0 or below the 1e-9 m degenerate
    threshold, and may share the other row's path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(2, 40))
        rows = []
        for _side in range(2):
            steps = rng.normal(size=(n - 1, 2)) * draw(st.sampled_from([0.3, 1.0, 3.0]))
            head = draw(st.integers(0, n - 1))
            tail = draw(st.integers(0, n - 1 - head))
            tiny = draw(st.sampled_from([0.0, 1e-10, 5e-10]))
            steps[:head] *= tiny
            steps[n - 1 - tail:] *= tiny
            rows.append(rng.uniform(-20.0, 20.0, 2) + np.concatenate([[[0.0, 0.0]],
                                                                     np.cumsum(steps, axis=0)]))
        if draw(st.booleans()) and n > 2:
            rows[1] = rows[0] + rng.normal(size=2) * 2.0
        pairs.append(rows)
    return pairs


DIMS_ST = st.builds(lambda w, extra: VehicleDims(width=w, length=w + extra),
                    st.floats(0.5, 2.5), st.floats(0.0, 4.0))


class TestKernelMatchesPerPairReference:
    """The array kernel against the frozen per-pair check (``conftest``), bit
    for bit: disk centres, distances and flags of every row pair."""

    @given(ragged_row_pairs(), st.sampled_from([1, 2, 4]), DIMS_ST, DIMS_ST)
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_per_pair_reference(self, pairs, factor, dims_a, dims_b):
        dt = 0.1
        trajs = [[Trajectory(t=dt * np.arange(len(xy)), xy=xy, dt=dt) for xy in rows]
                 for rows in pairs]
        xy_a, xy_b, lengths = ragged_pairs([(a.xy, b.xy) for a, b in trajs])
        dist = min_disk_distances(xy_a, xy_b, lengths, dims_a.size, dims_b.size, factor)
        hit = collisions(xy_a, xy_b, lengths, dims_a.size, dims_b.size, factor)
        assert dist.shape == hit.shape == (len(pairs),)
        rows_a, m_rows = resample_rows(xy_a, lengths, factor)
        centers_a = disk_centers(rows_a, m_rows, dims_a.offset)
        for k, ((ta, tb), row) in enumerate(zip(trajs, row_slices(m_rows))):
            ra, rb = ref_resample(ta, factor), ref_resample(tb, factor)
            m = ra.n
            assert m_rows[k] == m
            assert np.array_equal(centers_a[..., row].transpose(2, 0, 1),
                                  ref_disk_center_tracks(ra, dims_a))
            want = ref_min_disk_distance(ra, rb, dims_a, dims_b)
            assert np.array_equal(dist[k], want), k
            assert hit[k] == ref_is_collision(ta, tb, dims_a, dims_b, factor), k
            # the one-row case is the same kernel
            assert is_collision(ta.xy, tb.xy, dims_a, dims_b, factor) == hit[k]
            assert one_row_distance(resample_trajectory(ta, factor),
                                    resample_trajectory(tb, factor), dims_a, dims_b) == want

    @given(ragged_row_pairs(), st.sampled_from([1, 2, 4]), DIMS_ST, DIMS_ST,
           st.integers(0, 3), st.sampled_from([1.0, 1e3, 1e6]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_are_isolated(self, pairs, factor, dims_a, dims_b, extra, scale, seed):
        """Whatever rows come before or after a row pair in the stack, its
        distance and flag, and each of its rows' headings and disk centres,
        are the same bits as in a stack of that pair alone: up to ``extra``
        row pairs of coordinates up to ``scale`` go before, between and
        after the drawn ones (``filler_rows``)."""
        rng = np.random.default_rng(seed)
        stack, own = [], []
        for pair in pairs:
            stack += filler_rows(rng, int(rng.integers(0, extra + 1)), scale)
            own.append(len(stack))
            stack.append(pair)
        stack += filler_rows(rng, int(rng.integers(0, extra + 1)), scale)
        xy_a, xy_b, lengths = ragged_pairs(stack)
        sizes = dims_a.size, dims_b.size
        dist = min_disk_distances(xy_a, xy_b, lengths, *sizes, factor)
        hit = collisions(xy_a, xy_b, lengths, *sizes, factor)
        laid = [(xy, dims, kinematics_rows(xy, lengths, 1.0)[0],
                 disk_centers(*resample_rows(xy, lengths, factor), dims.offset))
                for xy, dims in ((xy_a, dims_a), (xy_b, dims_b))]
        rows, new_rows = row_slices(lengths), row_slices((lengths - 1) * factor + 1)
        for k in own:
            alone = ragged_pairs([stack[k]])
            assert np.array_equal(dist[k], min_disk_distances(*alone, *sizes, factor)[0]), k
            assert hit[k] == collisions(*alone, *sizes, factor)[0], k
            for (xy, dims, headings, centers), one in zip(laid, alone):
                n = np.array([len(one)])
                assert np.array_equal(headings[rows[k]], kinematics_rows(one, n, 1.0)[0]), k
                assert np.array_equal(centers[..., new_rows[k]],
                                      disk_centers(*resample_rows(one, n, factor),
                                                   dims.offset)), k

    def test_heading_carry_restarts_at_each_row(self):
        """A row stationary from its start takes heading 0 until it first
        moves, never the heading the row before it ended on; a row stopped
        at its end (a stopped DECEL roll) carries its own last heading; a
        row of 2 samples takes its one step's."""
        moving = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])  # heading pi / 2
        starts_still = np.array([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [6.0, 5.0], [7.0, 5.0]])
        stopped = np.array([[0.0, 0.0], [-1.0, 0.0], [-1.5, 0.0], [-1.5, 0.0], [-1.5, 0.0]])
        still = np.array([[3.0, 3.0]] * 4)
        two = np.array([[0.0, 0.0], [1.0, -1.0]])
        xy, lengths = ragged([moving, starts_still, stopped, still, two, starts_still])
        headings, speeds = kinematics_rows(xy, lengths, 1.0)
        rows = [headings[row].tolist() for row in row_slices(lengths)]
        assert rows[0] == [np.pi / 2] * 3
        assert rows[1] == [0.0, 0.0, 0.0, 0.0, 0.0]
        assert rows[2] == [np.pi] * 5
        assert rows[3] == [0.0] * 4
        assert rows[4] == [-np.pi / 4] * 2
        assert rows[5] == rows[1]
        assert speeds[row_slices(lengths)[1]].tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


def filler_rows(rng, count, scale):
    """``count`` row pairs of coordinates up to ``scale``: each row moving
    from its start, stationary at its start, stopped at its end, or
    stationary throughout, of 2 samples or of 3-12."""
    out = []
    for _ in range(count):
        n = int(rng.choice([2, rng.integers(3, 13)]))
        pair = []
        for _side in range(2):
            steps = rng.normal(size=(n - 1, 2)) * scale * 0.1
            kind = rng.integers(0, 4)
            if kind == 1:
                steps[:rng.integers(1, n)] = 0.0
            elif kind == 2:
                steps[rng.integers(0, n - 1):] = 0.0
            elif kind == 3:
                steps[:] = 0.0
            start = rng.uniform(-scale, scale, 2)
            pair.append(start + np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)]))
        out.append(tuple(pair))
    return out


# vehicles as long as wide have no front and rear offset, so that side-by-side
# rows at reach are at the disk threshold too
BOUNDARY_DIMS_ST = st.builds(lambda w, extra: VehicleDims(width=w, length=w + extra),
                             st.floats(0.5, 2.5), st.one_of(st.just(0.0), st.floats(0.0, 4.0)))


@st.composite
def boundary_cases(draw):
    """1-6 row pairs whose centres come within a few ulps of ``collisions``'
    reach r_a + r_b + |off_a| + |off_b|, or of r_a + r_b, and the dims and
    factor to check them at: ``(pairs, dims_a, dims_b, factor)``.

    - ``nose``: head on, meeting at the last sample, where the front disks
      touch exactly when the centres are at reach;
    - ``side``: abreast at every sample;
    - ``stopped``: head on, one step and then stopped, so that every later
      heading is carried;
    - ``between``: a passes b fast, abreast only midway between the last two
      samples, which only factors 2 and 4 lay out.

    The gap is ``target + k * spacing(target)`` for k in [-8, 8], at any
    heading, and every row may be shifted by 1e6 m.
    """
    dims_a, dims_b = draw(BOUNDARY_DIMS_ST), draw(BOUNDARY_DIMS_ST)
    factor = draw(st.sampled_from([1, 2, 4]))
    touch = dims_a.radius + dims_b.radius
    reach = touch + dims_a.offset + dims_b.offset
    shift = draw(st.sampled_from([0.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        case = draw(st.sampled_from(["nose", "side", "stopped", "between"]))
        theta = draw(st.one_of(st.sampled_from([0.0, np.pi / 4, np.pi / 2, np.pi, -np.pi / 2]),
                               st.floats(-np.pi, np.pi)))
        ahead = np.array([np.cos(theta), np.sin(theta)])
        left = np.array([-ahead[1], ahead[0]])
        target = reach if case in ("nose", "stopped") else draw(st.sampled_from([touch, reach]))
        gap = target + draw(st.integers(-8, 8)) * np.spacing(target)
        p = shift + rng.uniform(-50.0, 50.0, 2)
        n = draw(st.integers(2, 6))
        step = draw(st.sampled_from([0.1, 1.0, 5.0]))
        back = (np.arange(n) - (n - 1))[:, None] * ahead  # -(n - 1) .. 0 steps ahead
        if case == "nose":
            a = p + step * back
            b = p + gap * ahead - step * back
        elif case == "side":
            a = p + step * back
            b = a + gap * left
        elif case == "stopped":
            n = max(n, 3)
            a = np.repeat(p[None], n, axis=0)
            b = np.repeat((p + gap * ahead)[None], n, axis=0)
            a[0] -= step * ahead
            b[0] += step * ahead
        else:
            # 20 m steps for a, 0.1 m for b: the centres are 10 m apart at the
            # samples, beyond any reach here
            a = p + 20.0 * back + 10.0 * ahead
            b = p + gap * left + 0.1 * back + 0.05 * ahead
        pairs.append((a, b))
    return pairs, dims_a, dims_b, factor


class TestReachBound:
    """``collisions`` lays out disks only for the rows within reach; the
    rows it settles by the reach test alone must get the exact answer."""

    @given(boundary_cases())
    @settings(max_examples=400, deadline=None)
    def test_reach_settles_rows_exactly(self, case):
        pairs, dims_a, dims_b, factor = case
        xy_a, xy_b, lengths = ragged_pairs(pairs)
        sizes = dims_a.size, dims_b.size
        hit = collisions(xy_a, xy_b, lengths, *sizes, factor)
        assert np.array_equal(hit, min_disk_distances(xy_a, xy_b, lengths, *sizes, factor)
                              < dims_a.radius + dims_b.radius)
        for k, (a, b) in enumerate(pairs):
            assert hit[k] == ref_is_collision(as_traj(a), as_traj(b), dims_a, dims_b, factor), k


def frozen_check(xy_a, xy_b, lengths, dims_a, dims_b, factor):
    """The frozen track-layout kernel's flags and distances (``conftest``)
    on padded stacks."""
    ta = ref_disk_tracks(xy_a, lengths, dims_a, factor)
    tb = ref_disk_tracks(xy_b, lengths, dims_b, factor)
    return ref_collisions(ta, tb), ref_min_disk_distances(ta, tb)


class TestSegmentBound:
    """``collisions`` settles a row pair far when no recorded segment brings
    the centres within reach; it must answer as the frozen kernel, which
    tested every resampled sample, flag for flag and distance for distance."""

    @staticmethod
    def check(pairs, dims_a, dims_b, factor, extra, scale, seed):
        pad_a, pad_b, lengths = padded_pairs(pairs, extra)
        if scale:
            rng = np.random.default_rng(seed)
            pad_a = fill_padding(pad_a, lengths, rng, scale)
            pad_b = fill_padding(pad_b, lengths, rng, scale)
        want_hit, want_dist = frozen_check(pad_a, pad_b, lengths, dims_a, dims_b, factor)
        xy_a, xy_b, _ = ragged_pairs(pairs)
        sizes = dims_a.size, dims_b.size
        assert np.array_equal(collisions(xy_a, xy_b, lengths, *sizes, factor), want_hit)
        assert np.array_equal(min_disk_distances(xy_a, xy_b, lengths, *sizes, factor), want_dist)

    @given(ragged_row_pairs(), st.sampled_from([1, 2, 4]), DIMS_ST, DIMS_ST, st.integers(0, 3),
           st.sampled_from([0.0, 1.0, 1e6]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_ragged_rows_equal_frozen_kernel(self, pairs, factor, dims_a, dims_b, extra, scale,
                                             seed):
        self.check(pairs, dims_a, dims_b, factor, extra, scale, seed)

    @given(boundary_cases(), st.integers(0, 3), st.sampled_from([0.0, 1.0, 1e6]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_boundary_rows_equal_frozen_kernel(self, case, extra, scale, seed):
        pairs, dims_a, dims_b, factor = case
        self.check(pairs, dims_a, dims_b, factor, extra, scale, seed)

    @pytest.mark.parametrize("factor, want", [(1, False), (2, True), (4, True)],
                             ids=["near_between_samples", "interpolated", "interpolated_x4"])
    def test_reach_only_between_recorded_samples(self, monkeypatch, factor, want):
        """a passes b at 20 m a step, its centre 1.5 m from b's only midway
        between the two recorded samples, which are 10 m from b's. The
        segment bound marks the pair near at every factor. Without
        resampling the exact check finds no overlap; with it, the midway
        sample overlaps, though no recorded sample is within reach."""
        laid = []

        def counting(xy, lengths, dt):
            laid.append(len(lengths))
            return kinematics(xy, lengths, dt)

        kinematics = collision.kinematics_rows
        monkeypatch.setattr(collision, "kinematics_rows", counting)
        xy_a = np.array([[-10.0, 0.0], [10.0, 0.0]])
        xy_b = np.array([[-0.05, 1.5], [0.05, 1.5]])
        lengths = np.array([2])
        hit = collisions(xy_a, xy_b, lengths, DIMS.size, DIMS.size, factor)
        assert laid == [2]
        assert hit.tolist() == [want]
        assert frozen_check(xy_a[None], xy_b[None], lengths, DIMS, DIMS, factor)[0].tolist() == [
            want]
        assert want == ref_is_collision(as_traj(xy_a), as_traj(xy_b), DIMS, DIMS, factor)


class TestPerRowSizes:
    """One call over rows of different vehicle sizes, each row with its own
    ``(radius, offset)``, gives every row the flag and distance, bit for bit,
    of a call on that row alone with one size, and of the frozen kernel."""

    @staticmethod
    def check(pairs, dims, factor, extra=0):
        """``pairs`` checked in one call, pair k with ``dims[k] = (dims_a,
        dims_b)``, against one call per pair."""
        xy_a, xy_b, lengths = ragged_pairs(pairs)
        pad_a, pad_b, _ = padded_pairs(pairs, extra)
        size_a = np.array([d_a.size for d_a, _ in dims])
        size_b = np.array([d_b.size for _, d_b in dims])
        hit = collisions(xy_a, xy_b, lengths, size_a, size_b, factor)
        dist = min_disk_distances(xy_a, xy_b, lengths, size_a, size_b, factor)
        for k, ((d_a, d_b), (a, b)) in enumerate(zip(dims, pairs)):
            one, n = slice(k, k + 1), lengths[k:k + 1]
            assert hit[k] == collisions(a, b, n, d_a.size, d_b.size, factor)[0], k
            assert np.array_equal(dist[k], min_disk_distances(a, b, n, d_a.size, d_b.size,
                                                              factor)[0]), k
            want_hit, want_dist = frozen_check(pad_a[one], pad_b[one], n, d_a, d_b, factor)
            assert hit[k] == want_hit[0] and np.array_equal(dist[k], want_dist[0]), k
            assert hit[k] == is_collision(a, b, d_a, d_b, factor), k

    @given(ragged_row_pairs(), st.sampled_from([1, 2, 4]), DIMS_ST, DIMS_ST, st.integers(0, 3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_of_two_sizes_equal_one_size_calls(self, pairs, factor, dims_1, dims_2, extra,
                                                    seed):
        pick = np.random.default_rng(seed).integers(0, 2, (len(pairs), 2))
        both = (dims_1, dims_2)
        self.check(pairs, [(both[i], both[j]) for i, j in pick.tolist()], factor, extra)

    @given(boundary_cases(), boundary_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_boundary_rows_of_two_sizes(self, case_1, case_2, seed):
        """Rows within a few ulps of their own sizes' reach or touch, two
        cases' rows shuffled into one stack."""
        (pairs_1, a_1, b_1, factor), (pairs_2, a_2, b_2, _) = case_1, case_2
        rows = [(p, (a_1, b_1)) for p in pairs_1] + [(p, (a_2, b_2)) for p in pairs_2]
        order = np.random.default_rng(seed).permutation(len(rows))
        self.check([rows[k][0] for k in order], [rows[k][1] for k in order], factor)

    def test_one_size_broadcasts(self):
        """One ``(radius, offset)`` for every row gives what that size
        repeated per row gives."""
        ta = straight_traj((0, 0), (6, 0), 10)
        rows = [(ta.xy, straight_traj((0, y), (6, 0), 10).xy) for y in (1.9, 3.9, 50.0)]
        xy_a, xy_b, lengths = ragged_pairs(rows)
        each = np.array([DIMS.size] * 3)
        assert (collisions(xy_a, xy_b, lengths, DIMS.size, DIMS.size).tolist()
                == collisions(xy_a, xy_b, lengths, each, each).tolist() == [True, False, False])


class TestRaggedMatchesFrozenPadded:
    """The ragged kernel against the padded kernel it replaced
    (``frozen_padded``), bit for bit: flags, distances and each row's disk
    centres, with per-row vehicle sizes, factors 1-5, and the frozen stacks
    padded past each row with zeros or with random values."""

    @staticmethod
    def check(pairs, dims, factor, extra, scale, seed):
        """``pairs`` in one call each, pair k with ``dims[k] = (dims_a,
        dims_b)``."""
        xy_a, xy_b, lengths = ragged_pairs(pairs)
        pad_a, pad_b, _ = padded_pairs(pairs, extra)
        if scale:
            rng = np.random.default_rng(seed)
            pad_a = fill_padding(pad_a, lengths, rng, scale)
            pad_b = fill_padding(pad_b, lengths, rng, scale)
        size_a = np.array([d_a.size for d_a, _ in dims])
        size_b = np.array([d_b.size for _, d_b in dims])
        assert np.array_equal(collisions(xy_a, xy_b, lengths, size_a, size_b, factor),
                              frozen_collisions(pad_a, pad_b, lengths, size_a, size_b, factor))
        assert np.array_equal(
            min_disk_distances(xy_a, xy_b, lengths, size_a, size_b, factor),
            frozen_min_disk_distances(pad_a, pad_b, lengths, size_a, size_b, factor))
        rows, m = resample_rows(xy_a, lengths, factor)
        centers = disk_centers(rows, m, size_a[:, 1])
        frozen = frozen_disk_centers(*frozen_resample_rows(pad_a, lengths, factor), size_a[:, 1])
        for k, row in enumerate(row_slices(m)):
            assert np.array_equal(centers[..., row], frozen[k, ..., :m[k]]), k

    @given(ragged_row_pairs(), st.integers(1, 5), DIMS_ST, DIMS_ST, st.integers(0, 3),
           st.sampled_from([0.0, 1.0, 1e6]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_ragged_rows(self, pairs, factor, dims_1, dims_2, extra, scale, seed):
        pick = np.random.default_rng(seed).integers(0, 2, (len(pairs), 2))
        both = (dims_1, dims_2)
        self.check(pairs, [(both[i], both[j]) for i, j in pick.tolist()], factor, extra, scale,
                   seed)

    @given(boundary_cases(), boundary_cases(), st.integers(1, 5), st.integers(0, 3),
           st.sampled_from([0.0, 1.0, 1e6]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_boundary_rows(self, case_1, case_2, factor, extra, scale, seed):
        """Rows within a few ulps of their own sizes' reach or touch, two
        cases' rows shuffled into one stack."""
        (pairs_1, a_1, b_1, _), (pairs_2, a_2, b_2, _) = case_1, case_2
        rows = [(p, (a_1, b_1)) for p in pairs_1] + [(p, (a_2, b_2)) for p in pairs_2]
        order = np.random.default_rng(seed).permutation(len(rows))
        self.check([rows[k][0] for k in order], [rows[k][1] for k in order], factor, extra,
                   scale, seed)
