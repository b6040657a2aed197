import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    Trajectory,
    VehicleDims,
    is_collision,
    min_disk_distance,
)
from interaction_eval.collision import _disk_center_tracks

from conftest import straight_traj


DIMS = VehicleDims(width=2.0, length=4.0)


def disks_at(x, y, heading, dims):
    """(3, 2) disk centres of a vehicle at (x, y): the first sample of a
    two-sample track heading along ``heading``, as ``is_collision`` lays them."""
    xy = np.array([[x, y], [x + np.cos(heading), y + np.sin(heading)]])
    traj = Trajectory(t=np.array([0.0, 0.5]), xy=xy, dt=0.5)
    return _disk_center_tracks(traj, dims)[0]


class TestDiskLayout:
    def test_centers_axis_aligned(self):
        dims = VehicleDims(width=2.0, length=4.0)
        centers = disks_at(0.0, 0.0, 0.0, dims)
        np.testing.assert_allclose(centers, [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert dims.radius == pytest.approx(1.0)

    def test_radius_is_half_width(self):
        assert DIMS.radius == pytest.approx(1.0)

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
        d = min_disk_distance(ta, tb, DIMS, DIMS)
        assert d == pytest.approx(5.0)

    def test_nose_to_tail_same_heading(self):
        ta = straight_traj((0, 0), (6, 0), 10)
        tb = straight_traj((10, 0), (6, 0), 10)
        d = min_disk_distance(ta, tb, DIMS, DIMS)
        # Closest disks are the facing bumpers: 10 - 1 - 1 = 8.
        assert d == pytest.approx(8.0)


class TestCollision:
    def test_far_apart_no_collision(self):
        ta = straight_traj((0, 0), (6, 0), 10)
        tb = straight_traj((0, 50), (6, 0), 10)
        assert not is_collision(ta, tb, DIMS, DIMS)

    def test_identical_paths_collide(self):
        ta = straight_traj((0, 0), (6, 0), 10)
        assert is_collision(ta, ta, DIMS, DIMS)

    def test_threshold_is_strict(self):
        # Side-by-side exactly at touching distance r_a + r_b = 2.
        ta = straight_traj((0, 0), (6, 0), 10)
        tb = straight_traj((0, 2), (6, 0), 10)
        assert not is_collision(ta, tb, DIMS, DIMS)
        tc = straight_traj((0, 1.99), (6, 0), 10)
        assert is_collision(ta, tc, DIMS, DIMS)

    def test_interpolation_catches_tunnelling(self):
        # Perpendicular high-speed crossing that only overlaps between frames.
        dt = 0.5
        ta = straight_traj((-10.5, 0), (30, 0), 2, dt=dt)
        tb = straight_traj((0, 0.5), (0, 0), 2, dt=dt)
        assert not is_collision(ta, tb, DIMS, DIMS, interp_factor=1)
        assert is_collision(ta, tb, DIMS, DIMS, interp_factor=4)

    def test_symmetry(self):
        ta = straight_traj((-10, 0), (6, 0), 20)
        tb = straight_traj((0, -10), (0, 6), 20)
        assert is_collision(ta, tb, DIMS, DIMS) == is_collision(tb, ta, DIMS, DIMS)
