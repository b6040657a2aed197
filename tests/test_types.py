import dataclasses

import numpy as np
import pytest

from interaction_eval import (
    Agent,
    ConfigError,
    DuplicateAgentId,
    EmptyOverlap,
    EvalConfig,
    NonFiniteCoordinate,
    NonUniformSampling,
    Scene,
    ShortTrajectory,
    Trajectory,
    common_window,
    resample_trajectory,
    trajectory_kinematics,
    validate_scene,
)

from conftest import circle_traj, crossing_scene, make_agent, straight_traj


class TestTrajectory:
    def test_arrays_read_only(self):
        tr = straight_traj((0, 0), (1, 0), 5)
        with pytest.raises(ValueError):
            tr.xy[0, 0] = 9.0
        with pytest.raises(ValueError):
            tr.t[0] = 9.0

    def test_slice_frames(self):
        tr = straight_traj((0, 0), (2, 0), 10)
        sub = tr.slice_frames(3, 7)
        assert sub.n == 4
        assert sub.t[0] == pytest.approx(1.5)
        np.testing.assert_allclose(sub.xy[0], [3.0, 0.0])


class TestValidation:
    def test_valid_scene_passes(self):
        scene = crossing_scene()
        assert validate_scene(scene) is scene

    def test_non_uniform_sampling(self):
        t = np.array([0.0, 0.5, 1.2])
        xy = np.zeros((3, 2))
        tr = Trajectory(t=t, xy=xy, dt=0.5)
        scene = Scene(scene_id="s", dt=0.5, agents=(make_agent("a", tr),))
        with pytest.raises(NonUniformSampling):
            validate_scene(scene)

    def test_short_trajectory(self):
        tr = Trajectory(t=np.array([0.0]), xy=np.zeros((1, 2)), dt=0.5)
        scene = Scene(scene_id="s", dt=0.5, agents=(make_agent("a", tr),))
        with pytest.raises(ShortTrajectory):
            validate_scene(scene)

    def test_duplicate_agent_id(self):
        tr = straight_traj((0, 0), (1, 0), 5)
        scene = Scene(
            scene_id="s", dt=0.5,
            agents=(make_agent("a", tr), make_agent("a", tr)),
        )
        with pytest.raises(DuplicateAgentId):
            validate_scene(scene)

    def test_non_finite_coordinate(self):
        xy = np.zeros((5, 2))
        xy[2, 1] = np.nan
        tr = Trajectory(t=0.5 * np.arange(5), xy=xy, dt=0.5)
        scene = Scene(scene_id="s", dt=0.5, agents=(make_agent("a", tr),))
        with pytest.raises(NonFiniteCoordinate) as exc:
            validate_scene(scene)
        assert "a" in str(exc.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_timestamp_names_its_sample(self, value):
        t = 0.5 * np.arange(10)
        t[6] = value
        tr = Trajectory(t=t, xy=np.zeros((10, 2)), dt=0.5)
        scene = Scene(scene_id="s", dt=0.5, agents=(make_agent("a", tr),))
        with pytest.raises(NonFiniteCoordinate, match="non-finite value at sample 6$"):
            validate_scene(scene)


class TestResampling:
    def test_originals_preserved_exactly(self):
        tr = circle_traj(10.0, 0.3, 12)
        dense = resample_trajectory(tr, 4)
        assert dense.n == (tr.n - 1) * 4 + 1
        np.testing.assert_array_equal(dense.xy[::4], tr.xy)
        np.testing.assert_array_equal(dense.t[::4], tr.t)

    def test_linear_midpoints(self):
        tr = straight_traj((0, 0), (4, 0), 5)
        dense = resample_trajectory(tr, 2)
        np.testing.assert_allclose(dense.xy[1], [1.0, 0.0])
        assert dense.dt == pytest.approx(0.25)

    def test_factor_one_is_identity(self):
        tr = straight_traj((0, 0), (4, 0), 5)
        dense = resample_trajectory(tr, 1)
        np.testing.assert_array_equal(dense.xy, tr.xy)


class TestKinematics:
    def test_constant_velocity(self):
        tr = straight_traj((0, 0), (3, 4), 8)
        headings, speeds = trajectory_kinematics(tr)
        np.testing.assert_allclose(speeds, 5.0)
        np.testing.assert_allclose(headings, np.arctan2(4, 3))

    def test_stationary_carries_last_heading(self):
        xy = np.array([[0, 0], [1, 0], [2, 0], [2, 0], [2, 0]], dtype=float)
        tr = Trajectory(t=0.5 * np.arange(5), xy=xy, dt=0.5)
        headings, speeds = trajectory_kinematics(tr)
        assert speeds[-1] == 0.0
        assert headings[-1] == pytest.approx(0.0)

    def test_heading_and_speed_single_frame(self):
        tr = straight_traj((0, 0), (0, 2), 6)
        headings, speeds = trajectory_kinematics(tr)
        h, s = headings[3], speeds[3]
        assert h == pytest.approx(np.pi / 2)
        assert s == pytest.approx(2.0)


class TestCommonWindow:
    def test_offset_starts(self):
        ta = straight_traj((0, 0), (1, 0), 10, t0=0.0)
        tb = straight_traj((5, 5), (1, 0), 10, t0=2.0)
        wa, wb, t = common_window(ta, tb)
        assert t[0] == pytest.approx(2.0)
        assert wa.n == wb.n == 6
        np.testing.assert_allclose(wa.xy[0], [2.0, 0.0])

    def test_no_overlap_raises(self):
        ta = straight_traj((0, 0), (1, 0), 4, t0=0.0)
        tb = straight_traj((0, 0), (1, 0), 4, t0=10.0)
        with pytest.raises(EmptyOverlap):
            common_window(ta, tb)


class TestConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.d_collision == 1.5
        assert cfg.dt_ps_max == 6.0
        assert cfg.a_lon_max == 1.47
        assert cfg.a_lat_max == 1.18
        assert cfg.t_p == 6.0
        assert cfg.theta_hat == 0.0
        assert cfg.interp_factor == 4

    def test_horizon_frames(self):
        cfg = EvalConfig()
        assert cfg.horizon_frames(0.5) == 12
        with pytest.raises(ConfigError):
            cfg.horizon_frames(0.7)

    def test_interp_factor_must_be_an_integer(self):
        assert EvalConfig(interp_factor=4).interp_factor == 4
        with pytest.raises(ConfigError, match="interp_factor"):
            EvalConfig(interp_factor=4.0)
        tr = straight_traj((0, 0), (4, 0), 5)
        assert resample_trajectory(tr, 4).n == 17
        with pytest.raises(ConfigError, match="resample factor"):
            resample_trajectory(tr, 4.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["d_collision", "dt_ps_max", "a_lon_max", "a_lat_max",
                                      "t_p", "theta_hat", "t_min"])
    def test_non_finite_field_is_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            EvalConfig(**{name: value})

    def test_with_override(self):
        cfg = dataclasses.replace(EvalConfig(), t_p=3.0)
        assert cfg.t_p == 3.0
        assert cfg.d_collision == 1.5
