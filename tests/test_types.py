import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interaction_eval import (
    ConfigError,
    DuplicateAgentId,
    EmptyOverlap,
    EvalConfig,
    JointPredictionSet,
    LengthMismatch,
    NonFiniteCoordinate,
    NonUniformSampling,
    Scene,
    ShortTrajectory,
    Trajectory,
    UnknownAgent,
    common_window,
    resample_trajectory,
    trajectory_kinematics,
    validate_scene,
)
from interaction_eval.types import (
    agent_frame_index,
    co_observed,
    kinematics_rows,
    resample_rows,
    row_samples,
    scene_frame,
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


class TestScene:
    def test_repeated_id_names_its_first_agent(self):
        first = make_agent("a", straight_traj((0, 0), (1, 0), 5))
        second = make_agent("a", straight_traj((9, 9), (1, 0), 5))
        scene = Scene(scene_id="s", dt=0.5, agents=(first, second))
        assert scene.agent("a") is first
        with pytest.raises(UnknownAgent):
            scene.agent("b")

    def test_empty_scene_constructs(self):
        scene = Scene(scene_id="s", dt=0.5, agents=())
        with pytest.raises(ShortTrajectory):
            validate_scene(scene)


@st.composite
def offset_scenes(draw):
    """A scene at dt 0.1 or 0.5 whose agents start on the frame grid, or
    half a step off it, and whose every timestamp is jittered by at most
    1e-7 s."""
    dt = draw(st.sampled_from([0.1, 0.5]))
    agents = []
    for a in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 12))
        t0 = draw(st.integers(0, 6)) * dt + draw(st.sampled_from([0.0, 0.5])) * dt
        jitter = draw(st.lists(st.floats(-1e-7, 1e-7), min_size=n, max_size=n))
        t = t0 + dt * np.arange(n) + np.array(jitter)
        xy = np.stack([np.arange(n, dtype=float), np.full(n, float(a))], axis=1)
        agents.append(make_agent(f"a{a}", Trajectory(t=t, xy=xy, dt=dt)))
    return validate_scene(Scene(scene_id="s", dt=dt, agents=tuple(agents)))


@given(offset_scenes())
@settings(max_examples=200, deadline=None)
def test_each_sample_pairs_with_its_own_frame(scene):
    for agent in scene.agents:
        for k, t in enumerate(agent.trajectory.t):
            assert agent_frame_index(scene, agent, scene_frame(scene, t)) == k


def test_half_step_off_agent_pairs_with_later_frames():
    on = make_agent("on", straight_traj((0, 0), (1, 0), 8, dt=0.5))
    off = make_agent("off", straight_traj((0, 5), (1, 0), 6, t0=0.25, dt=0.5))
    scene = validate_scene(Scene(scene_id="s", dt=0.5, agents=(on, off)))
    assert [agent_frame_index(scene, off, f) for f in range(6)] == [None, 0, 1, 2, 3, 4]
    assert [scene_frame(scene, t) for t in off.trajectory.t] == [1, 2, 3, 4, 5, 6]


class TestJointPredictionSet:
    def test_packs_in_first_sample_order_with_zero_padding(self):
        fa, fb = np.ones((3, 2)), np.full((5, 2), 2.0)
        pset = JointPredictionSet.from_samples(4, [(0.6, {"b": fb, "a": fa}),
                                                   (0.4, {"a": fa[:1], "b": fb})])
        assert pset.frame == 4 and pset.agent_ids == ("b", "a")
        assert pset.p.tolist() == [0.6, 0.4]
        assert pset.lengths.tolist() == [[5, 3], [5, 1]]
        assert pset.xy.shape == (2, 2, 5, 2)
        np.testing.assert_array_equal(pset.xy[1, 1], [[1.0, 1.0]] + [[0.0, 0.0]] * 4)
        for arr in (pset.p, pset.xy, pset.lengths):
            with pytest.raises(ValueError):
                arr.flat[0] = 7


class TestIdentityEquality:
    def test_eq_and_hash_do_not_raise(self):
        """Trajectories and prediction sets hold numpy arrays, so they compare
        and hash by identity; a scene compares its fields, which reach them."""
        ta, tb = straight_traj((0, 0), (1, 0), 5), straight_traj((0, 0), (1, 0), 5)
        fut = {"a": np.ones((3, 2))}
        pa = JointPredictionSet.from_samples(4, [(1.0, fut)])
        pb = JointPredictionSet.from_samples(4, [(1.0, fut)])
        agents = (make_agent("a", ta),)
        sa = Scene(scene_id="s", dt=0.5, agents=agents)
        sb = Scene(scene_id="s", dt=0.5, agents=agents)
        for x, y, same in ((ta, tb, False), (pa, pb, False), (sa, sb, True)):
            assert x == x and not x != x
            assert (x == y) is same and (x != y) is not same
            assert hash(x) == hash(x)
        assert hash(sa) == hash(sb)
        assert sa != Scene(scene_id="s", dt=0.5, agents=(make_agent("a", tb),))


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

    @pytest.mark.parametrize("shape", [(1, 2, 1), (3, 5, 2), (90, 91, 2), (40, 25, 1)])
    @pytest.mark.parametrize("factor", [2, 4, 7])
    def test_rows_c_ordered_and_equal_to_two_gathers(self, shape, factor):
        rng = np.random.default_rng(shape[0] * 31 + factor)
        values = rng.normal(scale=30.0, size=shape)
        lengths = rng.integers(2, shape[1] + 1, size=shape[0])
        rows = [values[b, :n] for b, n in enumerate(lengths.tolist())]
        out, new_lengths = resample_rows(np.concatenate(rows), lengths, factor)
        assert out.flags.c_contiguous
        # the two-gather formula of the padded kernel, on each row alone
        want = []
        for row in rows:
            t = len(row)
            u = np.arange((t - 1) * factor + 1) / factor
            i0 = np.minimum(u.astype(int), t - 2)
            frac = (u - i0)[:, None]
            w = row[i0] * (1.0 - frac) + row[i0 + 1] * frac
            w[::factor] = row
            want.append(w)
        assert out.tobytes() == np.concatenate(want).tobytes()
        assert np.array_equal(new_lengths, (lengths - 1) * factor + 1)

    def test_one_sample_rows_are_kept(self):
        """A row of one sample stays that sample, beside rows of more."""
        values = np.array([[1.0, -0.0], [2.0, 3.0], [4.0, 5.0], [-0.0, 7.0]])
        out, new_lengths = resample_rows(values, np.array([1, 2, 1]), 3)
        assert new_lengths.tolist() == [1, 4, 1]
        assert out[[0, 1, 4, 5]].tobytes() == values.tobytes()
        with pytest.raises(ShortTrajectory):
            resample_rows(values, np.array([0, 4]), 3)

    @pytest.mark.parametrize("lengths", [[9, 3], [4, 5], [11]])
    @pytest.mark.parametrize("kernel", ["resample_rows", "kinematics_rows"])
    def test_lengths_must_fill_the_stack(self, kernel, lengths):
        """Row lengths that do not sum to the stack's 10 samples describe
        rows the stack does not hold: refused with LengthMismatch."""
        xy = np.arange(20.0).reshape(10, 2)
        call = {"resample_rows": lambda: resample_rows(xy, np.array(lengths), 4),
                "kinematics_rows": lambda: kinematics_rows(xy, np.array(lengths), 0.1)}[kernel]
        with pytest.raises(LengthMismatch, match="row lengths sum to"):
            call()


class TestRowSamples:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_row_ranges(self, rows):
        """The gather of rows that start anywhere, overlap or repeat, rows of
        one sample and of none among them, is each row's own range of
        indices, row after row."""
        starts = np.array([a for a, _ in rows], dtype=int)
        lengths = np.array([n for _, n in rows], dtype=int)
        want = np.concatenate([np.arange(a, a + n) for a, n in rows] + [np.zeros(0, dtype=int)])
        got = row_samples(starts, lengths)
        assert got.dtype.kind == "i"
        assert got.tolist() == want.tolist()

    def test_empty_call_and_one_sample_rows(self):
        none = np.zeros(0, dtype=int)
        assert row_samples(none, none).shape == (0,)
        assert row_samples(np.array([7, 2, 7]), np.array([1, 1, 1])).tolist() == [7, 2, 7]


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


def sliced_common_window(a, b):
    """Reference: ``common_window`` as it was before it shared its window
    arithmetic with the filter's prune, slicing the window it counts."""
    t0 = max(a.t[0], b.t[0])
    t1 = min(a.t[-1], b.t[-1])
    if t1 < t0 - 1e-6:
        raise EmptyOverlap("no common observation window")
    ia = int(round((t0 - a.t[0]) / a.dt))
    ib = int(round((t0 - b.t[0]) / b.dt))
    count = int(round((t1 - t0) / a.dt)) + 1
    sa = a.slice_frames(ia, ia + count)
    sb = b.slice_frames(ib, ib + count)
    if sa.n != sb.n or not np.allclose(sa.t, sb.t, atol=1e-6, rtol=0):
        raise EmptyOverlap("agents are not sampled on a common time grid")
    return sa, sb, sa.t


def grid_traj(rng, dt, first, offset, n, jitter, dt_scale):
    """``n`` samples from frame ``first`` plus ``offset`` seconds, each step
    ``dt`` off by up to ``jitter`` seconds; the ``dt`` field is ``dt_scale``
    times the sampling period."""
    steps = dt + rng.uniform(-jitter, jitter, n - 1)
    t = first * dt + offset + np.concatenate([[0.0], np.cumsum(steps)])
    return Trajectory(t=t, xy=rng.normal(size=(n, 2)), dt=dt_scale * dt)


class TestCoObserved:
    """``common_window`` and the filter's prune decide windows with one
    routine, ``co_observed``; both must equal the sliced reference.

    Starts lie on the grid, half a frame off it or within ``atol`` of it.
    A ``dt`` field of twice the sampling period, which validation would
    refuse, shows that the window is counted in the first agent's ``dt``.
    An agent may hold a NaN timestamp at an inner sample.
    """

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           dt=st.sampled_from([0.1, 0.5]),
           firsts=st.lists(st.integers(min_value=0, max_value=12), min_size=3, max_size=3),
           offsets=st.lists(st.sampled_from(["grid", "half", "near"]), min_size=3, max_size=3),
           lengths=st.lists(st.integers(min_value=2, max_value=40), min_size=3, max_size=3),
           jitters=st.lists(st.sampled_from([0.0, 1e-7, 1e-6]), min_size=3, max_size=3),
           dt_scales=st.lists(st.sampled_from([1, 2]), min_size=3, max_size=3),
           nans=st.lists(st.sampled_from([False, False, False, True]), min_size=3,
                         max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_equals_sliced_reference(self, seed, dt, firsts, offsets, lengths, jitters,
                                     dt_scales, nans):
        rng = np.random.default_rng(seed)
        shift = {"grid": lambda: 0.0, "half": lambda: dt / 2.0,
                 "near": lambda: rng.uniform(-1e-6, 1e-6)}
        trajs = [grid_traj(rng, dt, *args) for args in zip(
            firsts, [shift[o]() for o in offsets], lengths, jitters, dt_scales)]
        for k, nan in enumerate(nans):
            if nan and trajs[k].n > 2:  # an inner sample: the reference reads both ends
                t = trajs[k].t.copy()
                t[rng.integers(1, trajs[k].n - 1)] = np.nan
                trajs[k] = Trajectory(t=t, xy=trajs[k].xy, dt=trajs[k].dt)
        expected = {}
        for i, j in itertools.permutations(range(3), 2):
            try:
                expected[i, j] = sliced_common_window(trajs[i], trajs[j])
            except EmptyOverlap:
                expected[i, j] = None
            if expected[i, j] is None:
                with pytest.raises(EmptyOverlap):
                    common_window(trajs[i], trajs[j])
            else:
                wa, wb, tw = common_window(trajs[i], trajs[j])
                sa, sb, ts = expected[i, j]
                for got, want in ((wa.t, sa.t), (wa.xy, sa.xy), (wb.t, sb.t), (wb.xy, sb.xy),
                                  (tw, ts)):
                    assert np.array_equal(got, want)
        # the prune's layout: every agent's times back to back, all others at once
        t = np.concatenate([tr.t for tr in trajs])
        start = np.concatenate([[0], np.cumsum(lengths)])
        dts = np.array([tr.dt for tr in trajs])
        for i in range(3):
            js = np.array([j for j in range(3) if j != i])
            ok, ia, ib, count = co_observed(t, start, dts, i, js)
            for k, j in enumerate(js):
                want = expected[i, j]
                assert ok[k] == (want is not None)
                if want is not None:
                    assert np.array_equal(trajs[i].t[int(ia[k]):int(ia[k] + count[k])], want[0].t)
                    assert np.array_equal(trajs[j].t[int(ib[k]):int(ib[k] + count[k])], want[1].t)
        # the filter's layout: every ordered pair at once, one i per pair,
        # equal to the one-i call pair by pair
        ii, jj = np.array(list(itertools.permutations(range(3), 2))).T
        every = co_observed(t, start, dts, ii, jj)
        for p, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
            one = co_observed(t, start, dts, i, np.array([j]))
            for vector, scalar in zip(every, one):
                assert np.array_equal(vector[p:p + 1], scalar, equal_nan=True)


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
        for bad in (4.0, True, False):
            with pytest.raises(ConfigError, match="interp_factor"):
                EvalConfig(interp_factor=bad)
        tr = straight_traj((0, 0), (4, 0), 5)
        assert resample_trajectory(tr, 4).n == 17
        for bad in (4.0, True, False):
            with pytest.raises(ConfigError, match="resample factor"):
                resample_trajectory(tr, bad)
            with pytest.raises(ConfigError, match="resample factor"):
                resample_rows(tr.xy, np.array([tr.n]), bad)

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
