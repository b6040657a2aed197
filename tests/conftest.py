import numpy as np
import pytest

from interaction_eval import Agent, EvalConfig, Scene, Trajectory, validate_scene

DT = 0.5


def straight_traj(start, vel, n, t0=0.0, dt=DT):
    t = t0 + dt * np.arange(n)
    xy = np.asarray(start, dtype=float) + np.outer(dt * np.arange(n), vel)
    return Trajectory(t=t, xy=xy, dt=dt)


def make_agent(aid, traj, width=2.0, length=4.5):
    return Agent(id=aid, width=width, length=length, trajectory=traj)


def crossing_scene(v_a=6.0, v_b=6.0, gap_a=40.0, gap_b=52.0, n=30, dt=DT,
                   scene_id="crossing"):
    """A eastbound through the origin, B northbound arriving later."""
    a = make_agent("a", straight_traj((-gap_a, 0.0), (v_a, 0.0), n, dt=dt))
    b = make_agent("b", straight_traj((0.0, -gap_b), (0.0, v_b), n, dt=dt))
    return validate_scene(Scene(scene_id=scene_id, dt=dt, agents=(a, b)))


def circle_traj(radius, omega, n, dt=DT, t0=0.0):
    th = omega * dt * np.arange(n)
    xy = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    return Trajectory(t=t0 + dt * np.arange(n), xy=xy, dt=dt)


@pytest.fixture
def cfg():
    return EvalConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def four_agent_scene(scene_id="four"):
    """a-b the canonical crossing; c-d a symmetric crossing 500 m east, which
    never collapses. The four cross pairs never share a path."""
    base = crossing_scene()
    c = make_agent("c", straight_traj((460.0, 0.0), (6.0, 0.0), 30))
    d = make_agent("d", straight_traj((500.0, -40.0), (0.0, 6.0), 30))
    return validate_scene(Scene(scene_id=scene_id, dt=DT, agents=base.agents + (c, d)))
