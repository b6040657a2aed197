"""Span bookkeeping of the traced run."""

import pytest

import run
from tracing import Tracer, self_times


def test_self_time_on_hand_built_tree():
    # root [0, 100] holds a [10, 40] (which holds a1 [15, 25]) and b [50, 90]
    spans = [
        ["root", 0, 100, -1, "s"],
        ["a", 10, 40, 0, "s"],
        ["a1", 15, 25, 1, "s"],
        ["b", 50, 90, 0, "s"],
    ]
    assert self_times(spans) == [30, 20, 10, 40]


def test_wrapped_calls_nest_and_sum():
    tr = Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tr.wrap("leaf", leaf)

    def parent():
        return wrapped_leaf(1) + wrapped_leaf(2)

    tr.scene_id = "scene-0"
    assert tr.span("parent", parent) == 5
    names = [s[0] for s in tr.spans]
    assert names == ["parent", "leaf", "leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert {s[4] for s in tr.spans} == {"scene-0"}
    rows = tr.by_name()
    assert rows["leaf"]["calls"] == 2
    own = self_times(tr.spans)
    assert sum(own) == tr.spans[0][2] - tr.spans[0][1]
    assert rows["parent"]["self_s"] == pytest.approx(own[0] / 1e9)


def test_scale_applies_to_the_spans_since_its_index():
    tr = Tracer()
    tr.spans = [["a", 0, 10**9, -1, None], ["b", 0, 10**9, -1, None], ["b", 0, 10**9, -1, None]]
    tr.scale(1, 0.5)
    rows = tr.by_name()
    assert rows["a"]["self_s"] == pytest.approx(1.0)
    assert rows["b"]["self_s"] == pytest.approx(1.0)
    assert rows["b"]["incl_s"] == pytest.approx(1.0)


def test_span_closes_when_the_call_raises():
    tr = Tracer()
    errors = []

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom, on_error=lambda a, k, e: errors.append(e))()
    assert tr.spans[0][2] >= tr.spans[0][1] > 0
    assert len(errors) == 1
    assert tr.span("after", lambda: 1) == 1
    assert tr.spans[1][3] == -1


def test_install_and_uninstall_restore_the_program():
    from interaction_eval import pipeline, rollout
    from interaction_eval.rollout import PathRollout

    before = (pipeline.evaluate_scene, rollout.is_collision, PathRollout.roll)
    tr = Tracer()
    tr.install()
    assert pipeline.evaluate_scene is not before[0]
    tr.uninstall()
    assert (pipeline.evaluate_scene, rollout.is_collision, PathRollout.roll) == before


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(19) is None  # scenes, not samples
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(100) == 90.0


def test_harrell_davis_percentile():
    ranks = [float(k) for k in range(40, 0, -1)]
    assert run.percentile(ranks, 50.0) == pytest.approx(20.5)  # symmetric: the middle
    assert 30.0 < run.percentile(ranks, 75.0) < 31.0
    assert run.percentile([2.0] * 7, 75.0) == pytest.approx(2.0)
