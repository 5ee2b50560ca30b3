"""The traced mode's wrappers time the program without changing its path."""

import time

from perfbench import spans


class _Worker:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        return self.inner()

    def inner(self):
        time.sleep(0.001)
        return 7


def test_self_time_subtracts_enclosed_child_spans():
    recorder = spans.SpanRecorder()
    points = [
        spans.WrapPoint(_Worker, "outer", "outer"),
        spans.WrapPoint(_Worker, "inner", "inner"),
    ]
    with spans.installed(recorder, points):
        assert _Worker().outer() == 7
    assert recorder.names == ["outer", "inner", "inner"]
    assert recorder.parents == [-1, 0, 0]
    children = recorder.duration(1) + recorder.duration(2)
    assert recorder.self_time("outer", ["inner"]) == recorder.total("outer") - children
    assert recorder.top_level() == recorder.total("outer")


def test_installed_restores_the_originals():
    original = _Worker.__dict__["inner"]
    recorder = spans.SpanRecorder()
    try:
        with spans.installed(recorder, [spans.WrapPoint(_Worker, "inner", "inner")]):
            assert _Worker.__dict__["inner"] is not original
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert _Worker.__dict__["inner"] is original


def test_nested_repeats_count_once():
    recorder = spans.SpanRecorder()
    outer = recorder.begin("policies.decide")
    inner = recorder.begin("policies.decide")
    recorder.end(inner)
    recorder.end(outer)
    assert recorder.calls("policies.decide") == 1
    assert recorder.total("policies.decide") == recorder.duration(outer)


def test_policy_wrappers_keep_the_batched_decision_path():
    import repro.policies.registry  # noqa: F401  (registers every policy)
    from repro.simulator.engine import _batched_hook_consistent

    classes = [cls for cls in spans.policy_classes() if not getattr(cls, "__abstractmethods__", ())]
    before = {cls: _batched_hook_consistent(object.__new__(cls)) for cls in classes}
    with spans.installed(spans.SpanRecorder(), spans.policy_points()):
        during = {cls: _batched_hook_consistent(object.__new__(cls)) for cls in before}
    assert during == before
    assert any(before.values()) and not all(before.values())


def test_span_recorder_round_trips_through_json():
    recorder = spans.SpanRecorder()
    recorder.end(recorder.begin("a"))
    recorder.counters["a.bytes"] += 3
    copy = spans.SpanRecorder.from_json(recorder.to_json())
    assert copy.names == ["a"] and copy.counters["a.bytes"] == 3
    assert copy.total("a") == recorder.total("a")
