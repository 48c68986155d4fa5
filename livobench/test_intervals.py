"""Tests of the benchmark's interval arithmetic and layer recorder.

Run from the repository root: ``python -m pytest livobench -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from intervals import Span, clip, clip_windows, intersect, layer_times, measure, union  # noqa: E402
from layers import Recorder  # noqa: E402


def test_union_merges_overlaps_and_touching_and_drops_empty():
    assert union([(5, 6), (0, 2), (1, 3), (3, 4), (7, 7)]) == [(0, 4), (5, 6)]
    assert measure(union([(0, 2), (1, 3)])) == 3


def test_intersect_of_disjoint_lists():
    assert intersect([(0, 4), (6, 10)], [(2, 7), (9, 12)]) == [(2, 4), (6, 7), (9, 10)]
    assert intersect([(0, 1)], [(1, 2)]) == []


def test_clip_cuts_and_drops():
    spans = [Span("a", None, 1, 0.0, 4.0), Span("b", None, 1, 5.0, 6.0)]
    assert clip(spans, 1.0, 3.0) == [Span("a", None, 1, 1.0, 3.0)]
    clipped = clip_windows(spans, [(0.0, 1.0), (5.5, 9.0)])
    assert [(s.layer, s.start, s.end) for s in clipped] == [("a", 0.0, 1.0), ("b", 5.5, 6.0)]


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("codec", None, 1, 0.0, 10.0),
        Span("entropy", "codec", 1, 1.0, 3.0),
        Span("entropy", "codec", 1, 2.0, 4.0),   # overlaps: counted once
        Span("transform", "codec", 1, 6.0, 7.0),
        Span("codec", None, 1, 12.0, 13.0),
    ]
    times = layer_times(spans)
    assert times["codec"] == {"busy": 11.0, "self": 7.0}
    assert times["entropy"] == {"busy": 3.0, "self": 3.0}
    assert sum(entry["self"] for entry in times.values()) == pytest.approx(11.0)


def test_threads_do_not_subtract_from_each_other():
    spans = [
        Span("http", None, 1, 0.0, 4.0),
        Span("registry", "http", 2, 1.0, 2.0),   # another thread's child
        Span("http", None, 2, 0.5, 3.0),
    ]
    times = layer_times(spans)
    assert times["http"]["busy"] == pytest.approx(6.5)
    assert times["http"]["self"] == pytest.approx(5.5)


def test_self_times_and_residual_add_up_to_the_window():
    spans = [
        Span("a", None, 1, 0.0, 5.0),
        Span("b", "a", 1, 1.0, 2.0),
        Span("c", "b", 1, 1.2, 1.5),
        Span("d", None, 1, 6.0, 9.0),
    ]
    window = (0.5, 8.0)
    times = layer_times(clip(spans, *window))
    residual = (window[1] - window[0]) - sum(entry["self"] for entry in times.values())
    assert residual == pytest.approx(1.0)  # the gap from 5.0 to 6.0
    assert times["a"]["self"] == pytest.approx(3.5)
    assert times["b"]["self"] == pytest.approx(0.7)


def test_recorder_keeps_one_span_per_outermost_call():
    recorder = Recorder()

    def inner(depth):
        return outer(depth - 1) if depth else "done"

    def leaf():
        return "leaf"

    outer = recorder.wrap("a", lambda depth: inner(depth))
    wrapped_leaf = recorder.wrap("b", leaf)
    assert outer(3) == "done"
    assert wrapped_leaf() == "leaf"
    assert [span.layer for span in recorder.spans] == ["a", "b"]

    nested = recorder.wrap("a", lambda: wrapped_leaf())
    nested()
    assert [(span.layer, span.parent) for span in recorder.spans[2:]] == [("b", "a"), ("a", None)]


def test_recorder_records_failed_calls_and_separates_threads():
    recorder = Recorder()

    def boom():
        raise ValueError("x")

    wrapped = recorder.wrap("a", boom)
    with pytest.raises(ValueError):
        wrapped()
    worker = threading.Thread(target=recorder.wrap("b", lambda: None))
    worker.start()
    worker.join(5)
    assert not worker.is_alive()
    assert [span.parent for span in recorder.spans] == [None, None]
    assert recorder.spans[0].thread != recorder.spans[1].thread
