"""Interval arithmetic behind the per-layer breakdown.

A traced run records one ``Span`` per outermost call into a layer:
the layer, the layer that was innermost on the same thread when the
call began (its parent), the thread, and the start and end times in
``time.perf_counter`` seconds.  Everything here is pure so the tests
can pin it down.

A layer's *busy* time is the union of its spans; its *self* time is
busy minus the part its direct children cover.  Children are spans on
the same thread whose parent is this layer, so threads never subtract
from each other.  Spans are clipped to the measurement window first,
so set-up and teardown work outside it counts for nothing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    layer: str
    parent: str | None
    thread: int
    start: float
    end: float


def union(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint cover of ``(start, end)`` pairs; empty ones dropped."""
    out: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(start, end) for start, end in out]


def measure(intervals) -> float:
    """Total length of a union (disjoint input)."""
    return sum(end - start for start, end in intervals)


def intersect(a, b) -> list[tuple[float, float]]:
    """Intersection of two disjoint, sorted interval lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def clip(spans, lo: float, hi: float) -> list[Span]:
    """Spans cut to ``[lo, hi]``; spans wholly outside are dropped."""
    out = []
    for span in spans:
        start, end = max(span.start, lo), min(span.end, hi)
        if start < end:
            out.append(span._replace(start=start, end=end))
    return out


def clip_windows(spans, windows) -> list[Span]:
    """Spans cut to a set of disjoint ``(lo, hi)`` windows."""
    out = []
    for lo, hi in windows:
        out.extend(clip(spans, lo, hi))
    return out


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per layer: ``busy`` (union) and ``self`` (busy minus children), seconds.

    Both are summed over threads.  A layer that appears only as a
    parent still gets an entry.
    """
    own: dict[tuple[str, int], list] = defaultdict(list)
    children: dict[tuple[str, int], list] = defaultdict(list)
    for span in spans:
        own[(span.layer, span.thread)].append((span.start, span.end))
        if span.parent is not None:
            children[(span.parent, span.thread)].append((span.start, span.end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy": 0.0, "self": 0.0})
    for (layer, thread), intervals in own.items():
        busy = union(intervals)
        covered = intersect(busy, union(children.get((layer, thread), ())))
        entry = out[layer]
        entry["busy"] += measure(busy)
        entry["self"] += measure(busy) - measure(covered)
    return dict(out)
