"""Arithmetic shared by the benchmark runs: order statistics, point-seed
counting, span self time and the `-X importtime` breakdown.

Everything here is pure so that `test_measure.py` can pin it down.
"""

from __future__ import annotations

import math
import re
import statistics

# Percentiles tried for the tail, highest first.  A percentile is reported
# only when at least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def nearest_rank(values, pct: float) -> tuple[int, float]:
    """(rank, value) of the nearest-rank percentile; rank counts from 1."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return rank, float(ordered[rank - 1])


def tail_percentile(values, ladder=TAIL_LADDER,
                    min_beyond: int = TAIL_MIN_BEYOND):
    """Highest percentile of `ladder` with >= min_beyond samples above it.

    Returns (pct, value, n_beyond), or None when no percentile on the
    ladder has enough samples beyond it.
    """
    values = list(values)
    for pct in sorted(ladder, reverse=True):
        if not values:
            break
        rank, value = nearest_rank(values, pct)
        beyond = len(values) - rank
        if beyond >= min_beyond:
            return pct, value, beyond
    return None


def point_seeds(invocations) -> int:
    """Sum of points x seeds over (points, seeds) pairs."""
    total = 0
    for points, seeds in invocations:
        if points < 0 or seeds < 0:
            raise ValueError("points and seeds must be non-negative")
        total += points * seeds
    return total


def covered_length(intervals, lo: float | None = None,
                   hi: float | None = None) -> float:
    """Length of the union of [start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(children, start, end)


def extend_cover(cover, start: float, end: float) -> None:
    """Online form of covered_length: add [start, end) to cover.

    cover is [covered, end of the union so far], and intervals must arrive
    in start order.  Child spans of one thread close in start order, so the
    tracer keeps one cover per open span instead of a list of intervals.
    """
    if start < cover[1]:
        start = cover[1]
    if end > start:
        cover[0] += end - start
        cover[1] = end


_IMPORTTIME = re.compile(
    r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(text: str):
    """Tree of `-X importtime` entries as (name, cumulative_s, children).

    The interpreter prints each module after its children, indented two
    spaces per nesting level.
    """
    stack = []   # (depth, node)
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        node = (m.group(4), int(m.group(2)) * 1e-6, [])
        while stack and stack[-1][0] > depth:
            node[2].insert(0, stack.pop()[1])
        stack.append((depth, node))
    return [node for _depth, node in stack]


def import_seconds(roots, prefix: str) -> float:
    """Cumulative import time of the outermost entries named `prefix[.*]`."""
    total = 0.0
    todo = list(roots)
    while todo:
        name, cumulative, children = todo.pop()
        if name == prefix or name.startswith(prefix + "."):
            total += cumulative
        else:
            todo.extend(children)
    return total
