"""Summaries the benchmark reports: percentiles with their sample rule,
failure-as-miss latency samples, and span self time."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; below that, one slow sample would decide it.
MIN_BEYOND = 10

MISS = math.inf  # the latency sample of a failed request


def percentile(samples, q):
    """The nearest-rank q-th percentile (0 < q < 100) of `samples`, or
    None when fewer than MIN_BEYOND samples lie beyond it. A MISS sample
    counts as slower than every measured one."""
    n = len(samples)
    if n == 0:
        return None
    rank = math.ceil(q / 100.0 * n)  # 1-based
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def latency_summary(samples, quantiles=(50, 95, 99)):
    """{"p50": value or None, ..., "n": count} over latency samples, where
    failed requests are MISS samples. A percentile that lands on a MISS
    is reported as None: it has no finite value."""
    out = {"n": len(samples)}
    for q in quantiles:
        v = percentile(samples, q)
        out[f"p{q}"] = None if v is None or math.isinf(v) else v
    return out


def median(values):
    return statistics.median(values) if values else None


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that the union of its children covers (clipped to the
    span, so overlapping or overhanging children are counted once).
    Returns {span id: self time} in the spans' time unit."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = union_length(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(s["id"], [])
            if c["end_ns"] > start and c["start_ns"] < end
        )
        out[s["id"]] = (end - start) - covered
    return out
