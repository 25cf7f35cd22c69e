"""The benchmark's own arithmetic: medians, tails, geometric means, span
self times and the error rate. Kept free of I/O so test_bench.py can pin
every rule down."""

import math
import statistics

# A tail needs this many samples beyond it before it is reported as a
# percentile; with fewer samples the tail is the maximum.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample_count). With n samples that is the
    (TAIL_BEYOND + 1)-th largest, at percentile 100 * (n - TAIL_BEYOND) / n.
    Below TAIL_BEYOND + 1 samples no percentile has enough samples beyond
    it; the maximum is returned and stated as percentile 100.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def geomean(values):
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def covered(interval, children):
    """Length of the part of `interval` that the union of `children` covers.

    Intervals are (start, end) pairs; children are clipped to the parent,
    so overlapping or overhanging children are never counted twice.
    """
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    `spans` is a list of dicts with keys start, end and parent (the index of
    the parent span, or -1). Returns a list of self times, index-aligned.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered((s["start"], s["end"]), children[i])
        for i, s in enumerate(spans)
    ]


def error_rate(attempted, failed):
    if attempted <= 0:
        raise ValueError("error rate of no attempts")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def quartile_spread(values):
    """Inter-quartile distance as a share of the median (the steadiness
    measure used when tuning the benchmark)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
