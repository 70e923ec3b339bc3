"""The arithmetic every reported number goes through: percentiles and
the sample-count rule, span self times and the bound comparison.
``run.py --selftest`` checks each on synthetic input.
"""

from __future__ import annotations

import math
from collections import defaultdict

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, p):
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50.0)


def latency_percentile(values, p):
    """Harrell-Davis estimate of percentile ``p``: every order statistic
    weighted by a Beta((n+1)q, (n+1)(1-q)) density, i.e. an average over
    the few percent of samples around the rank.

    Client latencies on a keep-alive connection come in steps of one
    kernel timer tick (4 ms on a 250 Hz kernel: 48, 52, 56, 60 ms), so a
    single order statistic flips between two steps from run to run; the
    weighted average moves with the share of samples on each step."""
    from scipy.stats import beta

    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no samples")
    q = p / 100.0
    edges = beta.cdf([i / n for i in range(n + 1)], (n + 1) * q, (n + 1) * (1 - q))
    return sum(
        (edges[i + 1] - edges[i]) * value for i, value in enumerate(ordered)
    )


def supported_percentile(n):
    """The highest reportable percentile for ``n`` samples: the largest
    of :data:`PERCENTILES` with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * round((100.0 - p) * 10) >= 10 * 1000:  # in integers
            best = p
    return best


def self_times(spans):
    """Self time of each span: its duration minus the part its child
    spans cover.

    ``spans`` is a list of ``(name, parent_index, start, end)`` with
    ``parent_index`` ``None`` for a root.  Children of one parent run
    one after another on the parent's thread, so the part they cover is
    the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _name, parent, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return [
        (end - start) - covered[i]
        for i, (_name, _parent, start, end) in enumerate(spans)
    ]


def root_of(spans):
    """Index of each span's root (parents precede their children)."""
    roots = []
    for i, (_name, parent, _start, _end) in enumerate(spans):
        roots.append(i if parent is None else roots[parent])
    return roots


def self_time_by_root(spans):
    """``{root_index: {name: summed self time}}`` -- one entry per root
    span (one flush, one in-process call), its own self time included."""
    selfs = self_times(spans)
    by_root = {}
    for i, root in enumerate(root_of(spans)):
        by_root.setdefault(root, defaultdict(float))[spans[i][0]] += selfs[i]
    return by_root


def worse_by(better, baseline, value):
    """By what share of ``baseline`` is ``value`` worse (negative when
    it is better)?  ``better`` is ``"lower"`` or ``"higher"``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    if baseline == 0:
        return 0.0 if value == 0 else math.inf
    change = (value - baseline) / abs(baseline)
    return change if better == "lower" else -change

