"""Metrics used throughout the paper's evaluation."""

from __future__ import annotations

import numpy as np


def q_error(true_value, estimate):
    """The factor by which an estimate differs from the truth (>= 1).

    Both values are clamped to >= 1, the convention of the cardinality
    estimation literature (and the paper): only relative differences
    matter for optimizer decisions.
    """
    true_value = max(float(true_value), 1.0)
    estimate = max(float(estimate), 1.0)
    return max(true_value / estimate, estimate / true_value)


def q_errors(true_values, estimates):
    """Vectorized :func:`q_error` over a workload (1-D float array).

    Same clamping convention as the scalar form; used by
    :func:`q_error_summary` so a workload is judged with exactly the
    metric the paper reports.
    """
    true_values = np.maximum(np.asarray(true_values, dtype=float), 1.0)
    estimates = np.maximum(np.asarray(estimates, dtype=float), 1.0)
    return np.maximum(true_values / estimates, estimates / true_values)


def q_error_summary(true_values, estimates):
    """Median/p95/max (and mean) q-error over a workload, plus count."""
    errors = q_errors(true_values, estimates)
    if errors.size == 0:
        return {"count": 0, "median": float("nan"), "p95": float("nan"),
                "max": float("nan"), "mean": float("nan")}
    return {
        "count": int(errors.size),
        "median": float(np.median(errors)),
        "p95": float(np.percentile(errors, 95)),
        "max": float(errors.max()),
        "mean": float(errors.mean()),
    }


def relative_error(true_value, estimate):
    """``|true - est| / |true|``; ``est=None`` (no result) counts as 100%."""
    if true_value is None:
        return 0.0
    if estimate is None:
        return 1.0
    true_value = float(true_value)
    if true_value == 0.0:
        return 0.0 if float(estimate) == 0.0 else 1.0
    return abs(true_value - float(estimate)) / abs(true_value)


def average_relative_error(true_groups, estimated_groups):
    """Per-group relative error averaged over the *true* groups.

    Matches the paper's group-by evaluation: every true group missing
    from the estimate contributes an error of 100%.
    """
    if not isinstance(true_groups, dict):
        return relative_error(true_groups, estimated_groups)
    if not true_groups:
        return 0.0
    estimated_groups = estimated_groups or {}
    errors = [
        relative_error(value, estimated_groups.get(key))
        for key, value in true_groups.items()
        if value is not None
    ]
    return float(np.mean(errors)) if errors else 0.0


def percentiles(values, points=(50, 90, 95, 100)):
    """Named percentiles of a sample (100 = max), as an ordered dict."""
    values = np.asarray(list(values), dtype=float)
    labels = {50: "median", 90: "90th", 95: "95th", 100: "max"}
    out = {}
    for point in points:
        label = labels.get(point, f"p{point}")
        out[label] = float(np.percentile(values, point)) if values.size else float("nan")
    return out


def rmse(true_values, predictions):
    """Root mean squared error."""
    true_values = np.asarray(true_values, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    return float(np.sqrt(np.mean((true_values - predictions) ** 2)))
