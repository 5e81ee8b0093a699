"""Summary statistics shared by the workloads and the compare tool."""

from __future__ import annotations

import statistics

import numpy as np


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def median(values) -> float:
    return percentile(values, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
