"""Summary statistics used by every benchmark report.

Timings follow one rule: report the median plus the highest percentile
that still has at least ten samples beyond it, together with the sample
count. A span's self time is its own time minus that of its child spans.
"""

from __future__ import annotations

import math

# Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of unsorted values (0 <= p <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported(n: int, p: float) -> bool:
    """True when percentile p of n samples has at least ten samples beyond it."""
    return round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile that n samples support, or None."""
    for p in TAIL_CANDIDATES:
        if supported(n, p):
            return p
    return None


def timing_summary(values) -> dict:
    """{"n", "p50", "tail_p", "tail"} for one timing sample; empty -> zeros."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_p": None, "tail": 0.0}
    tail_p = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(xs, 50.0),
        "tail_p": tail_p,
        "tail": percentile(xs, tail_p) if tail_p is not None else float(xs[-1]),
    }


def child_totals(parents, values) -> list:
    """Per span: the sum of ``values`` over its direct children."""
    out = [0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] += values[i]
    return out


def self_values(parents, values) -> list:
    """Per span: its value minus the values of its direct children."""
    return [v - c for v, c in zip(values, child_totals(parents, values))]
