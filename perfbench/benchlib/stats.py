"""Summary statistics shared by every workload.

Percentiles use the nearest-rank definition: the p-th percentile of n
samples is the value at 1-based rank ``ceil(p/100 * n)`` of the sorted
samples, so it is always one of the measured values.  A tail is only
reported where it is supported: at least ``MIN_BEYOND`` samples must lie
beyond the percentile's rank.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return max(1, math.ceil(p / 100.0 * n))


def samples_beyond(p: float, n: int) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``p``."""
    return n - rank(p, n)


def supports(p: float, n: int) -> bool:
    """True iff ``n`` samples support reporting percentile ``p``."""
    return n >= 1 and samples_beyond(p, n) >= MIN_BEYOND


def percentile(samples: Sequence[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[rank(p, len(ordered)) - 1]


def tail_summary(samples: Sequence[float], p: float) -> dict:
    """Median and the ``p`` tail of ``samples`` with the sample count
    and whether the count supports that tail."""
    n = len(samples)
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail_p": p,
        "tail": percentile(samples, p),
        "beyond_tail": samples_beyond(p, n),
        "tail_supported": supports(p, n),
    }
