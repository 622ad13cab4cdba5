"""Fastest-of-k per deterministic segment, and the statistics built on it.

The same seeded work runs k times in one process.  Each repeat is cut
into the same sequence of segments at points where the work is
deterministic, so segment ``i`` of every repeat does identical work.  A
segment's host time is its minimum over the k repeats; every host-time
metric is computed from these minima.

A slow burst on a shared host inflates whichever segments it overlaps in
one repeat; as long as another repeat ran the same segment outside a
burst, the burst leaves no trace in the minimum.  The estimator
therefore reads the host's *uncontended* speed and is lower than any
single timed pass.  Both sides of a comparison carry that bias.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple


def segment_minima(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Per-segment minimum over repeats of equal segmentation."""
    if not repeats:
        raise ValueError("fastest-of-k needs at least one repeat")
    lengths = {len(r) for r in repeats}
    if len(lengths) != 1:
        raise ValueError(
            f"repeats cut into different segment counts: {sorted(lengths)}"
        )
    return [min(column) for column in zip(*repeats)]


def tail_percentile(n: int) -> int:
    """The highest whole percentile (≤ 99) with ≥ 10 samples beyond it.

    Needs at least 20 samples (the median is the floor).
    """
    if n < 20:
        raise ValueError(f"a tail percentile needs >= 20 samples, got {n}")
    return max(50, min(99, math.floor(100 * (1 - 10 / n))))


def percentile(data: Sequence[float], p: int) -> float:
    """Inclusive-interpolation percentile ``p`` in 1..99."""
    if len(data) < 2:
        raise ValueError("a percentile needs at least two samples")
    return statistics.quantiles(data, n=100, method="inclusive")[p - 1]


def latency_summary(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(median, tail value, tail percentile) of ``samples``."""
    p = tail_percentile(len(samples))
    return statistics.median(samples), percentile(samples, p), p
