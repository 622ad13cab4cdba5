"""The fastest-of-k estimator on synthetic timings."""

import pytest

from perfbench.estimator import (
    latency_summary,
    percentile,
    segment_minima,
    tail_percentile,
)


def test_minimum_per_segment_ignores_a_slow_burst():
    fast = [0.10, 0.20, 0.30, 0.40]
    # Repeat 1 hits a slow burst over its middle two segments; repeat 2
    # over its last one.  Every segment ran fast at least once.
    burst = [0.10, 0.35, 0.52, 0.40]
    late = [0.11, 0.20, 0.30, 0.71]
    minima = segment_minima([burst, fast, late])
    assert minima == fast
    assert sum(minima) == pytest.approx(1.0)
    # Any single pass reads slower than the estimator.
    assert all(sum(r) > sum(minima) for r in (burst, late))


def test_minimum_is_taken_per_segment_not_per_repeat():
    # No repeat is fastest everywhere: the estimate beats every repeat.
    a = [1.0, 2.0, 1.0]
    b = [2.0, 1.0, 2.0]
    assert segment_minima([a, b]) == [1.0, 1.0, 1.0]


def test_single_repeat_is_its_own_minimum():
    assert segment_minima([[0.5, 0.25]]) == [0.5, 0.25]


def test_unequal_segmentation_is_refused():
    with pytest.raises(ValueError, match="different segment counts"):
        segment_minima([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        segment_minima([])


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50), (41, 75), (100, 90), (999, 98), (1000, 99), (50_000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    assert n * (1 - p / 100) >= 10 - 1e-9


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_latency_summary_on_known_data():
    samples = [float(v) for v in range(1, 101)]
    median, tail, p = latency_summary(samples)
    assert median == 50.5
    assert p == 90
    assert tail == pytest.approx(percentile(samples, 90))
    assert tail == pytest.approx(90.1)
