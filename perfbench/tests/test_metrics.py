"""Metric arithmetic: medians, the percentile sample rule and span self time."""

import pytest

from metrics import median, metric, min_samples_for, percentile
from spans import Tracer, covered


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples_for(50) == 20
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(20)), 50) == 9.5
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_percentile_interpolates_between_order_statistics():
    samples = [float(v) for v in range(101)]  # 0..100: the q-th percentile is q
    for q in (50, 75, 90):
        assert percentile(samples[::-1], q) == pytest.approx(q)


def test_metric_rejects_non_finite_values():
    assert metric(1, "s") == {"value": 1.0, "unit": "s"}
    with pytest.raises(ValueError):
        metric(float("nan"), "s")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("serve.pump"):
        clock.now += 1.0
        with tr.span("runtime.residual"):
            clock.now += 2.0
            with tr.span("sparse.matvec"):
                clock.now += 1.5
        clock.now += 0.5
        with tr.span("sparse.matvec"):
            clock.now += 3.0
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert tr.durations("sparse.matvec") == [1.5, 3.0]
    assert tr.count("sparse.matvec") == 2
    assert tr.self_times() == pytest.approx({"serve": 1.5, "runtime": 2.0, "sparse": 4.5})
    total = sum(tr.self_times().values())
    assert total == pytest.approx(tr.spans[0].duration)


def test_covered_merges_overlapping_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, [(-5.0, 2.0), (9.0, 15.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == pytest.approx(7.0)
