"""The percentile-versus-sample-count rule."""

import pytest

from perfbench.stats import (beyond, median, percentile, quartile_spread,
                             reportable, tail)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p95_needs_ten_samples_beyond_it():
    # 200 samples: rank 190, ten above it
    assert beyond(200, 0.95) == 10
    assert reportable(200, 0.95)
    assert tail(list(range(200)), 0.95) == 189
    # 199 samples: rank 190 leaves only nine above it
    assert beyond(199, 0.95) == 9
    assert not reportable(199, 0.95)
    assert tail(list(range(199)), 0.95) is None


def test_median_always_reportable_with_enough_samples():
    assert reportable(21, 0.5)        # rank 11, ten above
    assert not reportable(19, 0.5)
    assert not reportable(0, 0.5)


def test_median_and_quartile_spread():
    assert median([]) == 0.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    values = [10.0] * 4 + [11.0] * 2 + [9.0] * 4
    q1, q3 = 9.0, 10.25   # statistics.quantiles(values, n=4), exclusive
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 10.0)
