import statistics

import pytest

from stats import (quartile_spread, ratio_with_base, tail_percentile,
                   union_length)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99))) is None    # 9.9 beyond p90
    q, value = tail_percentile(list(range(100)))
    # linear interpolation between closest ranks: 0.9 * 99 = 89.1
    assert q == 90.0 and value == pytest.approx(89.1)
    q, value = tail_percentile([0.0, 10.0] * 5 + [20.0] * 90)
    assert q == 90.0 and value == 20.0
    assert tail_percentile(list(range(200)))[0] == 95.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10_000)))[0] == 99.9


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.7, 9.8, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / q2
    assert quartile_spread([2.0] * 10) == 0.0


def test_ratio_with_base_keeps_its_base():
    assert ratio_with_base(5, 6) == {"value": 5, "base": 6, "ratio": 5 / 6}
    assert ratio_with_base(0.5, 2.0)["ratio"] == 0.25
    assert ratio_with_base(1.0, 0.0)["ratio"] is None


def test_union_length_merges_and_clips():
    assert union_length([], 0.0, 1.0) == 0.0
    assert union_length([(0.1, 0.3), (0.2, 0.5)], 0.0, 1.0) == \
        pytest.approx(0.4)
    # back to back: no gap, no double count
    assert union_length([(0.0, 0.5), (0.5, 1.0)], 0.0, 1.0) == 1.0
    # clipped to the parent interval; an empty interval adds nothing
    assert union_length([(-1.0, 0.25), (0.75, 2.0), (0.4, 0.4)], 0.0, 1.0) \
        == 0.5
