import pytest

from perfbench import orderstats


def test_median_of_odd_and_even_counts():
    assert orderstats.median([3.0, 1.0, 2.0]) == 2.0
    assert orderstats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_median_rejects_no_samples():
    with pytest.raises(ValueError):
        orderstats.median([])


def test_percentile_is_a_measured_sample():
    values = [float(v) for v in range(1, 101)]
    assert orderstats.percentile(values, 50) == 50.0
    assert orderstats.percentile(values, 99) == 99.0
    assert orderstats.percentile(values, 100) == 100.0
    assert orderstats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("pct", [0, -1, 101])
def test_percentile_rejects_out_of_range(pct):
    with pytest.raises(ValueError):
        orderstats.percentile([1.0, 2.0], pct)


@pytest.mark.parametrize(
    ("count", "expected"), [(11, 100 / 11), (20, 50.0), (100, 90.0), (1000, 99.0)]
)
def test_tail_rank_leaves_ten_samples_beyond(count, expected):
    assert orderstats.tail_rank(count) == pytest.approx(expected)


@pytest.mark.parametrize("count", [0, 1, 10])
def test_tail_rank_needs_more_than_ten_samples(count):
    assert orderstats.tail_rank(count) is None


@pytest.mark.parametrize("count", [11, 57, 1000, 12345])
def test_tail_value_has_exactly_ten_larger_samples(count):
    values = [float(v) for v in range(count)]
    pct, value = orderstats.tail(values)
    assert sum(1 for v in values if v > value) == orderstats.TAIL_SAMPLES
    assert orderstats.percentile(values, pct) == value


def test_tail_of_too_few_samples_is_none():
    assert orderstats.tail([1.0] * 10) is None

