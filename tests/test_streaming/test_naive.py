"""Naive (store-everything) oracle statistics and their memory growth —
the property Fig 15 relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.naive import NaiveStats

floats = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def test_empty_stats():
    n = NaiveStats()
    assert n.mean == 0.0
    assert n.variance == 0.0
    assert n.skewness == 0.0
    assert n.kurtosis == 0.0
    assert n.percentile(50) == 0.0
    assert n.state_bytes == 0


@given(st.lists(floats, min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_matches_numpy(values):
    n = NaiveStats()
    for v in values:
        n.update(v)
    arr = np.asarray(values)
    assert n.mean == pytest.approx(float(arr.mean()), rel=1e-9, abs=1e-9)
    assert n.variance == pytest.approx(float(arr.var()), rel=1e-9,
                                       abs=1e-9)
    assert n.percentile(50) == pytest.approx(
        float(np.percentile(arr, 50)))


def test_state_grows_linearly():
    n = NaiveStats()
    for i in range(1000):
        n.update(float(i))
    assert n.state_bytes == 8000


def test_constant_stream_higher_moments():
    n = NaiveStats()
    for _ in range(10):
        n.update(5.0)
    assert n.skewness == 0.0
    assert n.kurtosis == 0.0


def test_histogram_saturates_like_streaming():
    n = NaiveStats()
    for v in (-10.0, 5.0, 1e9):
        n.update(v)
    counts = n.histogram(10.0, 4)
    assert counts.tolist() == [2, 0, 0, 1]
