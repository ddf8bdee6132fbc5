"""Batch kernels vs the per-value recurrence, bit for bit.

``FixedWidthHistogram.update_many`` and ``StreamingMoments.update_many``
are what the columnar engine path calls instead of one ``update`` per
cell; the engine's equivalence gate assumes they are *exact* twins — the
same state after any slice, however the stream is split into slices.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.histogram import FixedWidthHistogram
from repro.streaming.moments import StreamingMoments

# Negatives, values far outside any histogram range, ints and floats.
numbers = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(min_value=-1e15, max_value=1e15,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=-50.0, max_value=400.0,
              allow_nan=False, allow_infinity=False),
)
streams = st.lists(numbers, max_size=60)
shapes = st.tuples(
    st.one_of(st.integers(min_value=1, max_value=1000),
              st.floats(min_value=1e-3, max_value=1e6,
                        allow_nan=False, allow_infinity=False)),  # width
    st.integers(min_value=1, max_value=40),                       # n_bins
    st.one_of(st.just(0.0), st.integers(-500, 500),
              st.floats(min_value=-1e4, max_value=1e4,
                        allow_nan=False, allow_infinity=False)))  # origin


def hist_state(h):
    return h.counts.tolist(), h.total, h.counts.dtype


def moments_state(m):
    # Bit patterns, so -0.0 vs 0.0 or a last-ulp drift cannot hide.
    return (m.n, *(np.float64(v).tobytes()
                   for v in (m.mean, m.m2, m.m3, m.m4)))


def split(values, cuts):
    """``values`` cut at the (sorted, clamped) split points — empty and
    length-1 slices included."""
    edges = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
    return [values[a:b] for a, b in zip(edges, edges[1:])]


@given(shape=shapes, values=streams,
       cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
       as_tuple=st.booleans())
@settings(max_examples=300, deadline=None)
def test_histogram_update_many_is_sequential_update(shape, values, cuts,
                                                    as_tuple):
    sequential = FixedWidthHistogram(*shape)
    for x in values:
        sequential.update(x)
    batched = FixedWidthHistogram(*shape)
    for piece in split(values, cuts):
        batched.update_many(tuple(piece) if as_tuple else piece)
    assert hist_state(batched) == hist_state(sequential)
    assert batched.cdf().tobytes() == sequential.cdf().tobytes()
    for q in (0, 10, 50, 90, 100):
        assert batched.percentile(q) == sequential.percentile(q)


def test_histogram_update_many_edges():
    h = FixedWidthHistogram(10, 4, origin=5)
    h.update_many([])
    assert (h.total, h.counts.tolist()) == (0, [0, 0, 0, 0])
    h.update_many([4.999])                    # below origin -> first bin
    h.update_many((15,))                      # exactly on an edge
    h.update_many([1e300, -1e300, 2**80])     # far out of range
    assert h.counts.tolist() == [2, 1, 0, 2] and h.total == 5


def test_histogram_percentile_memo_tracks_updates():
    """The CDF memo behind ``percentile`` must never serve a stale
    distribution, whichever method moved the counts."""
    h = FixedWidthHistogram(1.0, 10)
    h.update_many([0.5] * 9)
    assert h.percentile(50) == 1.0
    h.update_many([8.5] * 90)
    assert h.percentile(50) == 9.0
    h.update(9.5)
    other = FixedWidthHistogram(1.0, 10)
    other.update_many([2.5] * 900)
    h.merge(other)
    assert h.percentile(50) == 3.0


@given(values=streams,
       cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4))
@settings(max_examples=300, deadline=None)
def test_moments_update_many_is_sequential_update(values, cuts):
    sequential = StreamingMoments()
    for x in values:
        sequential.update(x)
    batched = StreamingMoments()
    for piece in split(values, cuts):
        batched.update_many(piece)
    # Identical state bits => identical skewness/kurtosis.
    assert moments_state(batched) == moments_state(sequential)
