"""Native segment folds against the per-value ``update`` loop.

Every fold declared through ``declare_columnar_kernel(..., fold=)`` must
leave each group with the bits a loop of ``update(value)`` calls (maps:
``apply``) followed by ``finalize()`` produces — whatever the
segmentation, across blocks (rows gathered, folded, scattered back), on
both sides of the rank-step cut-over, with skipped cells, float values
and inputs outside the range a fold's arithmetic is exact in, where the
fold must step aside (the caller moves the rows to an object column)
rather than wrap an int64: same bits or the same exception type.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps  # noqa: F401  (registers the extension functions)
from repro.core.functions import (
    COLUMNAR_KERNELS,
    SHARED_ACCUMULATORS,
    ExecContext,
    make_map_fn,
    make_reduce_fn,
)
from repro.nicsim.engine import MemberView
from repro.streaming import folds
from repro.streaming.folds import ObjectFold, ObjectMap, Segments, as_column

HW, SW = ExecContext(division_free=True), ExecContext()
N_GROUPS = 5

REDUCERS = ["f_sum", "f_min", "f_max", "f_mean", "f_var", "f_std",
            "f_skew", "f_kur", "ft_hist{7, 6}", "f_pdf{7, 6}",
            "f_cdf{7, 6}", "ft_percent{50, 7, 6}", "ft_percent{90, 7, 6}"]
#: ``f_ingress_only`` declares a kernel but no fold: the object column.
MAPS = ["f_one", "f_identity", "f_direction", "f_ipt", "f_speed",
        "f_burst", "f_ingress_only"]

small_ints = st.integers(-2_000, 2_000)
floats = st.floats(-1e6, 1e6, allow_nan=False)
any_floats = st.floats(allow_nan=True, allow_infinity=True)
huge_ints = st.one_of(st.integers(1 << 62, 1 << 70),
                      st.integers(-(1 << 70), -(1 << 62)))


def blocks_of(values, skips: bool = False):
    """Two blocks of (group, value) cells in stream order."""
    value = st.one_of(st.none(), values) if skips else values
    block = st.lists(st.tuples(st.integers(0, N_GROUPS - 1), value),
                     min_size=1, max_size=40)
    return st.lists(block, min_size=2, max_size=2)


def sorted_block(block):
    """A block as the engine hands it to a fold: cells stably sorted by
    group in first-appearance order."""
    order: dict = {}
    for group, _value in block:
        order.setdefault(group, len(order))
    cells = sorted(block, key=lambda cell: order[cell[0]])
    lens = np.bincount([order[g] for g, _v in block])
    return (Segments(np.array(list(order), np.intp), lens),
            [value for _g, value in cells])


def bits(value) -> bytes:
    """A feature's bits, all NaNs alike: which of two NaN operands an
    addition hands on (sign, payload) depends on operand order, which
    IEEE 754 leaves to the implementation — ``sum()`` already differs
    from a ``+=`` loop there."""
    value = np.asarray(value, dtype=np.float64)
    return np.where(np.isnan(value), np.nan, value).tobytes()


def expect(fn):
    """``fn()``'s result, or the type of the exception it raises.
    ``int(nan)`` (ValueError) and ``int(inf)`` (OverflowError) count as
    one: with both in a block, which comes first depends on whether
    cells are walked in stream order or group by group — the block path
    has always done the latter."""
    try:
        return fn()
    except (ValueError, OverflowError):
        return ValueError
    except (ZeroDivisionError, TypeError) as exc:
        return type(exc)


def folded(spec, ctx, blocks):
    """Every group's final feature through the spec's declared fold,
    moving to an object column when the fold steps aside."""
    probe = make_reduce_fn(spec, ctx)
    attr = SHARED_ACCUMULATORS.get(type(probe))

    def holder(fn):
        return getattr(fn, attr) if attr else fn

    factory, stat = COLUMNAR_KERNELS[type(probe)][4]
    fold = factory(holder(make_reduce_fn(spec, ctx)))
    fold.grow(N_GROUPS)
    for block in blocks:
        seg, cells = sorted_block(block)
        values, valid = as_column(cells)
        if valid is not None:
            seg, values = seg.select(valid), values[valid]
            if not seg.n:
                continue
        if not fold.update(seg, values, None):
            assert not isinstance(fold, ObjectFold)
            objects = ObjectFold(lambda: make_reduce_fn(spec, ctx), attr)
            objects.grow(N_GROUPS)
            objects.clear(range(N_GROUPS))
            for row in range(N_GROUPS):
                fold.export(row, holder(objects.col[row]))
            fold = objects
            assert fold.update(seg, values, None)
    out = fold.stat(stat, np.arange(N_GROUPS), probe)
    return [bits(v) for v in out]


def looped(spec, ctx, blocks):
    reducers = [make_reduce_fn(spec, ctx) for _ in range(N_GROUPS)]
    for block in blocks:
        for group, value in block:
            if value is not None:
                reducers[group].update(value, None)
    return [bits(r.finalize()) for r in reducers]


def check(spec, ctx, blocks):
    want = expect(lambda: looped(spec, ctx, blocks))
    assert expect(lambda: folded(spec, ctx, blocks)) == want
    return want


#: What a value column can hold: ints with skipped cells (a first
#: packet's ``f_ipt``), floats (order-sensitive sums; ``int(x)``
#: truncation into the division-free recurrence), ints no int64 holds,
#: NaN / inf, where the scalar code may raise (``int(nan)``), and ints
#: beside floats (no single dtype holds both exactly).
columns = st.one_of(
    blocks_of(small_ints, skips=True), blocks_of(floats),
    blocks_of(st.one_of(small_ints, huge_ints)), blocks_of(any_floats),
    blocks_of(st.one_of(small_ints, floats)))


@pytest.mark.parametrize("spec", REDUCERS)
@settings(max_examples=40, deadline=None)
@given(blocks=columns, ctx=st.sampled_from([HW, SW]),
       cutover=st.sampled_from([1, 10 ** 9]))
def test_fold_equals_update_loop(spec, blocks, ctx, cutover):
    """Both sides of the cut-over: all rank steps, all scalar tails."""
    with mock.patch.object(folds, "CUTOVER", cutover):
        check(spec, ctx, blocks)


def test_float_sum_is_a_left_fold():
    """A case pairwise addition (``np.add.reduceat``) gets wrong."""
    values = [1e16, 1.0, -1e16, 1.0] * 40
    assert sum(values[1:], values[0]) != float(
        np.add.reduceat(np.array(values), [0])[0])
    with mock.patch.object(folds, "CUTOVER", 0):
        check("f_sum", SW, [[(g, v) for v in values for g in (0, 1)],
                            [(1, 2.5)]])


def test_mixed_types_across_blocks_step_aside():
    """An int block after a float one (or the reverse) changes the
    Python type ``f_sum`` holds: the fold must not coerce."""
    blocks = [[(0, 1 << 60), (1, 3)], [(0, 0.5), (1, 1 << 60)]]
    for spec in ("f_sum", "f_min", "f_max"):
        check(spec, SW, blocks)
        check(spec, SW, blocks[::-1])


def test_column_dtype_comes_from_the_python_types():
    """numpy alone would round these into float64 and the native folds
    would run on the rounded values."""
    for items in ([(1 << 63) + 1, 3], [(1 << 53) + 1, 0.5], [1, None, 2.0]):
        assert as_column(items)[0].dtype == object
    check("f_sum", SW, [[(0, (1 << 53) + 1), (0, 1), (0, 0.0)], [(0, 2)]])
    check("f_mean", HW, [[(0, (1 << 63) + 1), (0, 3)], [(1, -4)]])


def test_histogram_steps_aside_before_an_int_origin_can_wrap():
    """``values - origin`` on int64 wraps past ±2^63 where the scalar
    ``int((x - origin) // width)`` does not."""
    from repro.streaming.histogram import FixedWidthHistogram
    fold = folds.HistogramFold(FixedWidthHistogram(7, 6, origin=5))
    fold.grow(1)
    seg = Segments(np.array([0], np.intp), np.array([3]))
    values = np.array([-(1 << 63), 3, (1 << 63) - 1], np.int64)
    assert not fold.update(seg, values, None)
    assert not fold.counts.any() and not fold.total.any()
    assert fold.update(seg, np.array([-9, 3, 400], np.int64), None)
    assert fold.counts[0].tolist() == [2, 0, 0, 0, 0, 1]


# -- mapping folds -----------------------------------------------------------

cells_of = st.lists(
    st.tuples(st.integers(0, N_GROUPS - 1), small_ints,
              st.integers(0, 10 ** 6), st.sampled_from([1, -1])),
    min_size=1, max_size=40)


def mapped_by_fold(spec, blocks):
    probe = make_map_fn(spec, HW)
    kernel, _reads, _none, _stat, fold = COLUMNAR_KERNELS[type(probe)]

    def object_map(native=None):
        objects = ObjectMap(lambda: make_map_fn(spec, HW), kernel)
        objects.grow(N_GROUPS)
        objects.clear(range(N_GROUPS))
        for row in range(N_GROUPS if native else 0):
            native.export(row, objects.col[row])
        return objects

    fold = fold(probe) if fold else object_map()
    fold.grow(N_GROUPS)
    out = []
    for block in blocks:
        seg, cells = sorted_block([(g, (g, *rest)) for g, *rest in block])
        src, ts, dirs = (as_column([c[i] for c in cells])[0]
                         for i in (1, 2, 3))
        got = fold.apply(seg, src, ts, dirs)
        if not got:
            fold = object_map(fold)
            got = fold.apply(seg, src, ts, dirs)
        values, valid = got
        valid = [True] * seg.n if valid is None else valid.tolist()
        out.append([(c[0], v if ok else None) for c, v, ok
                    in zip(cells, values.tolist(), valid)])
    return out


def mapped_by_loop(spec, blocks):
    fns = [make_map_fn(spec, HW) for _ in range(N_GROUPS)]
    out = []
    for block in blocks:
        got = [(group, fns[group].apply(
            MemberView({"tstamp": ts, "direction": direction}), src))
            for group, src, ts, direction in block]
        order: dict = {}
        for group, _value in got:
            order.setdefault(group, len(order))
        out.append(sorted(got, key=lambda cell: order[cell[0]]))
    return out


@pytest.mark.parametrize("spec", MAPS)
@settings(max_examples=20, deadline=None)
@given(blocks=st.lists(cells_of, min_size=2, max_size=2))
def test_map_folds(spec, blocks):
    """Same emissions (None included) and, across the two blocks, the
    same carried state as ``apply`` per cell."""
    got, want = mapped_by_fold(spec, blocks), mapped_by_loop(spec, blocks)
    assert repr(got) == repr(want)


def test_ipt_fold_steps_aside_for_stamps_beyond_int64():
    blocks = [[(0, 1, 1 << 63, 1), (0, 1, (1 << 63) + 5, 1)],
              [(0, 1, (1 << 63) + 9, 1)]]
    for spec in ("f_ipt", "f_speed"):
        assert repr(mapped_by_fold(spec, blocks)) == repr(
            mapped_by_loop(spec, blocks))
