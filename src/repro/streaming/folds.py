"""Segment folds: one function family's state for *every* resident
group as numpy columns, updated a whole block of cells at a time.

The engine sorts a block's cells by group, so a value column is cut into
:class:`Segments` — one run per group, cell order kept inside it.  A
*fold* owns the columns of one accumulator family (or one stateful
mapping function), indexed by the group's slab row, and applies all
segments at once:

- commutative integer folds (integer sum / min / max, histogram bins)
  reduce each segment with ``reduceat`` / ``bincount`` — integer
  addition and comparison do not care about order;
- order-sequential recurrences (Welford, its division-free variant, the
  higher moments, every *float* fold) advance by **rank step**: step
  ``j`` applies the scalar ``update``'s exact operation sequence to the
  ``j``-th value of every segment that still has one, as one numpy
  expression over those segments.  Each group sees the same IEEE / int
  operations in the same order as the per-value loop, so every bit
  survives; float sums must take this road too, since ``reduceat`` adds
  pairwise.  Once at most :data:`CUTOVER` (long) segments remain, their
  tails run through the accumulator's own ``update_many``.

A fold answers ``update`` / ``apply`` with a falsy value, state
untouched, when a block leaves the range its arithmetic is exact in (an
int that could leave int64, NaN where the scalar code would raise, a
dtype change).  The caller then moves the family to the default
:class:`ObjectFold` / :class:`ObjectMap` — per-row function objects fed
segment by segment through their own batch twins, the behaviour every
native fold is measured against — via :meth:`Fold.export`.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.welford import WelfordDivisionFree

#: Rank steps stop once this few segments are still active; their tails
#: run as scalar loops (a step costs ~a dozen numpy calls whatever its
#: width, a scalar update well under a microsecond).  Measured on the
#: benchmark's seed-7 inputs, CPU ms in ``_drain`` per rep at 8 / 32 /
#: 128 / 512: flow-enterprise 140 / 145 / 145 / 176, flow-mawi 267 /
#: 260 / 310 / 412, mptd-campus 176 / 166 / 213 / 346; at 32 the scalar
#: tails take 3.5% / 5.4% / 8.5% of the sequentially folded cells.
CUTOVER = 32

_F8, _I8 = np.float64, np.int64
#: Ints at or beyond this could overflow int64 inside a fold.
_EXACT = 1 << 61


class Segments:
    """A block's cells sorted by group: segment ``i`` is
    ``values[starts[i]:starts[i] + lens[i]]`` and belongs to slab row
    ``rows[i]`` (``lens >= 1``)."""

    __slots__ = ("rows", "starts", "lens", "n", "_ranked")

    def __init__(self, rows: np.ndarray, lens: np.ndarray) -> None:
        self.rows = rows
        self.lens = lens
        stops = np.cumsum(lens)
        self.starts = stops - lens
        self.n = int(stops[-1]) if len(stops) else 0    # cells
        self._ranked = None

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.lens - 1

    def slices(self):
        """``(row, lo, hi)`` per segment, as Python ints."""
        return zip(self.rows.tolist(), self.starts.tolist(),
                   (self.starts + self.lens).tolist())

    def ids(self) -> np.ndarray:
        """The segment index of every cell."""
        return np.repeat(np.arange(len(self.lens)), self.lens)

    def ranked(self) -> tuple[np.ndarray, list]:
        """``(order, active)``: segment indices longest first, and for
        each rank ``j`` how many segments have a ``j``-th value."""
        if self._ranked is None:
            order = np.argsort(-self.lens, kind="stable")
            shorter = np.cumsum(np.bincount(self.lens))[:-1]
            self._ranked = order, (len(self.lens) - shorter).tolist()
        return self._ranked

    def select(self, keep: np.ndarray) -> "Segments":
        """The segmentation of ``values[keep]`` (emptied groups drop
        out)."""
        seen = np.cumsum(keep)
        counts = seen[self.ends] - seen[self.starts] + keep[self.starts]
        alive = counts > 0
        return Segments(self.rows[alive], counts[alive])

    def shifted(self, values: np.ndarray, at_start) -> np.ndarray:
        """Each cell's predecessor in its segment; ``at_start`` (per
        segment) stands before a segment's first cell."""
        prev = np.empty_like(values)
        prev[1:] = values[:-1]
        prev[self.starts] = at_start
        return prev


def as_column(items: list) -> tuple[np.ndarray, np.ndarray | None]:
    """A list of Python values (None = no emission) as ``(values,
    valid)``: int64 / float64 when every emitted value is exactly that
    type, else an object array, which only the object folds take."""
    valid = None
    if any(v is None for v in items):
        valid = np.array([v is not None for v in items])
        fill = next((v for v in items if v is not None), 0)
        items = [fill if v is None else v for v in items]
    kinds = set(map(type, items))
    dtype = _I8 if kinds == {int} else _F8 if kinds == {float} else object
    try:
        return np.array(items, dtype=dtype), valid
    except OverflowError:
        return np.array(items, dtype=object), valid


def overlay(top: tuple, under: tuple) -> tuple:
    """``top``'s values where it emitted one, else ``under``'s — how a
    member resolves a key that two writers (or a map and the cell's own
    metadata) provide."""
    (values, valid), (low, low_valid) = top, under
    if valid is None:
        return top
    if values.dtype != low.dtype:
        values, low = values.astype(object), low.astype(object)
    return (np.where(valid, values, low),
            None if low_valid is None else valid | low_valid)


def _numeric(values: np.ndarray) -> bool:
    return values.dtype == _I8 or values.dtype == _F8


def _int_bound(values: np.ndarray) -> int:
    """max |v| of an int64 column, as a Python int."""
    return max(-int(values.min()), int(values.max()))


def _scalar(fn, *columns: np.ndarray) -> np.ndarray:
    """``fn`` per row through Python floats: numpy's ``power`` / ``sqrt``
    may round the last bit differently from the scalar ``**`` of the
    accumulators' properties, and do not raise where it does."""
    return np.array([fn(*row) for row in zip(*(c.tolist() for c in columns))],
                    dtype=_F8)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den if den > 0 else 0.0`` per row."""
    shape = np.broadcast(num, den).shape
    return np.divide(num, den, out=np.zeros(shape), where=den > 0)


class Fold:
    """Base of the native folds.  ``COLUMNS`` names the state columns as
    ``(column, function attribute, dtype)``; all start at zero, the
    state of a fresh function object.  Columns in ``OPTIONAL`` read as
    None on the object while the row's ``has`` flag is unset."""

    COLUMNS: tuple = ()
    OPTIONAL: tuple = ()

    def __init__(self, fn) -> None:
        #: A scratch function object for the scalar tails.
        self.fn = fn
        for column, _attr, dtype in self.COLUMNS:
            setattr(self, column, np.zeros(0, dtype))

    def _columns(self) -> list[str]:
        return [column for column, _attr, _dtype in self.COLUMNS]

    def grow(self, cap: int) -> None:
        for column in self._columns():
            old = getattr(self, column)
            new = np.zeros((cap,) + old.shape[1:], old.dtype)
            new[:len(old)] = old
            setattr(self, column, new)

    def clear(self, rows) -> None:
        for column in self._columns():
            getattr(self, column)[rows] = 0

    def export(self, row: int, fn) -> None:
        """Write one row's state into function object ``fn``."""
        for column, attr, _dtype in self.COLUMNS:
            if attr:
                unset = column in self.OPTIONAL and not self.has[row]
                setattr(fn, attr, None if unset
                        else getattr(self, column)[row].item())

    def absorb(self, row: int, fn) -> None:
        """Read one row's state back from ``fn`` (after an update)."""
        for column, attr, _dtype in self.COLUMNS:
            getattr(self, column)[row] = getattr(fn, attr) if attr else True

    def _sequential(self, seg: Segments, values: np.ndarray) -> None:
        """Rank-step ``values`` into the columns through ``_step(xs,
        *state)``, then the scalar tails of the longest segments."""
        order, active = seg.ranked()
        rows = seg.rows[order]
        starts = seg.starts[order]
        columns = self._columns()
        state = [getattr(self, column)[rows] for column in columns]
        rank = width = 0
        with np.errstate(all="ignore"):
            for rank, width in enumerate(active):
                if width <= CUTOVER:
                    break
                self._step(values[starts[:width] + rank],
                           *[s[:width] for s in state])
            else:
                width = 0
        for column, s in zip(columns, state):
            getattr(self, column)[rows] = s
        fn = self.fn
        stops = starts + seg.lens[order]
        for i in range(width):
            row = rows[i]
            self.export(row, fn)
            fn.update_many(values[starts[i] + rank:stops[i]].tolist())
            self.absorb(row, fn)


# -- reducing folds: update(seg, values, dirs) -> bool, stat(name, rows, probe)

class _ScalarFold(Fold):
    """``f_sum`` / ``f_min`` / ``f_max``: ``value`` is None or a number
    whose type is the first block's; a block of the other type ends the
    native fold."""

    COLUMNS = (("has", None, np.bool_), ("value", "value", _I8))
    OPTIONAL = ("value",)
    reduce: np.ufunc

    def update(self, seg: Segments, values: np.ndarray, dirs) -> bool:
        if not self.has.any() and _numeric(values):
            self.value = self.value.astype(values.dtype)
        if values.dtype != self.value.dtype:
            return False
        if values.dtype == _F8:
            self._sequential(seg, values)
            return True
        rows = seg.rows
        held = self.value[rows]
        if (_int_bound(values) * seg.n + _int_bound(held)) >= _EXACT:
            return False
        part = self.reduce.reduceat(values, seg.starts)
        self.value[rows] = np.where(self.has[rows],
                                    self.reduce(held, part), part)
        self.has[rows] = True
        return True

    def _step(self, xs, has, value) -> None:
        value[...] = np.where(has, self._merge(value, xs), xs)
        has[...] = True

    def stat(self, name, rows, probe) -> np.ndarray:
        return np.where(self.has[rows], self.value[rows].astype(_F8), 0.0)


class SumFold(_ScalarFold):
    reduce = np.add
    _merge = staticmethod(np.add)


class MinFold(_ScalarFold):
    reduce = np.minimum

    @staticmethod
    def _merge(value, xs):      # min(value, x) is x only when x < value
        return np.where(xs < value, xs, value)


class MaxFold(_ScalarFold):
    reduce = np.maximum

    @staticmethod
    def _merge(value, xs):
        return np.where(xs > value, xs, value)


class WelfordFold(Fold):
    """:class:`~repro.streaming.welford.Welford` per row."""

    COLUMNS = (("n", "n", _I8), ("mean", "mean", _F8), ("m2", "m2", _F8))

    def update(self, seg: Segments, values: np.ndarray, dirs) -> bool:
        if not _numeric(values):
            return False
        self._sequential(seg, values)
        return True

    @staticmethod
    def _step(xs, n, mean, m2) -> None:
        n += 1
        delta = xs - mean
        mean += delta / n
        m2 += delta * (xs - mean)

    @staticmethod
    def _std(variance: np.ndarray) -> np.ndarray:
        return _scalar(lambda v: v ** 0.5, variance)

    def stat(self, name, rows, probe) -> np.ndarray:
        if name == "mean":
            return self.mean[rows].astype(_F8)
        variance = _ratio(self.m2[rows], self.n[rows])
        return variance if name == "variance" else self._std(variance)


class DivisionFreeFold(WelfordFold):
    """:class:`~repro.streaming.welford.WelfordDivisionFree` per row.
    The scalar update's three comparison cases are one truncating
    division (``|delta| < n`` gives 0, ``< 2n`` gives ±1), and its two
    remainder-draining loops are another."""

    COLUMNS = (("n", "n", _I8), ("mean", "mean", _I8), ("m2", "m2", _F8),
               ("rem", "_rem", _I8))

    def update(self, seg: Segments, values: np.ndarray, dirs) -> bool:
        if values.dtype == _F8:
            # int(x) truncates; it raises on NaN / inf.
            if not np.isfinite(values).all():
                return False
            values = np.trunc(values)
            if np.abs(values).max() >= _EXACT:
                return False
            values = values.astype(_I8)
        elif values.dtype != _I8 or _int_bound(values) >= _EXACT:
            return False
        self._sequential(seg, values)
        return True

    @staticmethod
    def _step(xs, n, mean, m2, rem) -> None:
        n += 1
        delta = xs - mean
        step = np.sign(delta) * (np.abs(delta) // n)
        rem += delta - step * n
        drain = np.sign(rem) * (np.abs(rem) // n)
        rem -= drain * n
        new = mean + step + drain
        m2 += (xs - mean).astype(_F8) * (xs - new).astype(_F8)
        mean[...] = new

    @staticmethod
    def _std(variance: np.ndarray) -> np.ndarray:
        return _scalar(lambda v: max(v, 0.0) ** 0.5, variance)


def welford_fold(acc) -> Fold:
    """The fold of ``f_mean`` / ``f_var`` / ``f_std``, whose accumulator
    the execution context picks."""
    return (DivisionFreeFold if type(acc) is WelfordDivisionFree
            else WelfordFold)(acc)


class MomentsFold(Fold):
    """:class:`~repro.streaming.moments.StreamingMoments` per row."""

    COLUMNS = (("n", "n", _I8), ("mean", "mean", _F8), ("m2", "m2", _F8),
               ("m3", "m3", _F8), ("m4", "m4", _F8))

    update = WelfordFold.update

    @staticmethod
    def _step(xs, n, mean, m2, m3, m4) -> None:
        n1 = n.copy()
        n += 1
        delta = xs - mean
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        mean += delta_n
        m4 += (term1 * delta_n2 * (n * n - 3 * n + 3)
               + 6 * delta_n2 * m2 - 4 * delta_n * m3)
        m3 += term1 * delta_n * (n - 2) - 3 * delta_n * m2
        m2 += term1

    def stat(self, name, rows, probe) -> np.ndarray:
        top, power = ((self.m3, 1.5) if name == "skewness"
                      else (self.m4, 2))
        n, m2 = self.n[rows], self.m2[rows]
        live = ~((n < 2) | (m2 <= 0))
        out = np.zeros(len(rows))
        out[live] = _scalar(lambda t, n, m2: (t / n) / (m2 / n) ** power,
                            top[rows][live], n[live], m2[live])
        return out


class HistogramFold(Fold):
    """:class:`~repro.streaming.histogram.FixedWidthHistogram` per row:
    ``counts`` is rows x bins.  Bin counts commute, so a block is one
    ``bincount`` over (segment, bin) pairs."""

    COLUMNS = (("counts", "counts", _I8), ("total", "total", _I8))

    def __init__(self, acc) -> None:
        super().__init__(acc)
        self.width, self.n_bins, self.origin = acc.params
        self.counts = np.zeros((0, self.n_bins), _I8)

    def export(self, row: int, acc) -> None:
        acc.counts[:] = self.counts[row]
        acc.total = int(self.total[row])
        acc._cdf = (0, None)

    def update(self, seg: Segments, values: np.ndarray, dirs) -> bool:
        if not _numeric(values) or (values.dtype == _I8
                                    and _int_bound(values) >= _EXACT):
            return False    # an int origin could wrap the subtraction
        with np.errstate(all="ignore"):
            bins = np.floor_divide(values - self.origin, self.width)
        if not np.isfinite(bins).all():
            return False            # int(nan) / int(inf) raise
        bins = np.clip(bins, 0, self.n_bins - 1).astype(np.intp)
        n_seg = len(seg.rows)
        self.counts[seg.rows] += np.bincount(
            seg.ids() * self.n_bins + bins,
            minlength=n_seg * self.n_bins).reshape(n_seg, self.n_bins)
        self.total[seg.rows] += seg.lens
        return True

    def stat(self, name, rows, probe) -> np.ndarray:
        counts = self.counts[rows]
        if name == "result":
            return counts.astype(_F8)
        total = self.total[rows]
        if name == "pdf":
            return _ratio(counts, total[:, None])
        cdf = _ratio(np.cumsum(counts, axis=1), total[:, None])
        if name == "cdf":
            return cdf
        if not 0 <= probe.q <= 100:
            raise ValueError("q must be in [0, 100]")
        idx = np.minimum((cdf < probe.q / 100.0).sum(axis=1),
                         self.n_bins - 1)
        return np.where(total > 0, self.origin + (idx + 1) * self.width,
                        self.origin)


class ObjectFold:
    """The default fold: one function object per row, each segment fed
    through the object's own ``update_many`` (``factory`` builds a fresh
    one; ``attr`` is the family's shared-accumulator attribute, if it
    declared one)."""

    def __init__(self, factory, attr: str | None = None) -> None:
        self.factory = factory
        self.attr = attr
        self.col: list = []

    def grow(self, cap: int) -> None:
        self.col.extend([None] * (cap - len(self.col)))

    def clear(self, rows) -> None:
        for row in np.asarray(rows).tolist():
            self.col[row] = self.factory()

    def update(self, seg: Segments, values: np.ndarray, dirs) -> bool:
        col = self.col
        values = values.tolist()
        dirs = dirs.tolist() if dirs is not None else None
        for row, lo, hi in seg.slices():
            col[row].update_many(values[lo:hi], dirs and dirs[lo:hi])
        return True

    def view(self, row: int, probe):
        """The reducer standing for ``probe``'s feature at ``row``: the
        row's own object, or — in a family sharing one accumulator —
        ``probe`` rewired onto the row's accumulator (a declared
        family's whole state is that accumulator)."""
        if self.attr is None:
            return self.col[row]
        setattr(probe, self.attr, getattr(self.col[row], self.attr))
        return probe

    def stat(self, name, rows, probe) -> list:
        return [self.view(row, probe).finalize() for row in rows.tolist()]


# -- mapping folds: apply(seg, src, ts, dirs) -> (values, valid) or None

class OneMap(Fold):
    def apply(self, seg, src, ts, dirs):
        return np.ones(seg.n, _I8), None


class IdentityMap(Fold):
    def apply(self, seg, src, ts, dirs):
        return src, None


class DirectionMap(Fold):
    def apply(self, seg, src, ts, dirs):
        if (src.dtype == dirs.dtype == _I8 and seg.n
                and _int_bound(src) * _int_bound(dirs) >= _EXACT):
            return None
        return src * dirs, None


class IptMap(Fold):
    COLUMNS = (("has", None, np.bool_), ("prev", "_prev", _I8))
    OPTIONAL = ("prev",)

    def _gaps(self, seg, ts):
        """``(prev, valid)`` per cell and the stamp update; None when
        the stamps are not plain in-range ints."""
        if ts.dtype != _I8 or (seg.n and _int_bound(ts) >= _EXACT):
            return None
        rows = seg.rows
        prev = seg.shifted(ts, self.prev[rows])
        valid = np.ones(seg.n, np.bool_)
        valid[seg.starts] = self.has[rows]
        self.prev[rows] = ts[seg.ends]
        self.has[rows] = True
        return prev, valid

    def apply(self, seg, src, ts, dirs):
        gaps = self._gaps(seg, ts)
        return gaps and (ts - gaps[0], gaps[1])


class SpeedMap(IptMap):
    def apply(self, seg, src, ts, dirs):
        if not _numeric(src):
            return None
        gaps = self._gaps(seg, ts)
        if gaps is None:
            return None
        prev, valid = gaps
        valid &= ts > prev
        out = np.zeros(seg.n)
        out[valid] = src[valid] / ((ts[valid] - prev[valid]) / 1e9)
        return out, valid


class BurstMap(Fold):
    COLUMNS = (("has", None, np.bool_), ("prev", "_prev_dir", _I8),
               ("burst", "_burst", _I8))
    OPTIONAL = ("prev",)

    def apply(self, seg, src, ts, dirs):
        if dirs.dtype != _I8:
            return None
        rows = seg.rows
        turn = dirs != seg.shifted(dirs, self.prev[rows])
        turn[seg.starts] &= self.has[rows]
        turns = np.cumsum(turn)
        # Turns before each segment's first cell, less the group's count.
        base = turns[seg.starts] - turn[seg.starts] - self.burst[rows]
        out = turns - np.repeat(base, seg.lens)
        self.prev[rows] = dirs[seg.ends]
        self.burst[rows] = out[seg.ends]
        self.has[rows] = True
        return out, None


class ObjectMap(ObjectFold):
    """The default mapping fold: one function object per row, driven
    through the declared per-group ``kernel``."""

    def __init__(self, factory, kernel) -> None:
        super().__init__(factory)
        self.kernel = kernel

    def apply(self, seg, src, ts, dirs):
        src, ts, dirs = (c if c is None else c.tolist()
                         for c in (src, ts, dirs))
        out: list = []
        for row, lo, hi in seg.slices():
            out.extend(self.kernel(
                self.col[row], src and src[lo:hi], ts and ts[lo:hi],
                dirs and dirs[lo:hi], hi - lo))
        return as_column(out)
