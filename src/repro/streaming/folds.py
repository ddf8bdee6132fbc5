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

Under ``collect(pkt)`` a fold's ``trace`` also returns every cell's
statistics; the damped folds stack a section's leaders as (rows x
leaders) columns.  A fold answers with a falsy value, state
untouched, when a block leaves the range its arithmetic is exact in (an
int that could leave int64, NaN where the scalar code would raise, a
dtype change).  The caller then moves the family to the default
:class:`ObjectFold` / :class:`ObjectMap` — per-row function objects fed
segment by segment through their own batch twins, the behaviour every
native fold is measured against — via :meth:`Fold.export`.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro.streaming.damped import quantize_decay
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
NS_PER_S = 1e9      # tstamp ns -> s, the unit of Kitsune's lambda
#: Ints at or beyond this could overflow int64 inside a fold.
_EXACT = 1 << 61


class Segments:
    """A block's cells sorted by group: segment ``i`` is
    ``values[starts[i]:starts[i] + lens[i]]`` and belongs to slab row
    ``rows[i]`` (``lens >= 1``)."""

    __slots__ = ("rows", "starts", "lens", "n", "_layout")

    def __init__(self, rows: np.ndarray, lens: np.ndarray) -> None:
        self.rows = rows
        self.lens = lens
        stops = np.cumsum(lens)
        self.starts = stops - lens
        self.n = int(stops[-1]) if len(stops) else 0    # cells
        self._layout = None

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

    def layout(self) -> tuple:
        """``(order, active, rank, place)``: segments longest first, how
        many have a ``j``-th value, and each cell's rank and segment
        place — ``P[rank, place]`` is a (ranks x segments) matrix."""
        if self._layout is None:
            order = np.argsort(-self.lens, kind="stable")
            shorter = np.cumsum(np.bincount(self.lens))[:-1]
            place = np.empty(len(order), np.intp)
            place[order] = np.arange(len(order))
            ids = self.ids()
            self._layout = (order, (len(self.lens) - shorter).tolist(),
                            np.arange(self.n) - self.starts[ids], place[ids])
        return self._layout

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


def typed_column(items: list) -> np.ndarray:
    """Python values as int64 / float64 when every one is exactly that
    type, else as an object array, which holds the values themselves."""
    kinds = set(map(type, items))
    dtype = _I8 if kinds == {int} else _F8 if kinds == {float} else object
    try:
        return np.array(items, dtype=dtype)
    except OverflowError:
        return np.array(items, dtype=object)


def as_column(items: list) -> tuple[np.ndarray, np.ndarray | None]:
    """A list of Python values (None = no emission) as ``(values,
    valid)`` typed by :func:`typed_column`; only the object folds take
    an object array."""
    valid = None
    if any(v is None for v in items):
        valid = np.array([v is not None for v in items])
        fill = next((v for v in items if v is not None), 0)
        items = [fill if v is None else v for v in items]
    return typed_column(items), valid


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


def _pow(xs: np.ndarray, y: float) -> np.ndarray:
    """``x ** y`` per element through Python's float ``**``: numpy's
    ``power`` / ``sqrt`` / ``exp2`` and ``x * x`` round the last bit
    differently on some inputs."""
    return np.fromiter(map(pow, xs.ravel().tolist(), repeat(y)), _F8,
                       xs.size).reshape(xs.shape)


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

    def export(self, row: int, fn, k: int = 0) -> None:
        """Write one row's state into function object ``fn`` (``k``:
        which leader of a stacked fold)."""
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
        order, active, _rank, _place = seg.layout()
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
        return _pow(variance, 0.5)

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
        return _pow(np.where(variance < 0, 0.0, variance), 0.5)


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
        # Python's arithmetic: a ** that underflows to 0 must raise.
        out[live] = [(t / n) / (m2 / n) ** power for t, n, m2 in zip(
            top[rows][live].tolist(), n[live].tolist(), m2[live].tolist())]
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

    def export(self, row: int, acc, k: int = 0) -> None:
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


# -- per-packet folds: trace(seg, values, valid, ts, dirs, wanted) -> the
# wanted statistics after every cell (cells x wanted), or None to step
# aside

def _quantized(factors: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """:func:`~repro.streaming.damped.quantize_decay` per element (bits
    0: exact) through ``frexp``; the scalar code runs where its
    ``floor(log2)`` may round up: a mantissa within 2^-34 of 2."""
    bits = np.broadcast_to(bits, factors.shape)
    m, e = np.frexp(factors)
    scale = np.ldexp(1.0, bits)
    out = np.where(bits > 0, np.floor(m * (2 * scale)) / scale
                   * np.ldexp(1.0, e - 1), factors)
    for i in np.flatnonzero((bits > 0) & (m >= 1 - 2.0 ** -35)).tolist():
        out.flat[i] = quantize_decay(factors.flat[i], int(bits.flat[i]))
    return out


class _DampedFold(Fold):
    """``L`` stacked accumulators — the leaders of one family in one
    section — as (rows x L) columns one rank step advances together; a
    last stamp of -inf is none.  Decay gaps depend on stamps, directions
    and skips only, so every factor is known before the recurrence (one
    Python ``2.0 ** y`` per distinct exponent), steps do only ``+ - * /``
    and selects, and Python's ``**`` finishes the statistics after it.

    No scalar tails, unlike :data:`CUTOVER`'s: a step moves ``L`` leaders.
    Seed-7 ``kitsune-stream``, 2-core host, ms per streamed rep with
    tails at <= 0 / 2 / 4 / 8 / 16 / all active segments: Welford 269 /
    272 / 275 / 284 / 317 / 426, covariance 270 / 271 / 274 / 280 / 302
    / 455; ``run()`` (2 048-cell blocks, both): 156 / 152 / 159 / 162 /
    166."""

    STATS: tuple = ()
    LASTS: tuple = ()

    def __init__(self, accs: list) -> None:
        self.accs = accs
        self.lams = np.array([acc.params[0] for acc in accs], _F8)
        for column, _attr, dtype in self.COLUMNS:
            setattr(self, column, np.zeros((0, len(accs)), dtype))

    def clear(self, rows) -> None:
        super().clear(rows)
        for column in self.LASTS:
            getattr(self, column)[rows] = -np.inf

    def _prepare(self, seg, values, valid, ts):
        """``(X, V, t, lay, rows)`` — values and valid masks as (cells x
        L), stamps in seconds, the layout, its rows — or None unless all
        are plain finite numbers (ints exact as floats, for ``x * x``)."""
        if not all(map(_numeric, (ts, *values))) or any(
                v.dtype == _I8 and seg.n and _int_bound(v) > 1 << 53
                for v in values):
            return None
        t = ts / NS_PER_S
        if not np.isfinite(t).all():
            return None
        lay = seg.layout()
        self._lens = seg.lens[lay[0]]
        return (np.stack(values, axis=1).astype(_F8),
                np.stack([np.ones(seg.n, np.bool_) if v is None else v
                          for v in valid], axis=1),
                t, lay, seg.rows[lay[0]])

    @staticmethod
    def _pad(lay, cells: np.ndarray, fill) -> np.ndarray:
        """Per-cell rows laid out as (ranks x segments x ...)."""
        order, active, rank, place = lay
        out = np.full((len(active), len(order)) + cells.shape[1:], fill,
                      cells.dtype)
        out[rank, place] = cells
        return out

    def _before(self, lay, t, masks, last):
        """Each cell's latest earlier stamp in its segment's ``masks``
        cells (cells x L x G) or its row's ``last``; each row's after."""
        order, active, rank, place = lay
        run = np.empty((len(active) + 1,) + last.shape)
        run[0] = last
        run[1:] = self._pad(lay, np.where(masks, t[:, None, None], -np.inf),
                            -np.inf)
        np.maximum.accumulate(run, axis=0, out=run)
        return run[rank, place], run[self._lens, np.arange(len(order))]

    def _decays(self, t, before, mask) -> np.ndarray:
        """``2.0 ** (-lam * (t - before))`` where a cell in ``mask`` is
        later than ``before``, 1.0 elsewhere (cells x L)."""
        with np.errstate(all="ignore"):
            gap = t[:, None] - before
            decays = mask & (gap > 0) & (before > -np.inf) & (self.lams > 0)
            distinct, inverse = np.unique((-self.lams * gap)[decays],
                                          return_inverse=True)
        factors = np.ones(gap.shape)
        factors[decays] = np.fromiter(map(pow, repeat(2.0), distinct.tolist()),
                                      _F8, len(distinct))[inverse]
        return factors

    @staticmethod
    def _select(stats: dict, wanted, n: int) -> np.ndarray:
        return np.array([stats[stat][:, k] for k, stat in wanted]).reshape(
            len(wanted), n).T

    def export(self, row: int, acc, k: int = 0) -> None:
        for column, attr, _dtype in self.COLUMNS:
            value = getattr(self, column)[row, k].item()
            owner, _, name = attr.rpartition(".")
            setattr(attrgetter(owner)(acc) if owner else acc, name,
                    None if value == -np.inf and column in self.LASTS
                    else value)


class DampedWelfordFold(_DampedFold):
    """:class:`~repro.streaming.damped.DampedWelford` per (row, leader);
    ``f_dw`` / ``f_dmean`` / ``f_dstd`` read ``w`` / ``mean`` / ``std``."""

    COLUMNS = (("w", "w", _F8), ("mean", "mean", _F8), ("m2", "m2", _F8),
               ("last", "last_t", _F8))
    STATS = ("w", "mean", "std")
    LASTS = ("last",)

    def trace(self, seg, values, valid, ts, dirs, wanted):
        prep = self._prepare(seg, values, valid, ts)
        if prep is None:
            return None
        X, V, t, (order, active, rank, place), ro = prep
        lay = prep[3]
        before, last = self._before(lay, t, V[..., None],
                                    self.last[ro][..., None])
        F = _quantized(self._decays(t, before[..., 0], V),
                       [acc.decay_quant_bits or 0 for acc in self.accs])
        Xp, Fp = self._pad(lay, X, 0.0), self._pad(lay, F, 1.0)
        skip = self._pad(lay, ~V, False)
        skips = skip.any(axis=(1, 2)).tolist()
        # Layer j + 1: the state after rank j (layer 0: the rows').
        layers = np.empty((3, len(active) + 1, len(order), len(self.accs)))
        layers[:, 0] = self.w[ro], self.mean[ro], self.m2[ro]
        Wp, Mp, Qp = layers
        with np.errstate(all="ignore"):
            for j, k in enumerate(active):
                x, f = Xp[j, :k], Fp[j, :k]
                w0, m0, q0 = Wp[j, :k], Mp[j, :k], Qp[j, :k]
                w1, m1, q1 = Wp[j + 1, :k], Mp[j + 1, :k], Qp[j + 1, :k]
                np.multiply(w0, f, out=w1)
                w1 += 1.0
                delta = x - m0
                np.divide(delta, w1, out=m1)
                m1 += m0
                np.multiply(q0, f, out=q1)
                q1 += delta * (x - m1)
                if skips[j]:
                    for new, old in ((w1, w0), (m1, m0), (q1, q0)):
                        np.copyto(new, old, where=skip[j, :k])
        self.w[ro], self.mean[ro], self.m2[ro] = layers[
            :, self._lens, np.arange(len(order))]
        self.last[ro] = last[..., 0]
        W, M, Q = layers[:, rank + 1, place]
        stats = {"w": W, "mean": M}
        if any(stat == "std" for _k, stat in wanted):
            variance = np.divide(Q, W, out=np.zeros(W.shape), where=W > 0)
            variance[variance < 0] = 0.0
            stats["std"] = _pow(variance, 0.5)
        return self._select(stats, wanted, seg.n)


class DampedCovarianceFold(_DampedFold):
    """:class:`~repro.streaming.damped.DampedCovariance` per (row,
    leader).  A stream's sums move on its own cells only and the joint
    sums add terms known once the streams are: both are ``s * f + step``
    recurrences, ``f = 1`` and ``step = -0.0`` (which leave any float
    as it is) where a cell does not touch them.  The original
    implementation's knobs ride the object column."""

    COLUMNS = tuple((column, attr, _F8) for column, attr in (
        ("aw", "a.w"), ("als", "a.ls"), ("ass", "a.ss"), ("bw", "b.w"),
        ("bls", "b.ls"), ("bss", "b.ss"), ("ra", "_last_res_a"),
        ("rb", "_last_res_b"), ("sr", "sr"), ("wj", "w_joint"),
        ("jlast", "last_t"), ("alast", "a.last_t"), ("blast", "b.last_t")))
    STREAMS = ("aw", "als", "ass", "bw", "bls", "bss")
    LASTS = ("jlast", "alast", "blast")
    STATS = ("magnitude", "radius", "covariance", "pcc")

    def _recur(self, lay, factors, steps, start) -> np.ndarray:
        """Rank-step ``s = s * f + step`` from ``start`` (rows in rank
        order); layer ``j + 1``: the state after rank ``j``."""
        order, active, rank, place = lay
        F, steps = self._pad(lay, factors, 1.0), self._pad(lay, steps, -0.0)
        run = np.empty((len(active) + 1,) + start.shape)
        run[0] = start
        for j, k in enumerate(active):
            np.multiply(run[j, :k], F[j, :k], out=run[j + 1, :k])
            run[j + 1, :k] += steps[j, :k]
        return run

    def trace(self, seg, values, valid, ts, dirs, wanted):
        if (dirs is None or not _numeric(dirs) or any(
                acc.params[1:] != (False, None) for acc in self.accs)):
            return None
        prep = self._prepare(seg, values, valid, ts)
        if prep is None:
            return None
        X, V, t, lay, ro = prep
        order, active, rank, place = lay
        S, L = len(order), len(self.accs)
        rows, leaders, ab = (np.arange(S)[:, None, None],
                             np.arange(L)[None, :, None], np.arange(2))
        column = {c: getattr(self, c)[ro] for c, *_ in self.COLUMNS}
        on_a = V & (dirs >= 0)[:, None]
        sides = np.stack((on_a, V & ~on_a), axis=2)     # cells x L x 2
        before, last = self._before(
            lay, t, np.concatenate((V[..., None], sides), axis=2),
            np.stack([column[c] for c in self.LASTS], axis=2))
        joint_f = self._decays(t, before[..., 0], V)
        stream_f = self._decays(t, np.where(on_a, before[..., 1],
                                            before[..., 2]), V)
        with np.errstate(all="ignore"):
            # Both streams' (w, ls, ss) after every rank.
            run = self._recur(
                lay, np.where(sides, stream_f[..., None], 1.0)[..., None],
                np.where(sides[..., None], np.stack(
                    (np.ones(X.shape), X, X * X), axis=2)[:, :, None],
                    -0.0),
                np.stack([column[c] for c in self.STREAMS],
                         axis=2).reshape(S, L, 2, 3))
            w, ls, _ss = run[rank + 1, place].transpose(3, 0, 1, 2)
            res = X - np.where(on_a, ls[..., 0] / w[..., 0],
                               ls[..., 1] / w[..., 1])
            # The rank of each stream's last update so far (0: none).
            updated = self._pad(lay, sides, False)
            ranks = np.arange(1, len(active) + 1)[:, None, None, None]
            latest = np.maximum.accumulate(np.where(updated, ranks, 0),
                                           axis=0)
            residuals = np.empty((len(active) + 1, S, L, 2))
            residuals[0] = np.stack((column["ra"], column["rb"]), axis=2)
            residuals[1:] = self._pad(lay, np.repeat(res[..., None], 2, 2),
                                      0.0)
            at = latest[rank, place], place[:, None, None], leaders, ab
            other = np.where(on_a, residuals[at][..., 1],
                             residuals[at][..., 0])
            pair = V & (np.where(on_a, w[..., 1], w[..., 0]) > 0)
            joint = self._recur(
                lay, np.repeat(joint_f[..., None], 2, axis=2),
                np.where(pair[..., None], np.stack(
                    (res * other, np.ones(X.shape)), axis=2), -0.0),
                np.stack((column["sr"], column["wj"]), axis=2))
        ends = self._lens, np.arange(S)
        finals = (*run[ends].reshape(S, L, 6).transpose(2, 0, 1),
                  *residuals[latest[-1], rows, leaders, ab].transpose(2, 0, 1),
                  *joint[ends].transpose(2, 0, 1), *last.transpose(2, 0, 1))
        for (name, *_), final in zip(self.COLUMNS, finals):
            getattr(self, name)[ro] = final
        with np.errstate(all="ignore"):
            stats = self._stats(run, updated, at, joint[rank + 1, place])
        return self._select(stats, wanted, seg.n)

    @staticmethod
    def _stats(run, updated, at, joint) -> dict:
        """Each cell's statistics; a stream's squares and roots run once
        per update (``at``: its last), not once per cell."""
        held = np.concatenate((np.ones((1,) + updated.shape[1:], np.bool_),
                               updated))
        W, LS, SS = run[held].T
        mean = np.divide(LS, W, out=np.zeros(W.shape), where=W > 0)
        msq = _pow(mean, 2.0)
        var = np.where(W <= 0, 0.0, SS / W - msq)
        var[var < 0] = 0.0
        table = np.zeros((3,) + held.shape)
        table[:, held] = msq, _pow(var, 2.0), _pow(var, 0.5)
        msq, vsq, std = table[(slice(None),) + at]
        sr, wj = joint[..., 0], joint[..., 1]
        cov = np.divide(sr, wj, out=np.zeros(sr.shape), where=wj > 0)
        denom = std[..., 0] * std[..., 1]
        return {"magnitude": _pow(msq.sum(axis=2), 0.5),
                "radius": _pow(vsq.sum(axis=2), 0.5), "covariance": cov,
                "pcc": np.divide(cov, denom, out=np.zeros(cov.shape),
                                 where=denom > 0)}


class ObjectFold:
    """The default fold: one function object per row, each segment fed
    through the object's own ``update_many`` (``factory`` builds a fresh
    one; ``attr`` is the family's shared-accumulator attribute, if it
    declared one; ``src`` the key it reduces).  As a *member column* it
    is driven per cell instead: ``update(value, member)`` with each
    cell's member view, as the functions' own contract has it."""

    def __init__(self, factory, attr: str | None = None,
                 src: str | None = None) -> None:
        self.factory = factory
        self.attr = attr
        self.src = src
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

    def feed(self, seg: Segments, members: list, wanted=None) -> list:
        """Member column: each cell's ``update(value, member)`` with its
        member view (``members``, in segment order) where the member has
        the source key.  With ``wanted`` ``(probe, synths)`` pairs, the
        rows of each cell's finalized values after it, through the synth
        chains."""
        src, out = self.src, []
        for row, lo, hi in seg.slices():
            fn = self.col[row]
            views = [(self.view(row, probe), synths)
                     for probe, synths in wanted or ()]
            for member in members[lo:hi]:
                if src in member:
                    fn.update(member[src], member)
                if wanted is not None:
                    out.append([reduce(lambda v, synth: synth(v), synths,
                                       view.finalize())
                                for view, synths in views])
        return out

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

    def trace(self, seg, members: list, wanted):
        """Per-packet emission: :meth:`feed`'s rows as (cells x wanted)
        floats, or as lists when some value is an array."""
        out = self.feed(seg, members, wanted)
        if any(isinstance(value, (np.ndarray, list, tuple))
               for cell in out for value in cell):
            return out
        return np.array(out, _F8).reshape(seg.n, len(wanted))


class MemberView(dict):
    """A member tuple as one section's functions see it: the cell's
    metadata fields, overlaid with the section's mapped keys; ``get``
    raises KeyError for a key the member lacks."""

    __slots__ = ()
    get = dict.__getitem__
    set = dict.__setitem__
    has = dict.__contains__


def write_members(members: list, key: str, column: tuple) -> None:
    """Overlay a map's ``(values, valid)`` output on the member views
    under ``key`` where it emitted a value."""
    values, valid = column
    values = values.tolist()
    for c in (range(len(members)) if valid is None
              else np.flatnonzero(valid).tolist()):
        members[c][key] = values[c]


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
    through the declared per-group ``kernel`` — or, as a member column,
    through ``apply(member, src_value)`` per cell."""

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

    def each(self, seg, members: list, src: str | None):
        """Member column: each cell's ``apply`` with its member view;
        a source the member lacks raises KeyError."""
        out: list = []
        for row, lo, hi in seg.slices():
            fn = self.col[row]
            out.extend(fn.apply(member, None if src is None
                                else member.get(src))
                       for member in members[lo:hi])
        return as_column(out)
