"""Stacked damped folds against the scalar ``update`` loop, bit for bit.

``DampedWelfordFold`` / ``DampedCovarianceFold`` hold every leader of a
family in one section as (rows x leaders) columns; the engine's block
path hands them ``collect(pkt)`` cells and takes back each cell's
statistics.  They must equal, for every group, a loop of the scalar
accumulator's ``update`` followed by its properties after every cell —
however the stream is split into blocks, with skipped (None) cells, direction flips, repeated or
decreasing stamps, and decay factors that are subnormal or 0.
"""

from array import array

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import folds
from repro.streaming.damped import (
    DampedCovariance,
    DampedWelford,
    quantize_decay,
)
from repro.streaming.folds import (
    NS_PER_S,
    DampedCovarianceFold,
    DampedWelfordFold,
    Segments,
    as_column,
)

N_GROUPS = 7
finite = dict(allow_nan=False, allow_infinity=False)
# Few distinct stamps, so equal and decreasing ones are common; gaps of
# 1 022-1 080 s at lam = 1 give subnormal and zero decay factors.
stamps = st.one_of(st.integers(0, 6).map(lambda s: s * 10**9),
                   st.integers(1022 * 10**9, 1080 * 10**9),
                   st.integers(0, 10**13))
lams = st.sampled_from([0.0, 0.01, 1.0, 5.0])
cuts = st.lists(st.integers(min_value=0, max_value=60), max_size=3)


def leader_values(n_cells: int):
    """One leader's values: all ints or all floats, None a skip."""
    return st.one_of(
        st.lists(st.one_of(st.none(), st.integers(-10**9, 10**9)),
                 min_size=n_cells, max_size=n_cells),
        st.lists(st.one_of(st.none(), st.floats(-1e9, 1e9, **finite)),
                 min_size=n_cells, max_size=n_cells))


@st.composite
def streams(draw, n_leaders: int):
    """Cells ``(group, stamp_ns, direction)`` and one value list per
    leader."""
    cells = draw(st.lists(st.tuples(st.integers(0, N_GROUPS - 1), stamps,
                                    st.sampled_from([1, -1, 0])),
                          min_size=1, max_size=60))
    values = [draw(leader_values(len(cells))) for _ in range(n_leaders)]
    return cells, values


def bits(*floats) -> bytes:
    # Bit patterns, so -0.0 vs 0.0 or a last-ulp drift cannot hide.
    return array("d", floats).tobytes()


def fold_trace(fold, cells, values, split_at):
    """Drive ``fold`` over ``cells`` cut into blocks at ``split_at`` the
    way the engine does (each block stably sorted by group, rows = group
    ids); returns every cell's wanted statistics in stream order."""
    fold.grow(N_GROUPS)
    fold.clear(np.arange(N_GROUPS))
    wanted = [(k, stat) for k in range(len(fold.accs))
              for stat in fold.STATS]
    out = np.empty((len(cells), len(wanted)))
    edges = [0, *sorted(min(c, len(cells)) for c in split_at), len(cells)]
    for lo, hi in zip(edges, edges[1:]):
        if lo == hi:
            continue
        first: dict = {}
        for group, _t, _d in cells[lo:hi]:
            first.setdefault(group, len(first))
        order = sorted(range(lo, hi), key=lambda c: first[cells[c][0]])
        seg = Segments(np.array(list(first), np.intp), np.bincount(
            [first[cells[c][0]] for c in order]))
        columns = [as_column([vals[c] for c in order]) for vals in values]
        block = fold.trace(
            seg, [col for col, _valid in columns],
            [valid for _col, valid in columns],
            np.array([cells[c][1] for c in order], np.int64),
            np.array([cells[c][2] for c in order], np.int64), wanted)
        assert block is not None
        out[order] = block
    return out


def reference(make, cells, values, update):
    """The scalar loop: per leader and group one accumulator, ``update``
    per valid value, every statistic after every cell."""
    accs = [{group: make(k) for group in range(N_GROUPS)}
            for k in range(len(values))]
    rows = []
    for c, (group, t_ns, direction) in enumerate(cells):
        row = []
        for k, vals in enumerate(values):
            acc = accs[k][group]
            if vals[c] is not None:
                update(acc, vals[c], t_ns / NS_PER_S, direction)
            row.extend(getattr(acc, stat) for stat in STATS[type(acc)])
        rows.append(row)
    return np.array(rows).reshape(len(cells), -1), accs


STATS = {DampedWelford: DampedWelfordFold.STATS,
         DampedCovariance: DampedCovarianceFold.STATS}


def welford_state(d):
    return d.last_t, bits(d.w, d.mean, d.m2)


def covariance_state(d):
    return (d.last_t, d.a.last_t, d.b.last_t,
            bits(d.a.w, d.a.ls, d.a.ss, d.b.w, d.b.ls, d.b.ss, d.sr,
                 d.w_joint, d._last_res_a, d._last_res_b))


def check(fold, make, stream, split_at, update, state):
    cells, values = stream
    want, accs = reference(make, cells, values, update)
    got = fold_trace(fold, cells, values, split_at)
    assert got.tobytes() == want.tobytes()
    # What the fold exports (stepping aside) is the scalar state.
    for k, per_group in enumerate(accs):
        for group, acc in per_group.items():
            twin = make(k)
            fold.export(group, twin, k)
            assert state(twin) == state(acc)


@given(stream=streams(3), lam=st.lists(lams, min_size=3, max_size=3),
       quant=st.sampled_from([None, 8, 3]), split_at=cuts)
@settings(max_examples=150, deadline=None)
def test_welford_fold_is_sequential_update(stream, lam, quant, split_at):
    def make(k):
        return DampedWelford(lam[k], quant)
    check(DampedWelfordFold([make(k) for k in range(3)]), make, stream,
          split_at, lambda acc, x, t, d: acc.update(x, t), welford_state)


@given(stream=streams(2), lam=st.lists(lams, min_size=2, max_size=2),
       split_at=cuts)
@settings(max_examples=150, deadline=None)
def test_covariance_fold_is_sequential_update(stream, lam, split_at):
    def make(k):
        return DampedCovariance(lam[k])
    check(DampedCovarianceFold([make(k) for k in range(2)]), make, stream,
          split_at, lambda acc, x, t, d: acc.update(x, t, d),
          covariance_state)


def test_fold_edges():
    seg = Segments(np.array([0]), np.array([2]))
    ints = np.array([3, 4], np.int64)
    ts = np.array([0, 10**9], np.int64)
    # Columns the arithmetic is not exact on: the fold steps aside.
    welford = DampedWelfordFold([DampedWelford(1.0, 8)])
    welford.grow(1)
    welford.clear([0])
    for values in (np.array([3, "x"], object),
                   np.array([3, (1 << 53) + 1], np.int64)):
        assert welford.trace(seg, [values], [None], ts, None,
                             [(0, "w")]) is None
    cov = DampedCovarianceFold([DampedCovariance(1.0)])
    cov.grow(1)
    assert cov.trace(seg, [ints], [None], ts, None, [(0, "pcc")]) is None
    # The original implementation's knobs ride the object column.
    knobs = DampedCovarianceFold([DampedCovariance(1.0, True)])
    knobs.grow(1)
    assert knobs.trace(seg, [ints], [None], ts, np.ones(2, np.int64),
                       [(0, "pcc")]) is None
    # All cells skipped: the empty state is snapshot, the clock unset.
    out = welford.trace(seg, [ints], [np.zeros(2, np.bool_)], ts, None,
                        [(0, "w"), (0, "mean"), (0, "std")])
    assert out.tolist() == [[0.0] * 3] * 2
    assert welford.last[0, 0] == -np.inf


def test_quantisation_is_the_scalar_shift_table():
    """The numpy shift table over the factors where ``frexp`` and the
    scalar ``floor(log2)`` can part: just below each power of two (where
    ``log2`` rounds up), subnormals, 0 and a random spread."""
    powers = np.ldexp(1.0, np.arange(-1074, 1))
    factors = np.concatenate((
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, 1.0),
        np.nextafter(np.nextafter(powers, 0.0), 0.0), [0.0],
        np.random.default_rng(2).uniform(0.0, 1.0, 2_000)))
    for bits in (8, 3):
        got = folds._quantized(factors, np.full(len(factors), bits))
        want = [quantize_decay(f, bits) for f in factors.tolist()]
        assert got.tobytes() == np.array(want).tobytes()
    exact = folds._quantized(factors, np.zeros(len(factors), np.int64))
    assert exact.tobytes() == factors.tobytes()


def test_pinned_values_need_pythons_pow():
    """Inputs a seeded search finds against the running libm, where
    ``np.exp2``, ``np.sqrt`` and ``x * x`` round differently from
    Python's ``**`` and the difference reaches a statistic: a fold
    taking any of those shortcuts fails here."""
    rng = np.random.default_rng(1)
    # Two-cell gaps whose decay np.exp2 rounds differently: w = f + 1.
    t0 = rng.integers(0, 10**12, 20_000)
    t1 = t0 + rng.integers(1, 10**11, 20_000)
    y = -0.1 * (t1 / NS_PER_S - t0 / NS_PER_S)
    gaps = [i for i, (fast, exact) in enumerate(zip(
        (np.exp2(y) + 1.0).tolist(), [2.0 ** v + 1.0 for v in y.tolist()]))
        if fast != exact][:4]
    # Two-cell runs (lam = 0) whose std np.sqrt rounds differently.
    pairs = rng.uniform(-1e3, 1e3, (20_000, 2)).tolist()
    var = [_two_cell_variance(*p) for p in pairs]
    roots = [i for i, (fast, v) in enumerate(zip(np.sqrt(var).tolist(), var))
             if fast != v ** 0.5][:4]
    # One-cell streams: ss / w - mean ** 2 is x * x - x ** 2, a radius
    # only where ** 2 rounds below x * x.
    xs = rng.uniform(-1e3, 1e3, 20_000).tolist()
    squares = [x for x in xs if x * x > x ** 2][:4]
    assert len(gaps) == len(roots) == len(squares) == 4
    runs = ([(0.1, [(int(t0[i]), 1.0), (int(t1[i]), 2.0)]) for i in gaps]
            + [(0.0, [(0, pairs[i][0]), (0, pairs[i][1])]) for i in roots]
            + [(0.0, [(0, x)]) for x in squares])
    for lam, run in runs:
        # Beside a longer group, so steps of two widths see the run.
        stream = ([(0, t, 1) for t, _x in run] + [(1, 5, -1)] * 6,
                  [[x for _t, x in run] + [3.0] * 6])
        check(DampedWelfordFold([DampedWelford(lam)]),
              lambda k: DampedWelford(lam), stream, [],
              lambda acc, x, t, d: acc.update(x, t), welford_state)
        check(DampedCovarianceFold([DampedCovariance(lam)]),
              lambda k: DampedCovariance(lam), stream, [],
              lambda acc, x, t, d: acc.update(x, t, d), covariance_state)


def _two_cell_variance(x1: float, x2: float) -> float:
    d = DampedWelford(0.0)
    d.update(x1, 0.0)
    d.update(x2, 0.0)
    return d.variance
