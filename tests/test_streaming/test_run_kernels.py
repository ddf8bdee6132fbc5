"""Run kernels vs the sequential recurrence, bit for bit.

``DampedWelford.update_run`` / ``DampedCovariance.update_run`` are what
the engine's block path calls for ``collect(pkt)`` policies instead of
one ``update`` plus every ``finalize()`` property per cell; the engine's
equivalence gate assumes they are *exact* twins — the same state and the
same snapshot rows after any run, however it is split into runs.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.damped import DampedCovariance, DampedWelford

finite = dict(allow_nan=False, allow_infinity=False)
# None is "no update, snapshot anyway" (the first-packet f_ipt skip).
values = st.one_of(
    st.none(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(min_value=-1e9, max_value=1e9, **finite))
# Few distinct stamps, so equal and decreasing timestamps are common.
stamps = st.one_of(st.integers(min_value=0, max_value=6).map(float),
                   st.floats(min_value=0.0, max_value=1e4, **finite))
cells = st.lists(st.tuples(values, stamps, st.sampled_from([1, -1, 0])),
                 max_size=40)
one_sided = st.lists(st.tuples(values, stamps, st.just(-1)), max_size=20)
lams = st.sampled_from([0, 0.01, 1.0, 5.0])
cuts = st.lists(st.integers(min_value=0, max_value=40), max_size=3)
# An unwanted statistic is pointed at the scratch column.
wanted = st.lists(st.booleans(), min_size=4, max_size=4)
SCRATCH = 2


def bits(*floats) -> bytes:
    # Bit patterns, so -0.0 vs 0.0 or a last-ulp drift cannot hide.
    return array("d", floats).tobytes()


def welford_state(d):
    return d.last_t, bits(d.w, d.mean, d.m2)


def covariance_state(d):
    return (d.last_t, d.a.last_t, d.b.last_t,
            bits(d.a.w, d.a.ls, d.a.ss, d.b.w, d.b.ls, d.b.ss, d.sr,
                 d.w_joint, d._last_res_a, d._last_res_b))


def run_in_pieces(acc, run, split_at, cols, memo, stride):
    """Drive ``update_run`` over ``run`` cut at ``split_at``; returns the
    snapshot buffer (``stride`` slots per cell, untouched slots NaN)."""
    out = array("d", [float("nan")]) * (stride * len(run))
    at = list(range(0, stride * len(run), stride))
    edges = [0, *sorted(min(c, len(run)) for c in split_at), len(run)]
    for lo, hi in zip(edges, edges[1:]):
        piece = run[lo:hi]
        acc.update_run([c[0] for c in piece], [c[1] for c in piece],
                       [c[2] for c in piece], out, at[lo:hi], cols, memo)
    return out


def expected_rows(acc, run, cols, stride, update):
    out = array("d", [float("nan")]) * (stride * len(run))
    for j, (x, t, d) in enumerate(run):
        if x is not None:
            update(x, t, d)
        for c, name in zip(cols, acc.RUN_STATS):
            out[j * stride + c] = getattr(acc, name)
    return out


def wanted_slots(out, stride):
    kept = array("d", out)
    for base in range(SCRATCH, len(kept), stride):
        kept[base] = 0.0
    return kept.tobytes()


def columns(mask, n_stats):
    """Distinct scattered columns for the wanted stats of a family."""
    order = [3, 0, 4, 1]
    return tuple(order[k] if mask[k] else SCRATCH for k in range(n_stats))


@given(run=cells, lam=lams, quant=st.sampled_from([None, 8, 3]),
       split_at=cuts, mask=wanted, shared_memo=st.booleans())
@settings(max_examples=120, deadline=None)
def test_welford_run_kernel_is_sequential_update(run, lam, quant, split_at,
                                                 mask, shared_memo):
    cols = columns(mask, 3)
    sequential = DampedWelford(lam, quant)
    want = expected_rows(sequential, run, cols, 5,
                         lambda x, t, d: sequential.update(x, t))
    kernel = DampedWelford(lam, quant)
    # A shared memo arrives warm from a sibling over the same gaps.
    memo = {} if shared_memo else None
    if shared_memo:
        run_in_pieces(DampedWelford(lam, quant), run, [], cols, memo, 5)
    got = run_in_pieces(kernel, run, split_at, cols, memo, 5)
    assert wanted_slots(got, 5) == wanted_slots(want, 5)
    assert welford_state(kernel) == welford_state(sequential)


@given(run=st.one_of(cells, one_sided), lam=lams, split_at=cuts,
       mask=wanted,
       knobs=st.sampled_from([(False, None), (True, None), (False, 0.25),
                              (True, 0.5)]))
@settings(max_examples=120, deadline=None)
def test_covariance_run_kernel_is_sequential_update(run, lam, split_at,
                                                    mask, knobs):
    cols = columns(mask, 4)
    sequential = DampedCovariance(lam, *knobs)
    want = expected_rows(sequential, run, cols, 5, sequential.update)
    kernel = DampedCovariance(lam, *knobs)
    got = run_in_pieces(kernel, run, split_at, cols, {}, 5)
    assert wanted_slots(got, 5) == wanted_slots(want, 5)
    assert covariance_state(kernel) == covariance_state(sequential)


def test_run_kernel_edges():
    # Length-0 run: nothing written, state untouched.
    d = DampedWelford(1.0, 8)
    out = array("d", [7.0] * 3)
    d.update_run([], [], None, out, [], (0, 1, 2))
    assert list(out) == [7.0] * 3 and d.last_t is None
    # A run of Nones snapshots the empty state and never sets the clock.
    d.update_run([None], [5.0], None, out, [0], (0, 1, 2))
    assert list(out) == [0.0, 0.0, 0.0] and d.last_t is None
    # Length-1 run, one column wanted: the others share a scratch slot.
    d.update_run([4], [5.0], None, out, [1], (-1, 1, -1))
    assert list(out)[1:] == [0.0, 4.0] and d.last_t == 5.0
    # One memo serves equal-parameter siblings and keeps others apart.
    memo: dict = {}
    for lam in (1.0, 1.0, 2.0):
        DampedWelford(lam, 8).update_run(
            [1, 2, 3], [0.0, 0.5, 1.0], None, out, [0, 0, 0], (0, 1, 2),
            memo)
    assert {k: sorted(v) for k, v in memo.items()} == {
        (1.0, 8): [0.5], (2.0, 8): [0.5]}
    c = DampedCovariance(1.0)
    out = array("d", [7.0] * 4)
    c.update_run([], [], [], out, [], (0, 1, 2, 3))
    c.update_run([None], [1.0], [1], out, [0], (0, 1, 2, 3))
    assert list(out) == [0.0] * 4 and c.last_t is None
