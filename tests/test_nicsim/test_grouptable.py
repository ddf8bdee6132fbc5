"""Group tables with fixed-length chaining and DRAM overflow."""

import pytest

from repro.nicsim.grouptable import GroupTable
from repro.nicsim.memory import CLS, CTM


def make_table(n_indices=16, width=4, entry_bytes=16, level=CTM):
    counter = {"n": 0}

    def factory():
        counter["n"] += 1
        return {"id": counter["n"]}

    return GroupTable(n_indices, width, entry_bytes, level, factory)


def test_geometry_validation():
    with pytest.raises(ValueError):
        make_table(n_indices=0)
    with pytest.raises(ValueError):
        make_table(width=0)


def test_bus_fit_check():
    assert make_table(width=4, entry_bytes=16).fits_bus()
    assert not make_table(width=4, entry_bytes=32).fits_bus()


def test_lookup_insert_and_hit():
    t = make_table()
    state, created = t.lookup_or_insert(("a",))
    assert created
    again, created2 = t.lookup_or_insert(("a",))
    assert not created2
    assert again is state
    assert len(t) == 1
    assert t.stats.inserts == 1
    assert t.stats.lookups == 2


def test_get_without_insert():
    t = make_table()
    assert t.get(("missing",)) is None
    t.lookup_or_insert(("x",))
    assert t.get(("x",)) is not None


def test_overflow_to_dram():
    t = make_table(n_indices=1, width=2)
    keys = [(i,) for i in range(5)]
    for k in keys:
        t.lookup_or_insert(k)
    assert len(t) == 5
    assert t.stats.dram_hits >= 3          # inserts past the bucket
    assert t.stats.dram_entries_peak == 3
    # Overflowed entries are still found.
    for k in keys:
        state, created = t.lookup_or_insert(k)
        assert not created


def test_collision_rate():
    t = make_table(n_indices=1, width=1)
    t.lookup_or_insert((1,))
    t.lookup_or_insert((2,))
    assert 0 < t.stats.collision_rate <= 1.0


def test_access_cycles_accumulate():
    fast = make_table(level=CLS)
    slow = make_table(level=CTM)
    for i in range(10):
        fast.lookup_or_insert((i,))
        slow.lookup_or_insert((i,))
    assert slow.stats.access_cycles > fast.stats.access_cycles


def test_items_iterates_all():
    t = make_table(n_indices=1, width=1)
    for i in range(4):
        t.lookup_or_insert((i,))
    assert len(list(t.items())) == 4


def test_memory_bytes():
    t = make_table(n_indices=16, width=4, entry_bytes=16)
    assert t.memory_bytes() == 16 * 4 * 16


def test_get_returns_falsy_states():
    """A falsy state (an empty container, row index 0) is a resident
    entry, not a miss: ``get`` must not fall through to the overflow
    table on it."""
    states = iter([[], 0, {}])
    t = GroupTable(1, 2, 16, CTM, lambda: next(states))
    for key in (("a",), ("b",), ("c",)):       # third one overflows
        t.lookup_or_insert(key)
    assert t.get(("a",)) == [] and t.get(("a",)) is not None
    assert t.get(("b",)) == 0 and t.get(("b",)) is not None
    assert t.get(("c",)) == {} and t.get(("c",)) is not None
    # A key shadowed in the overflow table must not win over a falsy
    # bucket entry.
    t._overflow[("a",)] = "stale"
    assert t.get(("a",)) == []
