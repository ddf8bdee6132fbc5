"""``collect(pkt)`` policies on the slab under faults, against the
per-cell reference oracle.

Kitsune and HELAD keep their group state in slab rows; an orphan cell
demotes into its CG group's row between blocks, ``evict_idle`` frees
rows that later groups reuse, and ``crash()`` restarts the slabs empty.
In each case the vectors (values, order, degraded flags),
``skipped_updates``, ``total_state_bytes`` and every counter and table
statistic must be those of the reference run.
"""

import pytest

import repro.api as api
from repro.apps import build_policy
from repro.core.faults import FaultAction, FaultPlan
from repro.net.trace import generate_trace
from tests.conftest import engine_ledger, reference_path

APPS = ("Kitsune", "HELAD")
#: Counters that name the path a cell took, not what it computed.
PATH_COUNTERS = ("cells_columnar", "cells_per_cell")


@pytest.fixture(scope="module")
def trace():
    return generate_trace("CAMPUS", n_flows=60, seed=9)[:600]


def emitted(vectors) -> list:
    return [(tuple(v.key), v.values.tobytes(), v.degraded) for v in vectors]


def state(sink) -> list:
    """Per engine: counters (path counters aside), table statistics and
    live state bytes."""
    return [({k: v for k, v in counters.items() if k not in PATH_COUNTERS},
             tables, engine.total_state_bytes())
            for (counters, tables), engine
            in zip(engine_ledger(sink), getattr(sink, "engines", [sink]))]


def both(session):
    """``session()`` as the reference oracle and on the slab path."""
    with reference_path():
        reference = session()
    assert session() == reference
    return reference


@pytest.mark.parametrize("app", APPS)
def test_orphan_demotion_around_a_nic_kill(app, trace):
    """A NIC dies mid-stream while syncs are being lost: each orphan
    folds into its CG group's slab row, and that group's vectors turn
    degraded from the demotion on."""
    n = len(trace)
    plan = FaultPlan(seed=3, actions=(
        FaultAction(kind="link_loss", at_packet=n // 4, rate=0.1,
                    drop_kind="sync"),
        FaultAction(kind="nic_kill", at_packet=n // 2, nic=1)))

    def session():
        ex = api.compile(build_policy(app), n_nics=3, fault_plan=plan)
        result = ex.run(trace)
        cg = ex.compiled.cg.project
        return (emitted(result.vectors), state(result.engine),
                [cg(v.key) for v in result.vectors])

    vectors, engines, groups = both(session)
    assert sum(counters["orphan_cells"] for counters, *_ in engines) > 0
    # Some CG group has an unflagged vector before a flagged one.
    seen: dict = {}
    for (_key, _values, flag), group in zip(vectors, groups):
        seen.setdefault(group, []).append(flag)
    assert any(flags[0] is False and flags[-1] is True
               for flags in seen.values())


@pytest.mark.parametrize("app", APPS)
def test_evict_idle_then_row_reuse(app, trace):
    """Idle groups are reaped mid-stream; the groups that return later
    start from fresh (reused) rows."""
    half = len(trace) // 2

    def session():
        dataplane = api.compile(build_policy(app)).dataplane()
        try:
            first = emitted(dataplane.process(trace[:half]))
            engine = dataplane.sink
            resident = engine.total_state_bytes()
            now = trace[half - 1].tstamp
            reaped = engine.evict_idle(
                now_ns=now, timeout_ns=(now - trace[0].tstamp) // 4)
            middle = state(engine)
            rest = emitted(dataplane.process(trace[half:]))
            return first, resident, reaped, middle, rest, state(engine)
        finally:
            dataplane.close()

    first, resident, reaped, middle, rest, _final = both(session)
    assert first and rest and reaped == []
    assert 0 < middle[0][2] < resident


@pytest.mark.parametrize("app", APPS)
def test_crash_then_restart_empty(app, trace):
    """``crash()`` mid-stream: no residual vectors (they left the device
    per packet), empty slabs, and the groups rebuilt from scratch."""
    half = len(trace) // 2

    def session():
        dataplane = api.compile(build_policy(app)).dataplane()
        try:
            first = emitted(dataplane.process(trace[:half]))
            engine = dataplane.sink
            residual = engine.crash()
            empty = engine.total_state_bytes()
            rest = emitted(dataplane.process(trace[half:]))
            return first, residual, empty, rest, state(engine)
        finally:
            dataplane.close()

    first, residual, empty, rest, _final = both(session)
    assert first and rest and residual == [] and empty == 0
