"""Columnar group state against the reference path.

A per-group policy on the block path keeps its group state in slabs
(numpy columns indexed by group row) and folds a block's groups all at
once; ``SUPERFE_REFERENCE_PATH=1`` keeps one object graph per group and
one update per cell.  Everything observable must be equal: vectors and
their emission order, names, ``widths``, degraded flags, every engine
counter and every ``GroupTableStats`` field — for the ten Table 3
policies and the benchmark's ``flow_stats_policy`` on hardware
(``n_nics=4``) and in software, and for the session shapes the
benchmark does not take.
"""

import pytest

import repro.api as api
from repro.apps import APP_POLICIES, build_policy
from repro.core.compiler import PolicyCompiler
from repro.core.faults import FaultAction, FaultPlan
from repro.core.policy import pktstream
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.nicsim.engine import FeatureEngine
from repro.switchsim.mgpv import FGSync, MGPVRecord
from tests.conftest import engine_ledger, reference_path

PER_PACKET = ("Kitsune", "HELAD", "N-BaIoT")
#: Counters that name the path a cell took, not what it computed.
PATH_COUNTERS = ("cells_columnar", "cells_per_cell")


def flow_stats_policy():
    """``benchmarks/perf``'s policy of the three flow workloads."""
    return (pktstream().filter("tcp.exist").groupby("flow")
            .map("one", None, "f_one").map("ipt", "tstamp", "f_ipt")
            .reduce("one", ["f_sum"])
            .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
            .reduce("ipt", ["f_mean", "f_var", "f_min", "f_max"])
            .collect("flow"))


def chain_policy():
    """Two sections: per-socket vectors with their host's features."""
    return (pktstream().groupby("host")
            .map("ipt", "tstamp", "f_ipt")
            .reduce("size", ["f_sum", "f_mean"]).reduce("ipt", ["f_max"])
            .collect("socket")
            .groupby("socket")
            .reduce("size", ["f_std", "ft_percent{50, 100, 16}"])
            .collect("socket"))


POLICIES = {**{app: spec.build for app, spec in APP_POLICIES.items()},
            "flow-stats": flow_stats_policy}


@pytest.fixture(scope="module")
def campus():
    return generate_trace("CAMPUS", n_flows=60, seed=9)


def emitted(vectors) -> list:
    return [(tuple(v.key), v.names, v.values.tobytes(), v.degraded,
             v.widths) for v in vectors]


def ledger(sink) -> tuple:
    """Per engine: its counters (path counters aside) and every field of
    every section's table statistics."""
    return tuple(
        ({k: v for k, v in counters.items() if k not in PATH_COUNTERS},
         tables) for counters, tables in engine_ledger(sink))


def outcome(policy, trace, **kw) -> tuple:
    result = api.compile(policy, **kw).run(trace)
    return emitted(result.vectors), ledger(result.engine)


@pytest.mark.parametrize("software", [False, True], ids=["hw", "sw"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policy_equals_reference(name, software, campus):
    trace = campus[:300 if name in PER_PACKET else 1500]
    kw = {"software": True} if software else {"n_nics": 4}
    with reference_path():
        reference = outcome(POLICIES[name](), trace, **kw)
    assert reference[0]
    assert outcome(POLICIES[name](), trace, **kw) == reference


def test_per_group_policies_keep_state_in_slabs():
    layouts = {name: FeatureEngine(
        PolicyCompiler().compile(build())).path() for name, build
        in POLICIES.items()}
    for name in ("MPTD", "NPOD", "PeerShark", "flow-stats"):
        assert layouts[name] == ("slab", None)
    assert layouts["CUMUL"] == ("slab+objects", "f_ingress_only")
    for name in ("AWF", "DF", "TF"):
        assert layouts[name] == ("slab+objects", "f_array")
    for name in PER_PACKET:
        assert layouts[name] == ("columnar", None)


def test_input_forms(campus):
    policy = POLICIES["MPTD"]()
    with reference_path():
        reference = emitted(api.compile(policy).run(campus).vectors)
    ex = api.compile(policy)
    streamed = [v for chunk in ex.stream(campus, batch_size=150)
                for v in chunk]
    assert emitted(streamed) == reference
    for form in (list, PacketBatch.from_packets):
        assert emitted(ex.run(form(campus)).vectors) == reference


@pytest.mark.parametrize("build", [flow_stats_policy, chain_policy])
def test_snapshot_between_two_process_calls(build, campus):
    """The slab outlives a drain: the second block gathers the rows the
    first one scattered."""
    half = len(campus) // 2

    def session():
        dataplane = api.compile(build(), n_nics=2).dataplane()
        try:
            dataplane.process(campus[:half])
            middle = emitted(dataplane.snapshot())
            dataplane.process(PacketBatch.from_packets(campus[half:]))
            return middle, emitted(dataplane.flush()), ledger(
                dataplane.cluster)
        finally:
            dataplane.close()

    with reference_path():
        reference = session()
    assert reference[0] and reference[0] != reference[1]
    assert session() == reference


def test_link_loss_demotes_orphans_into_slab_rows(campus):
    """Sync loss under a per-group policy: an orphan cell folds into its
    CG group's slab row, between the blocks of attributed cells."""
    plan = FaultPlan(seed=5, actions=(
        FaultAction(kind="link_loss", at_packet=0, rate=0.1,
                    drop_kind="sync"),))

    def run(form):
        result = api.compile(chain_policy(), fault_plan=plan).run(
            form(campus))
        return emitted(result.vectors), ledger(result.engine)

    with reference_path():
        reference = run(list)
    counters = reference[1][0][0]
    assert counters["orphan_cells"] > 0 and counters["degraded_cells"] > 0
    assert any(flag for *_v, flag, _w in reference[0])
    assert run(list) == reference
    assert run(PacketBatch.from_packets) == reference


# -- hand-fed sessions -------------------------------------------------------

SOCKETS = [(1, 2, 10, 20, 6), (1, 3, 11, 21, 6), (4, 2, 12, 22, 6)]


def fed_engine() -> FeatureEngine:
    """``chain_policy`` with three sockets (two of one host) resident."""
    engine = FeatureEngine(PolicyCompiler().compile(chain_policy()))
    fields = engine.compiled.metadata_fields
    for idx, (key, stamp) in enumerate(zip(SOCKETS, (1_000, 2_000, 9_000))):
        cells = tuple(
            (idx, tuple({"size": 100 + 7 * j + idx, "tstamp": stamp + j,
                         "direction": 1}[f] for f in fields))
            for j in range(3))
        engine.consume_batch([FGSync(idx, key),
                              MGPVRecord(key[:1], 0, cells, "t")])
    return engine


def both(session):
    """``session(engine)`` on the slab engine and on the reference one."""
    with reference_path():
        reference = session(fed_engine())
    engine = fed_engine()
    assert engine.path() == ("slab", None)
    assert session(engine) == reference
    return reference


def test_evict_idle_then_row_reuse():
    def session(engine):
        evicted = emitted(engine.evict_idle(now_ns=9_500, timeout_ns=5_000))
        # New groups take the freed rows: their state must start fresh.
        fields = engine.compiled.metadata_fields
        cell = tuple({"size": 55, "tstamp": 9_600, "direction": 1}[f]
                     for f in fields)
        for idx, key in enumerate([(7, 8, 1, 2, 6), (1, 9, 3, 4, 6)]):
            engine.consume_batch([FGSync(5 + idx, key), MGPVRecord(
                key[:1], 0, ((5 + idx, cell),), "t")])
        return (evicted, emitted(engine.finalize()),
                engine.total_state_bytes(), ledger(engine))

    evicted, final, *_ = both(session)
    assert sorted(key for key, *_v in evicted) == SOCKETS[:2]
    assert len(final) == 3


def test_vector_omits_a_reaped_coarser_section():
    """A socket whose host group is gone emits its own section only."""
    def session(engine):
        engine.table_stats()        # drain
        host_table = engine._tables[0][1]
        assert host_table.remove((1,))
        return emitted(engine.finalize())

    vectors = both(session)
    widths = {key: len(names) for key, names, *_v in vectors}
    assert widths == {SOCKETS[0]: 2, SOCKETS[1]: 2, SOCKETS[2]: 5}


def test_crash_demotes_and_restarts_empty():
    def session(engine):
        residual = emitted(engine.crash())
        key = SOCKETS[0]
        cell = tuple({"size": 9, "tstamp": 20_000, "direction": 1}[f]
                     for f in engine.compiled.metadata_fields)
        engine.consume_batch([FGSync(0, key),
                              MGPVRecord(key[:1], 0, ((0, cell),), "t")])
        return residual, emitted(engine.finalize()), ledger(engine)

    residual, final, _ledger = both(session)
    assert len(residual) == 3 and all(flag for *_v, flag, _w in residual)
    assert len(final) == 1


@pytest.mark.parametrize("sizes", [
    (1 << 62, 3, 1 << 70),          # an object column for numpy, too
    ((1 << 63) + 1, 3),             # numpy alone would round to float64
    ((1 << 53) + 1, 1, 0.0),        # int sum exact, float sum is not
    (3, 2.5, 7)], ids=str)
def test_out_of_range_block_moves_the_family_to_objects(sizes):
    """Values no int64 / float64 column holds exactly (an int past
    int64, ints beside floats): the fold hands its rows to an object
    column and the bits stay those of the per-value path."""
    def session(engine):
        key = SOCKETS[0]
        fields = engine.compiled.metadata_fields
        cells = tuple(
            (0, tuple({"size": size, "tstamp": 30_000 + j,
                       "direction": 1}[f] for f in fields))
            for j, size in enumerate(sizes))
        engine.consume_batch([MGPVRecord(key[:1], 0, cells, "t")])
        return (emitted(engine.finalize()), engine.total_state_bytes(),
                engine.path()[0])

    with reference_path():
        reference = session(fed_engine())
    assert session(fed_engine()) == (*reference[:2], "slab+objects")
