"""Member columns: one function demoted, not its section.

A function whose declared batch twin cannot serve it runs on the slab
as a *member column* — one object per row, each cell's member view (the
metadata overlaid with the maps before it) handed to ``apply`` /
``update`` in segment order — while its declared siblings keep their
native folds.  Everything observable must equal the per-cell reference
oracle (``tests/reference/engine.py``), which must itself stay free of
the slab machinery it checks.
"""

import ast
import pathlib

import pytest

import repro.api as api
from repro.apps.extensions import install
from repro.core.compiler import PolicyCompiler
from repro.core.faults import FaultAction, FaultPlan
from repro.core.functions import (
    FN_IMPLICIT_FIELDS,
    MAP_FNS,
    REDUCE_FNS,
    register_map_fn,
    register_reduce_fn,
)
from repro.core.policy import pktstream
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.nicsim.engine import FeatureEngine
from repro.streaming.folds import (
    DampedWelfordFold,
    IptMap,
    ObjectFold,
    ObjectMap,
    SumFold,
)
from tests.conftest import engine_ledger, reference_path
from tests.reference import engine as oracle


class _UserScale:
    """A user map nobody declared: the packet size in kilobytes, read
    through the member."""

    def apply(self, member, src_value):
        return member.get("size") / 1024


class _UserSpan:
    """A user reducer nobody declared: the span of its values."""

    state_bytes = 16

    def __init__(self) -> None:
        self.lo = self.hi = None

    def update(self, value, member) -> None:
        self.lo = value if self.lo is None else min(self.lo, value)
        self.hi = value if self.hi is None else max(self.hi, value)

    def finalize(self) -> float:
        return 0.0 if self.lo is None else float(self.hi - self.lo)


@pytest.fixture()
def user_fns():
    install()       # the damped reducers
    register_map_fn("f_user_scale", lambda spec, ctx: _UserScale(),
                    implicit_fields=("size",))
    register_reduce_fn("f_user_span", lambda spec, ctx: _UserSpan())
    try:
        yield
    finally:
        del MAP_FNS["f_user_scale"], REDUCE_FNS["f_user_span"]
        FN_IMPLICIT_FIELDS.pop("f_user_scale")


@pytest.fixture(scope="module")
def campus():
    return generate_trace("CAMPUS", n_flows=60, seed=13)[:800]


def engine_for(policy) -> FeatureEngine:
    return FeatureEngine(PolicyCompiler().compile(policy))


def member_fns(engine) -> list[str]:
    """The functions running as member columns, section by section."""
    out = []
    for plan in engine._plans:
        cmaps, creds, *_ = plan.columnar
        out += [str(plan.map_fns[m]) for m, _d, _k, mode, *_ in cmaps
                if mode == plan._SRC_MEMBER]
        out += [str(plan.red_feats[cred[3]].reduce_fn)
                for cred in creds if cred[7]]
    return out


#: Declared reducers with native folds, per collect unit.
DECLARED = {"host": ["f_sum", "f_std", "f_max"],
            "pkt": ["f_dw{lam=1}", "f_dstd{lam=1}"]}
FOLD = {"host": SumFold, "pkt": DampedWelfordFold}


def mixed_policy(unit: str):
    """An undeclared map and an undeclared reducer beside declared ones,
    all in one section; the reducer reads the member map's output."""
    return (pktstream().groupby("host")
            .map("ipt", "tstamp", "f_ipt")
            .map("kb", None, "f_user_scale")
            .reduce("ipt", DECLARED[unit])
            .reduce("kb", ["f_user_span"])
            .reduce("size", DECLARED[unit])
            .collect(unit))


def observed(result) -> tuple:
    engine = result.engine
    return ([(tuple(v.key), v.names, v.values.tobytes(), v.degraded,
              v.widths) for v in result.vectors],
            engine_ledger(engine), engine.total_state_bytes())


def oracle_view(result) -> tuple:
    """The oracle's observation with its path counters as the slab's:
    every cell but the orphans on the block path."""
    vectors, ledger, state_bytes = observed(result)
    return vectors, [({**counters,
                       "cells_columnar": (counters["cells"]
                                          - counters["orphan_cells"]),
                       "cells_per_cell": counters["orphan_cells"]}, tables)
                     for counters, tables in ledger], state_bytes


@pytest.mark.parametrize("unit", ["host", "pkt"])
@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "orphans"])
def test_undeclared_map_and_reducer_beside_declared(user_fns, campus,
                                                    unit, lossy):
    policy = mixed_policy(unit)
    engine = engine_for(policy)
    assert member_fns(engine) == ["f_user_scale", "f_user_span"]
    assert engine.path() == ("slab+objects",
                             "f_user_scale: no declared batch kernel")
    slab = engine._slabs[0]
    assert [type(fold) for fold in slab.maps] == [IptMap, ObjectMap]
    assert isinstance(slab.reds[0], FOLD[unit])
    assert sum(isinstance(fold, ObjectFold)
               for fold in set(slab.reds.values())) == 1
    kw = {}
    if lossy:
        kw["fault_plan"] = FaultPlan(seed=3, actions=(FaultAction(
            kind="link_loss", at_packet=0, rate=0.1, drop_kind="sync"),))
    with reference_path():
        ref = api.compile(policy, **kw).run(campus)
    want = oracle_view(ref)
    assert want[0]
    assert (want[1][0][0]["orphan_cells"] > 0) is lossy
    for trace in (campus, PacketBatch.from_packets(campus)):
        assert observed(api.compile(policy, **kw).run(trace)) == want


def test_ragged_per_packet_vectors():
    """``f_array`` under ``collect(pkt)``: one vector per packet, as wide
    as the host's values so far, ``widths`` set on every one."""
    trace = generate_trace("CAMPUS", n_flows=40, seed=3)[:200]
    policy = (pktstream().groupby("host").reduce("size", ["f_array"])
              .collect("pkt"))
    vectors = api.compile(policy).run(trace).vectors
    assert len(vectors) == 200
    seen: dict = {}
    for vec in vectors:
        seen[vec.key] = seen.get(vec.key, 0) + 1
        assert vec.widths == (seen[vec.key],)
        assert vec.values.shape == (seen[vec.key],)
    assert max(seen.values()) > 1
    with reference_path():
        ref = api.compile(policy).run(trace).vectors
    assert [(v.key, v.values.tobytes(), v.widths) for v in vectors] == [
        (v.key, v.values.tobytes(), v.widths) for v in ref]


def test_absent_source_raises_like_the_oracle(campus):
    """A map whose source some member lacks (``ipt`` on a group's first
    packet) raises KeyError, as the member view does per cell."""
    policy = (pktstream().groupby("flow")
              .map("ipt", "tstamp", "f_ipt")
              .map("gap", "ipt", "f_identity")
              .reduce("gap", ["f_sum"]).collect("flow"))
    assert engine_for(policy).path() == (
        "slab+objects", "f_identity: source 'ipt' can be absent")
    with pytest.raises(KeyError, match="ipt"):
        api.compile(policy).run(campus)
    with reference_path(), pytest.raises(KeyError, match="ipt"):
        api.compile(policy).run(campus)


def test_oracle_stays_off_the_slab():
    """The oracle imports nothing of what it checks."""
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"_Slab", "_SectionPlan", "_fold_section",
                           "repro.streaming.folds"}
    assert not any(name.startswith("repro.streaming.folds")
                   for name in imported if name)
