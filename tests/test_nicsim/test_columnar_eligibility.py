"""Which policies the engine's columnar path serves — as a manifest.

Eligibility is a declared property of each function class
(``declare_columnar_kernel``), decided once per section from probed
instances.  All seven per-group Table 3 policies must take the columnar
path and none of their cells the per-cell loop; everything the
declaration contract excludes — ``collect(pkt)``, a subclass overriding
``apply``/``update``, an undeclared registration, a later reader of a
map-shadowed metadata field — must stay per-cell *and* still match the
reference oracle.
"""

import os

import pytest

import repro.api as api
from repro.apps import APP_POLICIES, build_policy
from repro.apps.extensions import _DirectionGate
from repro.bench.parallel import vectors_checksum
from repro.cli import main
from repro.core.compiler import PolicyCompiler
from repro.core.functions import (
    COLUMNAR_KERNELS,
    FN_IMPLICIT_FIELDS,
    MAP_FNS,
    REDUCE_FNS,
    _FIpt,
    _FSum,
    declare_columnar_kernel,
    register_map_fn,
    register_reduce_fn,
)
from repro.core.policy import pktstream
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.nicsim.engine import FeatureEngine

PER_GROUP = ["CUMUL", "AWF", "DF", "TF", "PeerShark", "MPTD", "NPOD"]
PER_PACKET = ["Kitsune", "HELAD", "N-BaIoT"]


def engine_for(policy) -> FeatureEngine:
    return FeatureEngine(PolicyCompiler().compile(policy))


@pytest.fixture(scope="module")
def campus():
    return generate_trace("CAMPUS", n_flows=120, seed=5)


def reference_checksum(policy, trace) -> str:
    os.environ["SUPERFE_REFERENCE_PATH"] = "1"
    try:
        return vectors_checksum(api.compile(policy).run(trace).vectors)
    finally:
        del os.environ["SUPERFE_REFERENCE_PATH"]


def run_batch(policy, trace):
    """(checksum, engine counters) of a ``PacketBatch`` run."""
    result = api.compile(policy).run(PacketBatch.from_packets(trace))
    return (vectors_checksum(result.vectors),
            result.dataplane.counters()["engine"])


class TestManifest:
    def test_manifest_covers_table3(self):
        assert sorted(PER_GROUP + PER_PACKET) == sorted(APP_POLICIES)

    @pytest.mark.parametrize("app", PER_GROUP)
    def test_per_group_policy_is_columnar(self, app, campus):
        engine = engine_for(build_policy(app))
        assert engine._columnar
        assert engine.path() == ("columnar", None)
        checksum, counters = run_batch(build_policy(app), campus)
        assert counters["cells"] > 0
        assert counters["cells_per_cell"] == 0
        assert counters["cells_columnar"] == counters["cells"]
        assert checksum == reference_checksum(build_policy(app), campus)

    @pytest.mark.parametrize("app", PER_PACKET)
    def test_per_packet_policy_is_per_cell_because_collect_pkt(self, app):
        engine = engine_for(build_policy(app))
        assert not engine._columnar
        path, why = engine.path()
        assert path == "per-cell" and "collect(pkt)" in why

    def test_cli_apps_prints_the_path(self, capsys):
        assert main(["apps"]) == 0
        rows = {line.split()[0]: line
                for line in capsys.readouterr().out.splitlines()[1:]}
        for app in PER_GROUP:
            assert rows[app].rstrip().endswith("columnar")
        for app in PER_PACKET:
            assert "per-cell (collect(pkt)" in rows[app]


class _GateLoud(_DirectionGate):
    """Overrides ``apply``: the parent's kernel no longer describes it."""

    def apply(self, member, src_value):
        value = super().apply(member, src_value)
        return None if value is None else 2 * value


class _SumTwice(_FSum):
    __slots__ = ()

    def update(self, value, member) -> None:
        super().update(2 * value, member)


class _UserIpt:
    """Same arithmetic as ``f_ipt`` but never declared."""

    def __init__(self) -> None:
        self._prev = None

    def apply(self, member, src_value):
        prev, self._prev = self._prev, member.get("tstamp")
        return None if prev is None else self._prev - prev


@pytest.fixture()
def user_fns():
    register_map_fn("f_gate_loud", lambda spec, ctx: _GateLoud(1),
                    implicit_fields=("direction",))
    register_map_fn("f_user_ipt", lambda spec, ctx: _UserIpt(),
                    implicit_fields=("tstamp",))
    register_reduce_fn("f_sum_twice", lambda spec, ctx: _SumTwice())
    try:
        yield
    finally:
        for name in ("f_gate_loud", "f_user_ipt"):
            del MAP_FNS[name]
            FN_IMPLICIT_FIELDS.pop(name)
        del REDUCE_FNS["f_sum_twice"]
        COLUMNAR_KERNELS.pop(_UserIpt, None)


def flow_policy(map_fn="f_ipt", src="tstamp", reduce_fn="f_sum"):
    return (pktstream().groupby("flow")
            .map("x", src, map_fn)
            .reduce("x", [reduce_fn, "f_max"])
            .collect("flow"))


class TestOpaqueStaysPerCell:
    def check_per_cell(self, policy, campus, fn_name):
        engine = engine_for(policy)
        assert not engine._columnar
        path, why = engine.path()
        assert path == "per-cell" and why.startswith(fn_name)
        checksum, counters = run_batch(policy, campus)
        assert counters["cells_columnar"] == 0
        assert counters["cells_per_cell"] == counters["cells"] > 0
        assert checksum == reference_checksum(policy, campus)

    def test_builtin_twin_is_columnar(self, campus):
        assert engine_for(flow_policy())._columnar

    def test_subclass_overriding_apply(self, user_fns, campus):
        self.check_per_cell(flow_policy("f_gate_loud", "size"), campus,
                            "f_gate_loud")

    def test_subclass_overriding_update(self, user_fns, campus):
        self.check_per_cell(flow_policy(reduce_fn="f_sum_twice"), campus,
                            "f_sum_twice")

    def test_undeclared_registration_then_declared(self, user_fns, campus):
        policy = flow_policy("f_user_ipt")
        self.check_per_cell(policy, campus, "f_user_ipt")
        # Declaring the class — exactly what apps/extensions.py does for
        # its direction gate — is all it takes.
        kernel, reads, maybe_none = COLUMNAR_KERNELS[_FIpt]
        declare_columnar_kernel(_UserIpt, kernel, reads=tuple(reads),
                                maybe_none=maybe_none)
        assert engine_for(policy)._columnar
        checksum, counters = run_batch(policy, campus)
        assert counters["cells_per_cell"] == 0
        assert checksum == reference_checksum(policy, campus)

    def test_declaration_rejects_unknown_reads(self):
        with pytest.raises(ValueError, match="unknown kernel reads"):
            declare_columnar_kernel(_UserIpt, None, reads=("size",))


class TestShadowRule:
    """A map may overwrite ``direction``/``tstamp`` (AWF does); only a
    *later* function that reads the field through the member sees the
    difference, and only then must the section stay per-cell."""

    def shadowing_policy(self, app):
        # The app's maps, then one that overwrites ``direction`` with a
        # constant, then f_mag — whose update reads direction through
        # the member and so sees the *mapped* value per cell.
        base = build_policy(app)
        policy = pktstream().filter("tcp.exist").groupby("flow")
        for m in PolicyCompiler().compile(base).sections[0].maps:
            policy = policy.map(m.dst, m.src, str(m.fn))
        return (policy.map("direction", "one", "f_identity")
                .reduce("size", ["f_mag", "f_sum"])
                .collect("flow"))

    @pytest.mark.parametrize("app", ["CUMUL", "AWF"])
    def test_later_reader_of_shadowed_direction_stays_per_cell(
            self, app, campus):
        policy = self.shadowing_policy(app)
        engine = engine_for(policy)
        assert not engine._columnar
        assert engine.path() == (
            "per-cell", "f_mag: reads 'direction' after a map overwrote it")
        checksum, counters = run_batch(policy, campus)
        assert counters["cells_per_cell"] == counters["cells"] > 0
        assert checksum == reference_checksum(policy, campus)

    def test_shadow_without_later_reader_is_columnar(self):
        # AWF itself: f_direction reads the metadata *before* its own
        # write lands, f_array reads the mapped value as a source.
        assert engine_for(build_policy("AWF"))._columnar
