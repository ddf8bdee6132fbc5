"""Declared accumulator sharing: one accumulator per distinct statistic.

Reducer classes declare (``declare_shared_accumulator``) that their whole
per-group state is one streaming accumulator; the engine keeps a single
accumulator per ``(source, attr, accumulator type, accumulator params)``
and allocates the followers as bare shells.  The NIC *model's* numbers
(state bytes, entry bytes, table stats, placement) stay per feature —
the values pinned at the bottom were recorded from the commit before
sharing was widened to parameterised and extension families.
"""

import pytest

import repro.api as api
from repro.apps import build_policy
from repro.apps.extensions import _FDmean
from repro.core.compiler import PolicyCompiler
from repro.core.functions import (
    FN_IMPLICIT_FIELDS,
    REDUCE_FNS,
    SHARED_ACCUMULATORS,
    declare_shared_accumulator,
    make_reduce_fn,
    reducer_share_plan,
    register_reduce_fn,
)
from repro.core.policy import pktstream
from repro.net.trace import generate_trace
from repro.nicsim.engine import FeatureEngine, _GroupState, _shell_plan
from repro.streaming.histogram import FixedWidthHistogram


def section_states(policy):
    """{granularity name: a fresh group state} for a policy's sections."""
    engine = FeatureEngine(PolicyCompiler().compile(policy))
    return {section.granularity.name: _GroupState(plan)
            for (section, _table), plan
            in zip(engine._tables, engine._plans)}


def accumulators(state):
    """Distinct accumulator objects behind a group's declared reducers."""
    return {id(getattr(r, SHARED_ACCUMULATORS[type(r)]))
            for r in state.red_all if type(r) in SHARED_ACCUMULATORS}


def followers(*specs, sources=None):
    """Follower indices of the share plan over ``specs`` (all reducing
    ``size`` unless ``sources`` says otherwise)."""
    sources = sources or ["size"] * len(specs)
    plan = reducer_share_plan(
        (src, make_reduce_fn(spec)) for src, spec in zip(sources, specs))
    return [f for f, _leader, _attr in plan]


class TestStructure:
    def test_kitsune_group_holds_35_accumulators_not_115(self):
        states = section_states(build_policy("Kitsune"))
        assert {name: len(accumulators(s))
                for name, s in states.items()} == {
            "host": 10, "channel": 15, "socket": 10}
        assert sum(len(s.red_all) for s in states.values()) == 115
        # Only the 35 leaders are driven; followers sit as None.
        assert sum(r is not None for s in states.values()
                   for r in s.red_objs) == 35

    def test_kitsune_followers_are_bare_shells(self):
        """Extension reducers have opaque factories; the shell class
        comes from the probed instance, so all 80 followers skip
        ``__init__`` (no accumulator built and thrown away)."""
        states = section_states(build_policy("Kitsune"))
        shells = [shell for s in states.values()
                  for shell in s.plan.red_shells if shell is not None]
        assert len(shells) == 80

    def test_parameterised_followers_are_shells_too(self, monkeypatch):
        """``_FtPercent`` carries ``q`` beside its histogram: the shell
        plan copies such immutable parameter slots from the probe, so a
        new MPTD flow constructs its 4 leader histograms and nothing
        for the 16 followers."""
        engine = FeatureEngine(PolicyCompiler().compile(
            build_policy("MPTD")))
        plan = engine._plans[0]
        followers = [i for i, fol in enumerate(plan.red_followers) if fol]
        assert all(plan.red_shells[i] is not None for i in followers)
        built = []
        init = FixedWidthHistogram.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(FixedWidthHistogram, "__init__", counting_init)
        state = _GroupState(plan)
        assert len(built) == 4
        # The shells are complete objects: own q, the leader's histogram.
        deciles = [r for r in state.red_all if hasattr(r, "q")]
        assert [r.q for r in deciles] == 2 * [float(q)
                                              for q in range(10, 100, 10)]
        assert len({id(r._h) for r in deciles}) == 2

    def test_mutable_parameter_slot_is_constructed_normally(self):
        """Copying a probe's slot by reference is only safe for
        immutable values; anything else falls back to ``__init__``."""
        class Acc:
            params = ()

        class WithList:
            __slots__ = ("_a", "seen")

            def __init__(self):
                self._a = Acc()
                self.seen = []

        class WithFloat:
            __slots__ = ("_a", "q")

            def __init__(self):
                self._a = Acc()
                self.q = 0.5

        assert _shell_plan(WithList(), "_a") is None
        assert _shell_plan(WithFloat(), "_a") == (WithFloat, (("q", 0.5),))

    def test_mptd_flow_group_holds_4_histograms_not_20(self):
        state = section_states(build_policy("MPTD"))["flow"]
        hists = {id(r._h) for r in state.red_all if hasattr(r, "_h")}
        assert len([r for r in state.red_all if hasattr(r, "_h")]) == 20
        assert len(hists) == 4


class TestSharingKey:
    def test_positional_and_keyword_lambda_share(self):
        assert followers("f_dmean{5}", "f_dmean{lam=5}") == [1]

    def test_whole_damped_family_shares_per_lambda(self):
        assert followers("f_dw{lam=1}", "f_dmean{lam=1}",
                         "f_dstd{lam=1}") == [1, 2]
        assert followers("f_dmag{lam=1}", "f_dradius{lam=1}",
                         "f_dcov{lam=1}", "f_dpcc{lam=1}") == [1, 2, 3]
        # 1D and 2D keep different accumulator types.
        assert followers("f_dmean{lam=1}", "f_dmag{lam=1}") == []

    def test_different_lambda_does_not_share(self):
        assert followers("f_dmean{lam=5}", "f_dmean{lam=3}") == []

    def test_same_lambda_over_different_sources_does_not_share(self):
        assert followers("f_dmean{lam=5}", "f_dmean{lam=5}",
                         sources=["size", "ipt"]) == []

    def test_histogram_family_keyed_by_shape(self):
        assert followers("ft_percent{50, 100, 16}",
                         "ft_percent{50, 100, 32}") == []
        assert followers("ft_percent{50, 100, 16}",
                         "ft_percent{90, 100, 16}",
                         "f_pdf{100, 16}", "ft_hist{100, 16}") == [1, 2, 3]


class _FDmeanDoubled(_FDmean):
    """A user subclass of a declared class that changes ``update``."""

    __slots__ = ()

    def update(self, value, member) -> None:
        super().update(2 * value, member)


def test_subclass_overriding_update_keeps_private_state():
    register_reduce_fn("f_dmean_doubled",
                       lambda spec, ctx: _FDmeanDoubled(spec, ctx),
                       implicit_fields=("tstamp",))
    try:
        assert followers("f_dmean{lam=0}", "f_dmean_doubled{lam=0}",
                         "f_dstd{lam=0}") == [2]
        policy = (pktstream().groupby("host")
                  .reduce("size", ["f_dmean{lam=0}",
                                   "f_dmean_doubled{lam=0}"])
                  .collect("host"))
        packets = generate_trace("CAMPUS", n_flows=10, seed=2)
        with api.compile(policy) as ex:
            vectors = ex.run(packets).vectors
    finally:
        del REDUCE_FNS["f_dmean_doubled"]
        FN_IMPLICIT_FIELDS.pop("f_dmean_doubled")
    assert vectors
    for v in vectors:
        assert v.values[1] == pytest.approx(2 * v.values[0])


def test_accumulator_without_params_cannot_be_declared_silently():
    """The key needs the accumulator's parameters; one that does not
    expose ``params`` fails at plan time instead of sharing blindly."""
    class Acc:
        pass

    class Red:
        def __init__(self):
            self._a = Acc()

    declare_shared_accumulator(Red, "_a")
    try:
        with pytest.raises(AttributeError, match="params"):
            reducer_share_plan([("size", Red()), ("size", Red())])
    finally:
        del SHARED_ACCUMULATORS[Red]


#: NIC-model accounting recorded at the parent commit (CAMPUS, 40 flows,
#: seed 11 -> 1125 packets): sharing must not move any of it.
PINNED = {
    "Kitsune": dict(
        total_state_bytes=334080, entry_bytes=[964, 2568, 2093],
        levels=["EMEM", "EMEM", "EMEM"], requirement_bytes=5600,
        table_stats={"host": (1125, 24, 1101, 0, 281250),
                     "channel": (1125, 63, 1062, 0, 281250),
                     "socket": (1125, 72, 1053, 0, 281250)}),
    "MPTD": dict(
        total_state_bytes=232448, entry_bytes=[7277],
        levels=["EMEM"], requirement_bytes=7200,
        table_stats={"flow": (987, 32, 955, 0, 246750)}),
}


@pytest.mark.parametrize("app", sorted(PINNED))
def test_model_accounting_stays_per_feature(app):
    packets = generate_trace("CAMPUS", n_flows=40, seed=11)
    assert len(packets) == 1125
    with api.compile(build_policy(app)) as ex:
        engine = ex.run(packets).engine
        requirement_bytes = sum(
            r.size_bytes for r in ex.compiled.state_requirements())
    measured = dict(
        total_state_bytes=engine.total_state_bytes(),
        entry_bytes=[t.entry_bytes for _s, t in engine._tables],
        levels=[t.level.name for _s, t in engine._tables],
        requirement_bytes=requirement_bytes,
        table_stats={
            name: (s.lookups, s.inserts, s.bucket_hits, s.dram_hits,
                   s.access_cycles)
            for name, s in engine.table_stats().items()})
    assert measured == PINNED[app]
