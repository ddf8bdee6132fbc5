"""Application-registered extension functions (the §4.1 extension path)."""

import numpy as np
import pytest

import repro.apps  # noqa: F401  (triggers extensions.install)
from repro.core.functions import ExecContext, make_map_fn, make_reduce_fn
from repro.core.functions import make_synth_fn
from repro.nicsim.engine import MemberView


def member(**fields):
    return MemberView(fields)


class TestDirectionGates:
    def test_ingress_only(self):
        fn = make_map_fn("f_ingress_only")
        assert fn.apply(member(direction=-1), 100) == 100
        assert fn.apply(member(direction=1), 100) is None

    def test_egress_only(self):
        fn = make_map_fn("f_egress_only")
        assert fn.apply(member(direction=1), 100) == 100
        assert fn.apply(member(direction=-1), 100) is None


class TestDampedReducers:
    def test_f_dw_counts_with_decay(self):
        fn = make_reduce_fn("f_dw{lam=1}")
        fn.update(10.0, member(tstamp=0))
        fn.update(10.0, member(tstamp=int(1e9)))   # 1 s later
        assert fn.finalize() == pytest.approx(1.5)

    def test_f_dmean_matches_plain_mean_without_decay(self):
        fn = make_reduce_fn("f_dmean{lam=0}")
        for i, v in enumerate((10.0, 20.0, 30.0)):
            fn.update(v, member(tstamp=i * 1000))
        assert fn.finalize() == pytest.approx(20.0)

    def test_f_dstd(self):
        fn = make_reduce_fn("f_dstd{lam=0}")
        for i, v in enumerate((10.0, 20.0)):
            fn.update(v, member(tstamp=i))
        assert fn.finalize() == pytest.approx(5.0)

    def test_division_free_context_quantizes_decay(self):
        exact = make_reduce_fn("f_dmean{lam=1}",
                               ExecContext(division_free=False))
        quant = make_reduce_fn("f_dmean{lam=1}",
                               ExecContext(division_free=True))
        rng = np.random.default_rng(0)
        t = 0
        for _ in range(200):
            t += int(rng.exponential(5e8))
            v = float(rng.uniform(40, 1500))
            exact.update(v, member(tstamp=t))
            quant.update(v, member(tstamp=t))
        assert quant.finalize() == pytest.approx(exact.finalize(),
                                                 rel=0.05)

    def test_2d_damped(self):
        mag = make_reduce_fn("f_dmag{lam=0}")
        for i in range(10):
            mag.update(3.0, member(tstamp=i, direction=1))
            mag.update(4.0, member(tstamp=i, direction=-1))
        assert mag.finalize() == pytest.approx(5.0)

    def test_positional_lambda(self):
        fn = make_reduce_fn("f_dw{2}")
        fn.update(1.0, member(tstamp=0))
        assert fn.finalize() == 1.0


class TestCumsum:
    def test_f_cumsum(self):
        fn = make_synth_fn("f_cumsum")
        assert fn(np.array([1.0, -2.0, 3.0])).tolist() == [1.0, -1.0, 2.0]


class TestCycleOps:
    def test_extension_ops_registered(self):
        from repro.nicsim.cycles import REDUCE_FN_OPS
        for name in ("f_dw", "f_dmean", "f_dstd", "f_dmag"):
            assert name in REDUCE_FN_OPS


def test_install_idempotent():
    from repro.apps.extensions import install
    install()
    install()


def test_negative_lambda_fails_at_compile_naming_the_spec():
    import repro.api as api
    from repro.core.policy import pktstream
    policy = (pktstream().groupby("host")
              .reduce("size", ["f_dw{lam=1}", "f_dmean{lam=-1}"])
              .collect("pkt"))
    with pytest.raises(ValueError,
                       match=r"f_dmean\{lam=-1\}.*non-negative"):
        api.compile(policy)


def test_policy_language_ewma_example_runs_on_the_slab():
    """The user accumulator of docs/policy_language.md's ``collect(pkt)``
    section, run as written: it rides the slab's object column and
    emits what the reference loop emits."""
    import pathlib
    import re
    import textwrap

    import repro.api as api
    from repro.core.functions import REDUCE_FNS
    from repro.core.policy import pktstream
    from repro.net.trace import generate_trace
    from repro.nicsim.engine import FeatureEngine
    from tests.conftest import reference_path

    doc = (pathlib.Path(__file__).resolve().parents[2] / "docs"
           / "policy_language.md").read_text()
    section = doc[doc.index("- under `collect(pkt)`"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    try:
        exec(compile(textwrap.dedent(block), "policy_language.md",
                     "exec"), {})
        policy = (pktstream().groupby("host")
                  .map("ipt", "tstamp", "f_ipt")
                  .reduce("ipt", ["f_ewma{0.25}", "f_dmean{lam=1}"])
                  .collect("pkt"))
        trace = generate_trace("CAMPUS", n_flows=40, seed=3)[:400]
        ex = api.compile(policy)
        assert FeatureEngine(ex.compiled).path() == ("slab+objects",
                                                     "f_ewma{0.25}")
        with reference_path():
            want = api.compile(policy).run(trace).vectors
        got = ex.run(trace).vectors
        assert [(v.key, v.values.tobytes()) for v in got] == [
            (v.key, v.values.tobytes()) for v in want]
        assert len(got) == len(trace)
    finally:
        REDUCE_FNS.pop("f_ewma", None)
