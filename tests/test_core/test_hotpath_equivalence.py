"""Optimized hot path vs the pre-optimization oracle.

The optimized pass (compiled accessors, interned routes, single-hash
routing, positional cell plans, batched group lookups) must be
invisible in the output: ``SUPERFE_REFERENCE_PATH=1`` keeps the
original per-packet switch insert, ``tests/reference/engine.py`` the
per-cell engine update (both built by ``reference_path()``), and
every test here demands bit-identical (order-normalized) checksums
between the two — for randomly composed policies, on the serial
cluster, the inline sharded cluster and process workers, and under a
``nic_kill`` chaos schedule.

The oracle is chosen when the pipeline stages are constructed, which
``Extractor.run`` does per call — so the window covers the whole
compile+run.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.apps import APP_POLICIES, build_policy
from repro.bench.parallel import vectors_checksum
from repro.core.faults import FaultAction, FaultPlan
from repro.core.policy import pktstream
from repro.net.trace import generate_trace
from repro.nicsim.engine import FeatureEngine
from repro.switchsim.mgpv import MGPVConfig
from tests.conftest import inline_cluster, reference_path
from tests.reference.engine import ReferenceEngine

#: Reducers whose results are bit-exact regardless of update batching
#: (same set as tests/test_parallel_equivalence.py).
EXACT_REDUCERS = ["f_sum", "f_min", "f_max", "ft_hist{200, 8}",
                  "f_mean", "f_var"]
SOURCES = ["size", "tstamp"]
GRANULARITIES = ["flow", "host", "channel", "socket"]

policy_strategy = st.builds(
    lambda gran, reduces, with_filter, with_ipt: (
        gran, reduces, with_filter, with_ipt),
    gran=st.sampled_from(GRANULARITIES),
    reduces=st.lists(
        st.tuples(st.sampled_from(SOURCES),
                  st.sampled_from(EXACT_REDUCERS)),
        min_size=1, max_size=4),
    with_filter=st.booleans(),
    with_ipt=st.booleans(),
)


def build(gran, reduces, with_filter, with_ipt):
    policy = pktstream()
    if with_filter:
        policy = policy.filter("tcp.exist")
    policy = policy.groupby(gran)
    if with_ipt:
        policy = policy.map("ipt", "tstamp", "f_ipt")
        policy = policy.reduce("ipt", ["f_sum"])
    for src, fn in reduces:
        policy = policy.reduce(src, [fn])
    return policy.collect(gran)


def reference_run(policy, packets, **kw):
    with reference_path():
        return api.compile(policy, **kw).run(packets)


def checksum(result) -> str:
    return vectors_checksum(result.vectors)


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=120, seed=17)


@given(spec=policy_strategy)
@settings(max_examples=20, deadline=None)
def test_optimized_matches_reference_random_policies(spec, packets):
    policy = build(*spec)
    optimized = api.compile(policy, n_nics=3).run(packets)
    reference = reference_run(policy, packets, n_nics=3)
    assert checksum(optimized) == checksum(reference)
    assert optimized.feature_names == reference.feature_names


def compile_on(backend: str, policy, workers: int, **kw):
    """``api.compile`` with the shards on ``backend``: the serial
    cluster, the inline sharded cluster, or process workers."""
    if backend == "process":
        kw.update(workers=workers, backend=backend)
    ex = api.compile(policy, **kw)
    return inline_cluster(ex, workers) if backend == "inline" else ex


@pytest.mark.parametrize("backend", ["serial", "inline", "process"])
def test_all_backends_match_reference(packets, backend):
    policy = build("flow", [("size", "f_mean"), ("size", "f_var"),
                            ("tstamp", "f_max")], True, True)
    reference = reference_run(policy, packets, n_nics=4)
    with compile_on(backend, policy, 2, n_nics=4) as ex:
        optimized = ex.run(packets)
    assert checksum(optimized) == checksum(reference)


@pytest.mark.parametrize("backend", ["serial", "inline", "process"])
def test_nic_kill_chaos_matches_reference(packets, backend):
    """Failover — re-route, FG-mirror resync, residual reconciliation —
    must take the same decisions on the optimized path (interned routes,
    cached steering) as on the oracle, including the degraded flags."""
    policy = build("flow", [("size", "f_mean"), ("size", "f_max")],
                   True, False)
    plan = FaultPlan(actions=(
        FaultAction(kind="nic_kill", at_packet=len(packets) // 2,
                    nic=1),))
    config = MGPVConfig(n_short=32, n_long=16)
    reference = reference_run(policy, packets, n_nics=3,
                              mgpv_config=config, fault_plan=plan)
    with compile_on(backend, policy, 3, n_nics=3, mgpv_config=config,
                    fault_plan=plan) as ex:
        optimized = ex.run(packets)
    assert any(v.degraded for v in optimized.vectors)
    assert checksum(optimized) == checksum(reference)


@pytest.mark.skipif(
    os.environ.get("SUPERFE_REFERENCE_PATH") == "1",
    reason="with the oracle forced globally there is no optimized "
           "pipeline to contrast against")
def test_reference_flag_actually_switches_paths(packets):
    """Guard against the oracle silently becoming the optimized path:
    the two switches must report their mode through the flag they were
    built under, the reference engines must be the per-cell oracle and
    the optimized ones must keep their state in slabs."""
    policy = build("flow", [("size", "f_sum")], False, False)
    # Serial, so the optimized engines live in this process.
    opt_run = api.compile(policy, n_nics=2, backend="serial").run(packets)
    ref_run = reference_run(policy, packets, n_nics=2)
    assert checksum(opt_run) == checksum(ref_run)
    opt_cache = opt_run.dataplane.stages[1]
    ref_cache = ref_run.dataplane.stages[1]
    assert not getattr(opt_cache, "_reference", False)
    assert getattr(ref_cache, "_reference", False)
    assert all(type(engine) is ReferenceEngine
               for engine in ref_run.engine.engines)
    assert all(type(engine) is FeatureEngine and engine._slabs
               for engine in opt_run.engine.engines)


# -- Table 3 applications: the reference path is the *unshared* mode (one
# private accumulator per feature), so it is the oracle for declared
# accumulator sharing across the damped and histogram families.

@pytest.fixture(scope="module")
def campus():
    return generate_trace("CAMPUS", n_flows=150, seed=23)


@pytest.mark.parametrize("software", [False, True],
                         ids=["hardware", "software"])
@pytest.mark.parametrize("app", sorted(APP_POLICIES))
def test_table3_apps_match_reference(campus, app, software):
    optimized = api.compile(build_policy(app),
                            software=software).run(campus)
    reference = reference_run(build_policy(app), campus,
                              software=software)
    assert optimized.vectors
    assert checksum(optimized) == checksum(reference)
    assert optimized.feature_names == reference.feature_names


@pytest.mark.parametrize("backend", ["process"])
def test_kitsune_backends_match_reference(campus, backend):
    policy = build_policy("Kitsune")
    reference = reference_run(policy, campus, n_nics=2)
    with compile_on(backend, policy, 2, n_nics=2) as ex:
        optimized = ex.run(campus)
    assert checksum(optimized) == checksum(reference)
    assert optimized.feature_names == reference.feature_names


def test_kitsune_stream_matches_reference(campus):
    """The yielded sequence — chunk boundaries, order and the final
    flush included — not just the vector set."""
    def streamed():
        with api.compile(build_policy("Kitsune")) as ex:
            return [[(v.key, v.names, v.values.tobytes(), v.degraded)
                     for v in chunk]
                    for chunk in ex.stream(campus, batch_size=256)]
    optimized = streamed()
    with reference_path():
        reference = streamed()
    assert sum(map(len, optimized)) >= len(campus)
    assert optimized == reference
