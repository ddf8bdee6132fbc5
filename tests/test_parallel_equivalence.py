"""Property-based serial<->parallel equivalence: the shard-parallel
executor must be bit-identical (order-normalized) to the serial NIC
cluster — same vectors, same degradation accounting — for randomly
composed policies, and also under a chaos schedule that kills a NIC
mid-trace.

Only inter-shard wall-clock interleaving may differ between backends;
every per-shard event sequence is the serial one, so the comparison is
exact equality of sorted vector bytes, not a tolerance check.  The
hypothesis sweep runs the inline sharded cluster (the process backend's
dispatch, frame codec and worker driver, with nothing forked per
example); fixed cases cover the process backend end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.core.faults import FaultAction, FaultPlan
from repro.core.observe import degradation_report
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import MGPVConfig
from tests.conftest import inline_cluster

#: Reducers whose results are bit-exact regardless of update batching
#: (same set as tests/test_property_equivalence.py).
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
    from repro.core.policy import pktstream
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


def sorted_rows(result):
    """Order-normalized exact representation of a vector set."""
    return sorted((tuple(v.key), v.values.tobytes(), v.degraded)
                  for v in result.vectors)


def assert_identical(serial, parallel):
    assert sorted_rows(serial) == sorted_rows(parallel)
    assert serial.feature_names == parallel.feature_names


def cluster_counters(result):
    return result.dataplane.counters()["cluster"]


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=120, seed=17)


@given(spec=policy_strategy, n_nics=st.sampled_from([2, 3]))
@settings(max_examples=20, deadline=None)
def test_serial_inline_equivalence_random_policies(spec, n_nics,
                                                   packets):
    policy = build(*spec)
    serial = api.compile(policy, n_nics=n_nics).run(packets)
    inline = inline_cluster(api.compile(policy, n_nics=n_nics)).run(
        packets)
    assert_identical(serial, inline)
    assert cluster_counters(serial) == cluster_counters(inline)


class TestProcessBackend:
    def test_clean_run_identical(self, packets):
        policy = build("flow", [("size", "f_mean"), ("size", "f_var"),
                                ("tstamp", "f_max")], True, True)
        serial = api.compile(policy, n_nics=4).run(packets)
        parallel = api.compile(policy, n_nics=4, workers=4,
                               backend="process").run(packets)
        assert_identical(serial, parallel)
        assert cluster_counters(serial) == cluster_counters(parallel)

    def test_more_workers_than_shards(self, packets):
        policy = build("flow", [("size", "f_sum")], False, False)
        serial = api.compile(policy, n_nics=2).run(packets)
        parallel = api.compile(policy, n_nics=2, workers=8,
                               backend="process").run(packets)
        assert_identical(serial, parallel)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_chaos_nic_kill_identical(self, packets, backend):
        """The failover path — re-route, FG-mirror resync, residual
        reconciliation — produces the same degraded vectors and the
        same degradation ledger on every backend."""
        policy = build("flow", [("size", "f_mean"), ("size", "f_max")],
                       True, False)
        plan = FaultPlan(actions=(
            FaultAction(kind="nic_kill", at_packet=len(packets) // 2,
                        nic=1),))
        config = MGPVConfig(n_short=32, n_long=16)
        serial = api.compile(policy, n_nics=3, mgpv_config=config,
                             fault_plan=plan).run(packets)
        kw = {} if backend == "inline" else {"workers": 3,
                                             "backend": backend}
        with api.compile(policy, n_nics=3, mgpv_config=config,
                         fault_plan=plan, **kw) as ex:
            if backend == "inline":
                inline_cluster(ex, workers=3)
            parallel = ex.run(packets)
        assert_identical(serial, parallel)
        assert any(v.degraded for v in parallel.vectors)
        assert cluster_counters(serial) == cluster_counters(parallel)
        assert (degradation_report(serial.dataplane.counters())
                == degradation_report(parallel.dataplane.counters()))

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_chaos_nic_kill_then_restart_identical(self, packets,
                                                   backend):
        """A restart that lands before the single-event queue fills
        (far fewer than ``DISPATCH_BATCH`` events after the kill):
        the kill's FG resyncs and the events routed in between still
        go to the survivors, as on the serial cluster."""
        policy = build("flow", [("size", "f_mean"), ("size", "f_max")],
                       True, False)
        kill = len(packets) // 2
        plan = FaultPlan(actions=(
            FaultAction(kind="nic_kill", at_packet=kill, nic=1),
            FaultAction(kind="nic_restart", at_packet=kill + 40, nic=1)))
        config = MGPVConfig(n_short=32, n_long=16)
        serial = api.compile(policy, n_nics=3, mgpv_config=config,
                             fault_plan=plan).run(packets)
        kw = {} if backend == "inline" else {"workers": 3,
                                             "backend": backend}
        with api.compile(policy, n_nics=3, mgpv_config=config,
                         fault_plan=plan, **kw) as ex:
            if backend == "inline":
                inline_cluster(ex, workers=3)
            parallel = ex.run(packets)
        assert parallel.dataplane.cluster.restarts == 1
        assert parallel.dataplane.cluster.fg_resyncs > 0
        assert_identical(serial, parallel)
        assert cluster_counters(serial) == cluster_counters(parallel)

    def test_matrices_equal(self, packets):
        policy = build("host", [("size", "f_sum"), ("size", "f_min")],
                       False, False)
        serial = api.compile(policy, n_nics=3).run(packets)
        parallel = api.compile(policy, n_nics=3, workers=2,
                               backend="process").run(packets)
        s = {tuple(v.key): v.values for v in serial.vectors}
        p = {tuple(v.key): v.values for v in parallel.vectors}
        assert s.keys() == p.keys()
        for key in s:
            np.testing.assert_array_equal(s[key], p[key])
