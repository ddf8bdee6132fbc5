"""Property-based system test: for randomly composed policies, the full
hardware pipeline (MGPV batching + NIC engine) computes exactly the same
per-group features as the unbatched software reference when both use
exact arithmetic.

This is the strongest invariant in the system: batching, eviction order,
FG-table indirection, and granularity projection must all be
semantically transparent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.core.policy import pktstream
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import MGPVConfig

#: Reducers whose results are bit-exact regardless of update batching.
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


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=120, seed=17)


@given(spec=policy_strategy)
@settings(max_examples=25, deadline=None)
def test_hw_sw_equivalence_random_policies(spec, packets):
    policy = build(*spec)
    hw = api.compile(policy, division_free=False).run(packets).by_key()
    sw = api.compile(policy, software=True).run(packets).by_key()
    assert hw.keys() == sw.keys()
    for key in sw:
        assert np.allclose(hw[key], sw[key], rtol=1e-9, atol=1e-6), key


@given(spec=policy_strategy,
       n_short=st.sampled_from([8, 64, 1024]),
       n_long=st.sampled_from([1, 16]))
@settings(max_examples=15, deadline=None)
def test_equivalence_invariant_to_cache_sizing(spec, n_short, n_long,
                                               packets):
    """Cache pressure changes *when* metadata is evicted, never *what*
    the features are (FG-slot collisions can drop whole groups, which we
    exclude by intersecting keys)."""
    policy = build(*spec)
    config = MGPVConfig(n_short=n_short, short_size=2, n_long=n_long,
                        long_size=4, fg_table_size=4096)
    stressed = api.compile(policy, mgpv_config=config,
                       division_free=False).run(packets).by_key()
    reference = api.compile(policy, software=True).run(packets).by_key()
    shared = set(stressed) & set(reference)
    assert len(shared) >= 0.95 * len(reference)
    for key in shared:
        assert np.allclose(stressed[key], reference[key],
                           rtol=1e-9, atol=1e-6), key
