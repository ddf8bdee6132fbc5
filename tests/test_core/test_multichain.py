"""Multi-chain policies (§9 extension): partitioning and end-to-end
extraction across chains."""

import numpy as np
import pytest

import repro.api as api
from repro.core.multichain import MultiChainSuperFE, partition_policy
from repro.core.policy import pktstream
from repro.net.trace import generate_trace


def mixed_policy():
    """Per-flow direction sequences (bidir chain) plus per-host volume
    (directed chain) — a dependency *graph*, not a chain."""
    return (
        pktstream()
        .filter("tcp.exist")
        .groupby("flow")
        .map("one", None, "f_one")
        .map("direction", "one", "f_direction")
        .reduce("direction", ["f_array"])
        .synthesize("ft_sample{32}")
        .collect("flow")
        .groupby("host")
        .reduce("size", ["f_sum", "f_mean"])
        .collect("host")
    )


class TestPartition:
    def test_single_chain_unchanged(self):
        policy = (pktstream().groupby("host").reduce("size", ["f_sum"])
                  .collect("pkt")
                  .groupby("socket").reduce("size", ["f_sum"])
                  .collect("pkt"))
        assert partition_policy(policy) == [policy]

    def test_mixed_split_into_two(self):
        subs = partition_policy(mixed_policy())
        assert len(subs) == 2
        grans = sorted(tuple(p.granularities) for p in subs)
        assert grans == [("flow",), ("host",)]

    def test_shared_filter_prefix(self):
        subs = partition_policy(mixed_policy())
        for sub in subs:
            assert ".filter(tcp.exist)" in sub.pretty()

    def test_no_groupby_rejected(self):
        with pytest.raises(ValueError, match="no groupby"):
            partition_policy(pktstream().filter("tcp.exist"))

    def test_chain_without_collect_rejected(self):
        policy = (pktstream().groupby("flow")
                  .reduce("size", ["f_sum"]).collect("flow")
                  .groupby("host").reduce("size", ["f_sum"]))
        with pytest.raises(ValueError, match="collects no features"):
            partition_policy(policy)


class TestEndToEnd:
    def test_mixed_chain_extraction(self):
        packets = generate_trace("ENTERPRISE", n_flows=80, seed=3)
        fe = MultiChainSuperFE(mixed_policy())
        result = fe.run(packets)
        assert len(result.results) == 2
        assert sorted(map(tuple, result.chains)) == [("flow",), ("host",)]
        for sub in result.results:
            assert len(sub) > 0
            assert np.isfinite(sub.to_matrix()).all()

    def test_matches_individual_pipelines(self):
        packets = generate_trace("ENTERPRISE", n_flows=60, seed=4)
        fe = MultiChainSuperFE(mixed_policy())
        combined = fe.run(packets)
        for sub_policy, sub_result in zip(fe.sub_policies,
                                          combined.results):
            solo = api.compile(sub_policy).run(packets)
            assert solo.by_key().keys() == sub_result.by_key().keys()
            for key, vec in solo.by_key().items():
                assert np.array_equal(vec, sub_result.by_key()[key])
