"""Vectorized batch extractor: exactness vs the software reference and
rejection of unsupported policies."""

import numpy as np
import pytest

import repro.api as api
from repro.core.batch import BatchExtractor, UnsupportedPolicy
from repro.core.policy import pktstream
from repro.net.trace import generate_trace


def stats_policy():
    return (pktstream().filter("tcp.exist").groupby("flow")
            .map("one", None, "f_one")
            .map("ipt", "tstamp", "f_ipt")
            .reduce("one", ["f_sum"])
            .reduce("size", ["f_mean", "f_var", "f_std", "f_min",
                             "f_max"])
            .reduce("ipt", ["f_mean", "f_max"])
            .reduce("size", ["ft_hist{200, 8}"])
            .collect("flow"))


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=200, seed=23)


class TestExactness:
    def test_matches_software_reference(self, packets):
        batch = BatchExtractor(stats_policy()).run(packets)
        ref = api.compile(stats_policy(), software=True).run(packets)
        batch_map, ref_map = batch.by_key(), ref.by_key()
        assert batch_map.keys() == ref_map.keys()
        for key in ref_map:
            assert np.allclose(batch_map[key], ref_map[key],
                               rtol=1e-9, atol=1e-6), key

    @pytest.mark.parametrize("gran", ["host", "channel", "socket"])
    def test_granularities(self, gran, packets):
        policy = (pktstream().groupby(gran)
                  .reduce("size", ["f_sum", "f_max"]).collect(gran))
        batch = BatchExtractor(policy).run(packets).by_key()
        ref = api.compile(policy, software=True).run(packets).by_key()
        assert batch.keys() == ref.keys()
        for key in ref:
            assert np.allclose(batch[key], ref[key])

    def test_direction_map(self, packets):
        policy = (pktstream().groupby("flow")
                  .map("signed", "size", "f_direction")
                  .reduce("signed", ["f_sum"]).collect("flow"))
        batch = BatchExtractor(policy).run(packets).by_key()
        ref = api.compile(policy, software=True).run(packets).by_key()
        for key in ref:
            assert np.allclose(batch[key], ref[key])

    def test_empty_input(self):
        result = BatchExtractor(stats_policy()).run([])
        assert len(result) == 0

    def test_filter_applied(self, packets):
        policy = (pktstream().filter("udp.exist").groupby("flow")
                  .reduce("size", ["f_sum"]).collect("flow"))
        result = BatchExtractor(policy).run(packets)
        n_udp_flows = len({p.flow_key for p in packets if p.is_udp})
        assert len(result) == n_udp_flows


class TestRejection:
    def test_per_packet_policies(self):
        policy = (pktstream().groupby("host")
                  .reduce("size", ["f_sum"]).collect("pkt"))
        with pytest.raises(UnsupportedPolicy, match="per-packet"):
            BatchExtractor(policy)

    def test_multi_granularity(self):
        policy = (pktstream().groupby("host")
                  .reduce("size", ["f_sum"]).collect("socket")
                  .groupby("socket").reduce("size", ["f_sum"])
                  .collect("socket"))
        with pytest.raises(UnsupportedPolicy, match="multi-granularity"):
            BatchExtractor(policy)

    def test_unsupported_reducer(self):
        policy = (pktstream().groupby("flow")
                  .reduce("size", ["f_card"]).collect("flow"))
        with pytest.raises(UnsupportedPolicy, match="f_card"):
            BatchExtractor(policy)

    def test_unsupported_synth(self):
        policy = (pktstream().groupby("flow")
                  .reduce("size", ["f_sum"])
                  .synthesize("f_norm").collect("flow"))
        with pytest.raises(UnsupportedPolicy, match="synthesize"):
            BatchExtractor(policy)


class TestPerformance:
    def test_faster_than_engine_path(self):
        import time
        packets = generate_trace("ENTERPRISE", n_flows=800, seed=24)
        policy = stats_policy()
        t0 = time.perf_counter()
        BatchExtractor(policy).run(packets)
        batch_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        api.compile(policy, software=True).run(packets)
        engine_time = time.perf_counter() - t0
        # Key extraction is per-packet Python either way; the reducer
        # kernels are what vectorize.
        assert batch_time < engine_time / 1.5
