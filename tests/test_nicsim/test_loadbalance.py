"""Multi-NIC load balancing: correctness (same results as one NIC) and
evenness of the hash-based distribution."""

import numpy as np
import pytest

from repro.core.compiler import PolicyCompiler
from repro.core.policy import pktstream
from repro.nicsim.engine import FeatureEngine
from repro.nicsim.loadbalance import NICCluster
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import MGPVCache, MGPVConfig


def compiled_policy():
    return PolicyCompiler().compile(
        pktstream().groupby("host")
        .reduce("size", ["f_sum"]).collect("socket")
        .groupby("socket")
        .reduce("size", ["f_sum", "f_max"]).collect("socket"))


def event_stream(packets, compiled):
    cache = MGPVCache(compiled.cg, compiled.fg,
                      MGPVConfig(n_short=512, short_size=4, n_long=64,
                                 long_size=20, fg_table_size=512),
                      compiled.metadata_fields)
    return list(cache.process(packets))


@pytest.fixture(scope="module")
def setup():
    compiled = compiled_policy()
    packets = generate_trace("ENTERPRISE", n_flows=200, seed=6)
    return compiled, event_stream(packets, compiled)


def test_validation(setup):
    compiled, _ = setup
    with pytest.raises(ValueError):
        NICCluster(compiled, 0)


def test_matches_single_engine(setup):
    compiled, events = setup
    single = FeatureEngine(compiled).run(events).finalize()
    cluster = NICCluster(compiled, 4).run(events).finalize()
    single_map = {tuple(v.key): v.values for v in single}
    cluster_map = {tuple(v.key): v.values for v in cluster}
    assert single_map.keys() == cluster_map.keys()
    for key, vec in single_map.items():
        assert np.array_equal(vec, cluster_map[key])


def test_no_extra_orphans(setup):
    """Routing syncs with their owner groups must not create dangling
    FG references on any NIC."""
    compiled, events = setup
    single = FeatureEngine(compiled).run(events)
    cluster = NICCluster(compiled, 4).run(events)
    assert cluster.orphan_cells() == single.stats.orphan_cells


def test_load_roughly_even(setup):
    compiled, events = setup
    cluster = NICCluster(compiled, 4).run(events)
    loads = cluster.cells_per_nic()
    assert sum(loads) > 0
    assert min(loads) > 0.35 * (sum(loads) / len(loads))


def test_unknown_event(setup):
    compiled, _ = setup
    with pytest.raises(TypeError):
        NICCluster(compiled, 2).consume_batch([42])


def test_batch_routes_equal_per_event_routes(setup, monkeypatch):
    """``consume_batch`` steers a slice by its hash columns (the syncs'
    owner hashes in one vectorised sweep): same routes, same partition,
    and no scalar key hash left for the syncs — also with a dead NIC in
    the bank."""
    from repro.nicsim import loadbalance

    compiled, events = setup
    one_by_one = NICCluster(compiled, 4)
    batched = NICCluster(compiled, 4)
    for cluster in (one_by_one, batched):
        cluster.fail_nic(2)
    for event in events:
        one_by_one.consume_batch([event])
    scalar_hashes = []
    monkeypatch.setattr(
        loadbalance, "hash_key",
        lambda key: scalar_hashes.append(key) or 0)
    batched.consume_batch(events)
    assert not scalar_hashes
    assert ([e.fg_mirror_items() for e in batched.engines]
            == [e.fg_mirror_items() for e in one_by_one.engines])
    assert batched.cells_per_nic() == one_by_one.cells_per_nic()
    assert batched.rerouted_events == one_by_one.rerouted_events > 0
