"""Cross-module integration: every Table 3 application runs end to end
through the full pipeline, the hardware path tracks the software path,
and the system-level invariants hold under stress configurations."""

import numpy as np
import pytest

import repro.api as api
from repro.apps import APP_POLICIES, build_policy
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import MGPVConfig

PER_GROUP_APPS = ["CUMUL", "TF", "PeerShark", "NPOD", "MPTD"]
PER_PKT_APPS = ["N-BaIoT", "Kitsune"]


@pytest.fixture(scope="module")
def trace():
    return generate_trace("ENTERPRISE", n_flows=150, seed=8)


@pytest.mark.parametrize("app", PER_GROUP_APPS)
def test_per_group_apps_end_to_end(app, trace):
    spec = APP_POLICIES[app]
    result = api.compile(spec.build()).run(trace)
    assert len(result) > 0
    mat = result.to_matrix()
    assert mat.shape[1] == spec.expected_dim
    assert np.isfinite(mat).all()


@pytest.mark.parametrize("app", PER_PKT_APPS)
def test_per_packet_apps_end_to_end(app, trace):
    spec = APP_POLICIES[app]
    result = api.compile(spec.build()).run(trace[:800])
    assert len(result.vectors) == result.engine.stats.cells \
        - result.engine.stats.orphan_cells
    assert len(result.vectors[0].values) == spec.expected_dim


@pytest.mark.parametrize("app", ["NPOD", "PeerShark"])
def test_hw_matches_sw_per_group(app, trace):
    policy = build_policy(app)
    hw = api.compile(policy).run(trace).by_key()
    sw = api.compile(policy, software=True).run(trace).by_key()
    assert set(hw) == set(sw)
    for key in sw:
        ref, got = sw[key], hw[key]
        scale = np.abs(ref).max() + 1e-9
        assert np.abs(got - ref).max() / scale < 0.05, key


def test_tiny_cache_still_correct(trace):
    """Heavy eviction pressure (collisions, no long buffers) must not
    change per-group results — only the batching efficiency."""
    policy = build_policy("NPOD")
    stressed = api.compile(policy, mgpv_config=MGPVConfig(
        n_short=32, short_size=2, n_long=2, long_size=4,
        fg_table_size=32))
    roomy = api.compile(policy)
    a = stressed.run(trace).by_key()
    b = roomy.run(trace).by_key()
    shared = set(a) & set(b)
    assert len(shared) >= 0.9 * len(b)   # FG collisions may drop a few
    for key in shared:
        assert np.array_equal(a[key], b[key]), key


def test_amplified_traffic_scales_groups(trace):
    from repro.net.replay import amplify
    policy = build_policy("NPOD")
    base = api.compile(policy).run(trace)
    amped = api.compile(policy).run(amplify(trace, 3))
    assert len(amped) > 2.5 * len(base)


def test_kitsune_full_stack_against_reference(trace):
    """The flagship multi-granularity per-packet app: hardware vectors
    must track the exact software reference within the paper's 4%."""
    policy = build_policy("Kitsune")
    packets = trace[:600]
    hw = api.compile(policy).run(packets)
    sw = api.compile(policy, software=True, division_free=False).run(packets)
    hw_by, sw_by = {}, {}
    for v in hw.vectors:
        hw_by.setdefault(tuple(v.key), []).append(v.values)
    for v in sw.vectors:
        sw_by.setdefault(tuple(v.key), []).append(v.values)
    checked = 0
    for key, sw_seq in sw_by.items():
        hw_seq = hw_by.get(key, [])
        for ref, got in zip(sw_seq, hw_seq):
            mask = np.abs(ref) > 1e-6
            if mask.any():
                rel = np.abs(got - ref)[mask] / np.abs(ref)[mask]
                assert np.mean(rel) < 0.04
                checked += 1
    assert checked > 100
