"""Golden policy vectors: an independent check of the engine beside its
in-module oracle.

The ten Table 3 policies run on frozen seeded inputs, on the hardware
path with ``n_nics=4`` and on the software path, each fault-free and
under a ``link_loss`` schedule.  One more policy rides along: the
direction sequence without its ``ft_sample`` bound, whose vectors are
ragged and so assemble one by one (``FeatureEngine._vector_parts``), a
path no Table 3 policy takes.  Every row must reproduce, as SHA-256
digests recorded in ``golden_policy_vectors.json``:

- the vectors in emission order (key, names, value bits, degraded flag,
  widths);
- every section's ``GroupTableStats`` of every engine;
- every stage counter, minus the two path counters (``cells_columnar`` /
  ``cells_per_cell`` name *how* cells were reduced, not what came out).

Each hardware row is also run through the inline ``serial``
``ShardedCluster`` (two workers, same dispatch, codec and worker driver
as the process backend), whose order-normalised vectors must equal the
serial cluster's.

Regenerate only on purpose, with
``PYTHONPATH=src python -m tests.test_core.test_policy_golden``.
"""

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

import repro.api as api
from repro.apps import APP_POLICIES, build_policy
from repro.core.faults import FaultAction, FaultPlan
from repro.core.parallel import ExecutionConfig
from repro.core.policy import pktstream
from repro.net.trace import generate_trace
from tests.conftest import inline_cluster

GOLDEN = Path(__file__).with_name("golden_policy_vectors.json")
PATH_COUNTERS = ("cells_columnar", "cells_per_cell")
N_PACKETS = 400
PATHS = ("hw", "sw")
FAULTS = ("clean", "link_loss")
POLICIES = {app: lambda app=app: build_policy(app)
            for app in APP_POLICIES}
POLICIES["ragged"] = lambda: (
    pktstream().filter("tcp.exist").groupby("flow")
    .map("one", None, "f_one").map("direction", "one", "f_direction")
    .reduce("size", ["f_sum"]).reduce("direction", ["f_array"])
    .collect("flow"))
ROWS = [f"{policy}/{path}/{fault}" for policy, path, fault in product(
    sorted(POLICIES), PATHS, FAULTS)]


@lru_cache(maxsize=None)
def packets() -> tuple:
    pkts = generate_trace("CAMPUS", n_flows=40, seed=29)[:N_PACKETS]
    assert len(pkts) == N_PACKETS
    return tuple(pkts)


def extractor(row: str):
    """The row's serial deployment, whatever ``SUPERFE_EXEC_BACKEND``
    says (the golden pins the serial cluster's counters and tables)."""
    policy, path, _ = row.split("/")
    kw = dict(software=True) if path == "sw" else dict(n_nics=4)
    return api.compile(POLICIES[policy](), execution=ExecutionConfig(),
                       **kw)


def drive(row: str, dataplane) -> list:
    """Run the frozen input through ``dataplane`` (the loss schedule is
    attached here: ``api.compile`` takes no fault plan on the software
    path) and close it."""
    if row.endswith("/link_loss"):
        dataplane.attach_faults(FaultPlan(seed=5, actions=(FaultAction(
            kind="link_loss", at_packet=N_PACKETS // 4, rate=0.05),)))
    dataplane.process(packets())
    vectors = dataplane.flush()
    dataplane.close()
    return vectors


def sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else repr(item).encode())
    return h.hexdigest()


def vector_digest(vectors) -> str:
    return sha(x for v in vectors for x in (
        tuple(v.key), v.names, v.values.tobytes(), v.degraded, v.widths))


def unordered_digest(vectors) -> str:
    return sha(sorted((repr(tuple(v.key)), v.values.tobytes(), v.degraded)
                      for v in vectors))


def strip_paths(counters):
    if isinstance(counters, dict):
        return {k: strip_paths(v) for k, v in counters.items()
                if k not in PATH_COUNTERS}
    return counters


def run(row: str) -> dict:
    dp = extractor(row).dataplane()
    vectors = drive(row, dp)
    engines = (dp.cluster.engines if dp.cluster is not None
               else [dp.engine])
    tables = [sorted((name, asdict(stats))
                     for name, stats in e.table_stats().items())
              for e in engines]
    return {"vectors": len(vectors),
            "vectors_sha256": vector_digest(vectors),
            "unordered_sha256": unordered_digest(vectors),
            "tables_sha256": sha(tables),
            "counters_sha256": sha([json.dumps(strip_paths(dp.counters()),
                                               sort_keys=True)])}


def run_inline(row: str) -> str:
    return unordered_digest(
        drive(row, inline_cluster(extractor(row)).dataplane()))


def record_golden() -> dict:
    golden = {}
    for row in ROWS:
        golden[row] = want = run(row)
        if "/hw/" in row:
            assert run_inline(row) == want["unordered_sha256"], row
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_rows_are_complete(golden):
    assert sorted(golden) == sorted(ROWS)
    # Every row emits, and link loss changes what comes out.
    assert all(g["vectors"] for g in golden.values())
    for policy, path in product(POLICIES, PATHS):
        clean, lossy = (golden[f"{policy}/{path}/{f}"] for f in FAULTS)
        assert clean["vectors_sha256"] != lossy["vectors_sha256"]
        assert clean["counters_sha256"] != lossy["counters_sha256"]


@pytest.mark.parametrize("row", ROWS)
def test_row_reproduces_golden(golden, row):
    assert run(row) == golden[row]


@pytest.mark.parametrize("row", [r for r in ROWS if "/hw/" in r])
def test_inline_cluster_matches_serial(golden, row):
    assert run_inline(row) == golden[row]["unordered_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_golden(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
