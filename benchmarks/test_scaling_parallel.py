"""Scaling benchmark of the shard-parallel extraction executor.

Two claims:

1. **Equivalence** — the process backend is bit-identical
   (order-normalized) to the serial NIC cluster at every worker count.
   Asserted unconditionally: it holds regardless of host parallelism.
2. **Speedup** — the process backend reaches >= 2x serial packets/sec at
   4 workers.  Only meaningful with real cores underneath, so the
   assertion is gated on the record's own ``overhead_dominated`` flag
   (``cpu_count`` smaller than the largest worker count): on a
   single-core host the run *reports* the overhead-dominated numbers
   instead of failing, and the flag is committed with the record so
   downstream readers get the same honesty.

The run also rewrites ``BENCH_parallel.json`` at the repo root — the
committed baseline artifact the CI bench job uploads.
"""

import json
import pathlib

from conftest import run_once

from repro.bench.parallel import run_scaling
from repro.bench.tables import Table

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"


def test_parallel_scaling(benchmark, report):
    record = run_once(benchmark, lambda: run_scaling(
        n_flows=400, n_nics=4, worker_counts=(1, 2, 4)))

    table = Table(
        "Shard-parallel executor — packets/sec vs workers "
        f"(effective_cores={record['effective_cores']}"
        + (", overhead-dominated" if record["overhead_dominated"] else "")
        + ")",
        ["Workers", "pps", "Speedup", "Equivalent"])
    table.add_row("serial", record["serial"]["pps"], 1.0, True)
    for run in record["runs"]:
        table.add_row(str(run["workers"]), run["pps"], run["speedup"],
                      run["equivalent"])
    report("scaling_parallel", table.render())
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    assert record["equivalent"], (
        "parallel vectors diverged from the serial baseline: "
        f"{[r for r in record['runs'] if not r['equivalent']]}")
    assert record["n_vectors"] > 0
    if record["supervision"] is not None:
        assert record["supervision"]["unsupervised_equivalent"], (
            "unsupervised process run diverged from serial")

    # The record's speedup gate is self-describing: it carries its own
    # skip reason when the host lacks the cores to support a scaling
    # claim, and that reason is committed with the artifact.
    gate = record["speedup_gate"]
    report("scaling_parallel_gate",
           f"speedup gate {gate['status']}: {gate['reason']}")
    assert gate["status"] != "failed", gate["reason"]
