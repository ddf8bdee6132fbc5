"""Smoke test of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs every workload in ``--quick`` mode (1/20 input, one timed rep, the
same code paths) and checks the output contract against
``BENCHMARK.json``.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(HERE))
from compare import verdict  # noqa: E402


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*argv) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    last = run_bench("--quick", "--out", str(out))
    return json.loads(out.read_text()), last


def test_contract_names_are_legal_and_unique(contract):
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in contract["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_every_workload_emits_every_metric_once(contract, quick_record):
    record, last = quick_record
    assert record["claim"] is None
    wanted = {m["name"]: m["unit"]
              for m in contract["end_to_end"] + contract["per_layer"]}
    assert sorted(record["workloads"]) == sorted(
        w["name"] for w in contract["workloads"])
    for name, wl in record["workloads"].items():
        assert wl["correct"], (name, wl["checks"])
        assert wl["failed"] == 0 and wl["attempted"] >= 1
        assert set(wl["metrics"]) == set(wanted), name
        for metric, m in wl["metrics"].items():
            assert m["unit"] == wanted[metric]
            assert math.isfinite(m["value"]), (name, metric)
        for metric in (m["name"] for m in contract["end_to_end"]):
            assert wl["metrics"][metric]["value"] > 0, (name, metric)
        assert wl["metrics"]["trace.unattributed_share"]["value"] <= 0.05
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_trace_flag_selects_the_metric_family(contract, trace, kind):
    last = run_bench("--workload", "flow-mawi", "--quick", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in contract[kind]}
    assert last["correct"] is True


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]
    assert verdict(steady, steady, "higher", 0.08)[0] == "unchanged"
    assert verdict(steady, [v * 0.8 for v in steady], "higher",
                   0.08)[0] == "worse"
    assert verdict(steady, [v * 1.2 for v in steady], "higher",
                   0.08)[0] == "better"
    assert verdict(steady, [v * 1.2 for v in steady], "lower",
                   0.08)[0] == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0, 80.0, 130.0, 75.0, 110.0, 90.0,
             60.0]
    assert verdict(noisy, noisy[::-1], "higher", 0.08)[0].startswith(
        "unresolved")
    assert verdict([100.0], [101.0], "higher", 0.08)[0].startswith(
        "unresolved")
