"""SuperFE's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--quick] [--out FILE]

This process is the load generator and nothing else: it makes each
workload's input from ``--seed``, hands it to a fresh ``worker.py``
subprocess (one per workload, environment pinned) that drives the
program through its public API, then prints every metric by name with
its unit and whether the outputs were correct.  Metric names, units,
directions and regression bounds come from ``BENCHMARK.json``.

Without ``--trace`` a run reports everything: timed reps with tracing
off, then one traced rep.  ``--trace 0`` reports the end-to-end metrics
only, ``--trace 1`` the per-layer metrics only.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: A workload's whole subprocess must end well inside the driver's
#: 180 s limit for one run.
WORKER_TIMEOUT_S = 150
#: Set-up is measured this many times per run (the workload's own
#: subprocess plus extra set-up-only ones) and the median reported.
SETUP_SAMPLES = 3


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def host_header(seed: int) -> dict:
    """Load-generator hygiene, echoed into every output."""
    from workloads import sharded_workers
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "generator": "single process (run.py), one worker subprocess "
                     "per workload",
        "seed": seed,
        "pythonhashseed": "0",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "effective_cores": len(affinity),
        "loadavg_1m": os.getloadavg()[0],
        "sharded_workers": sharded_workers(),
    }


def worker_env() -> dict:
    """The program's environment: hash seed pinned, and none of the
    SUPERFE_* switches that would silently change the deployment."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SUPERFE_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str]) -> tuple[dict, int]:
    """Run worker.py to completion; returns (its JSON, its pid).  The
    worker gets its own session so that a timeout takes its pool
    workers down with it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=worker_env(),
        cwd=str(ROOT), start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        # Nothing of the worker's session may outlive it: on a timeout
        # that is the worker itself, after a crash its pool workers.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited "
                           f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), proc.pid


def run_workload(name: str, args, contract: dict) -> dict:
    from workloads import WORKLOADS, make_input
    import numpy as np
    spec = WORKLOADS[name].sized(args.quick)
    data, gen = make_input(spec, args.seed)
    OUT.mkdir(exist_ok=True)
    input_path = OUT / f"{name}.input.npy"
    np.save(input_path, data)
    trace_path = OUT / f"{name}.trace.json"
    base = ["--workload", name, "--input", str(input_path),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.quick:
        base.append("--quick")
    try:
        record, pid = run_worker(base + ["--trace-out", str(trace_path)])
        setups = [record["metrics"]["setup_s"]]
        if args.trace != "1" and not args.quick:
            for _ in range(SETUP_SAMPLES - 1):
                probe, _ = run_worker(base + ["--phase", "setup"])
                setups.append(probe["setup_s"])
    finally:
        input_path.unlink(missing_ok=True)
    shm = Path("/dev/shm")
    leaked = (sorted(p.name for p in shm.glob(f"superfe-{pid}-*"))
              if shm.is_dir() else [])
    if leaked:
        record["checks"]["no_shm_leak_after_exit"] = False
        record["correct"] = False
        record["failed"] = record["attempted"]
        for path in leaked:             # leave the host clean regardless
            (shm / path).unlink(missing_ok=True)

    measured = record["metrics"]
    measured["setup_s"] = statistics.median(setups)
    measured["net.trace_gen_s"] = gen["net.trace_gen_s"]
    measured["net.from_packets_ns_per_pkt"] = gen[
        "net.from_packets_ns_per_pkt"]
    record["notes"]["setup_samples"] = len(setups)
    record["notes"]["flows_generated"] = gen["flows_generated"]
    record["failed_share"] = record["failed"] / record["attempted"]

    metrics: dict[str, dict] = {}
    wanted = []
    if args.trace != "1":
        wanted += [(m, "end_to_end") for m in contract["end_to_end"]]
    if args.trace != "0":
        wanted += [(m, "per_layer") for m in contract["per_layer"]]
    for spec_m, kind in wanted:
        value = measured.get(spec_m["name"])
        if value is None:
            if kind == "end_to_end":
                raise RuntimeError(f"{name}: worker did not report "
                                   f"{spec_m['name']}")
            value = 0.0                 # layer idle on this workload
        if not math.isfinite(value):
            raise RuntimeError(f"{name}: {spec_m['name']} is {value}")
        metrics[spec_m["name"]] = {"value": value, "unit": spec_m["unit"],
                                   "kind": kind}
    record["metrics"] = metrics
    record["why"] = spec.why
    if args.trace != "0":
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    return record


def print_workload(record: dict, contract: dict) -> None:
    e2e = {m["name"]: m for m in contract["end_to_end"]}
    print(f"\n== {record['workload']}: {record['packets']} packets x "
          f"{record['reps']} timed reps "
          f"(rep wall {', '.join(f'{w:.3f}' for w in record['rep_wall_s'])}"
          f" s) ==")
    print(f"   {record['why']}")
    for name, m in record["metrics"].items():
        line = f"  {name:<36} {m['value']:>16.6g} {m['unit']:<10}"
        if name in e2e:
            line += (f" {e2e[name]['better']} is better, "
                     f"bound {e2e[name]['bound']:.0%}")
        print(line)
    print(f"  {'failed_share':<36} {record['failed_share']:>16.6g} "
          f"{'share':<10} {record['failed']}/{record['attempted']} packets")
    notes = record["notes"]
    if "chunk_samples" in notes:
        print(f"  samples: chunk_ms over {notes['chunk_samples']} yields, "
              f"setup_s over {notes['setup_samples']} set-ups")
    if record.get("layer_share"):
        shares = sorted(record["layer_share"].items(),
                        key=lambda kv: -kv[1])
        print("  traced wall by layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares))
    bad = [k for k, ok in record["checks"].items() if not ok]
    print(f"  checks: {len(record['checks']) - len(bad)}/"
          f"{len(record['checks'])} pass"
          + (f"  FAILED: {', '.join(bad)}" if bad else "")
          + "".join(f"  {k}={v}" for k, v in notes.items()
                    if k in ("flow_oracle", "transport_mode")))


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: all five")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=contract["run_seconds"],
                    help="how long the timed reps of one workload run")
    ap.add_argument("--trace", choices=("0", "1"), default="both",
                    help="0: end-to-end only; 1: per-layer only; "
                         "default: both")
    ap.add_argument("--quick", action="store_true",
                    help="1/20 input, one timed rep, same code paths")
    ap.add_argument("--out", help="write the full record as JSON")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print("run.py: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    header = host_header(args.seed)
    print("# superfe perf benchmark  " + "  ".join(
        f"{k}={v}" for k, v in header.items() if k != "generator"))
    started = time.time()
    records = {}
    for name in args.workload or names:
        records[name] = run_workload(name, args, contract)
        print_workload(records[name], contract)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"bench": "superfe-perf", "claim": None,
                       "header": header, "seed": args.seed,
                       "quick": args.quick, "seconds": args.seconds,
                       "trace": args.trace, "started_unix": started,
                       "workloads": records}, fh, indent=1)
    single = len(records) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            (name if single else f"{wl}/{name}"):
                {"value": m["value"], "unit": m["unit"]}
            for wl, r in records.items()
            for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
