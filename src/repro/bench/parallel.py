"""Shard-parallel executor scaling benchmark.

Measures end-to-end extraction throughput (packets/sec) of one
compute-heavy policy over an ENTERPRISE trace, first on the classic
serial NIC cluster and then on the parallel executor at increasing
worker counts, and checks the parallel runs are bit-identical
(order-normalized) to the serial baseline via a vector checksum.

The result dict is what ``python -m repro bench-parallel`` serializes to
``BENCH_parallel.json``; ``benchmarks/test_scaling_parallel.py`` asserts
over the same dict.  Speedup numbers are meaningful only on multi-core
hosts, so ``cpu_count`` is recorded alongside.
"""

from __future__ import annotations

import hashlib
import os
import time

import repro.api as api
from repro.core.policy import Policy, pktstream
from repro.net.trace import generate_trace


def effective_cores() -> int:
    """Cores this process may actually run on (affinity-aware), not the
    host's nominal count — the honest denominator for speedup claims."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def scaling_policy() -> Policy:
    """A reduce-heavy flow policy: enough per-event arithmetic that the
    NIC engines, not the switch stage, dominate the run."""
    return (
        pktstream()
        .filter("tcp.exist")
        .groupby("flow")
        .map("one", None, "f_one")
        .map("ipt", "tstamp", "f_ipt")
        .reduce("one", ["f_sum"])
        .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
        .reduce("ipt", ["f_mean", "f_var", "f_min", "f_max"])
        .collect("flow")
    )


def vectors_checksum(vectors) -> str:
    """Order-normalized digest of a vector set: identical iff the two
    runs produced the same keys, values (bitwise), and degraded flags."""
    digest = hashlib.sha256()
    rows = sorted(
        (repr(tuple(v.key)).encode(), v.values.tobytes(),
         b"d" if v.degraded else b"-")
        for v in vectors)
    for key, values, flag in rows:
        digest.update(key)
        digest.update(values)
        digest.update(flag)
    return digest.hexdigest()


def _timed_run(extractor, packets,
               warm: bool = False) -> tuple[float, str, int, dict | None]:
    """One timed ``run()``.  ``warm=True`` first feeds a small slice so
    the persistent worker pool spawns (and the shm rings map) outside
    the timed window — the steady-state number a reused extractor
    sees.  Returns ``(seconds, checksum, n_vectors, transport)`` where
    transport is the run's :meth:`ShardedCluster.transport_report`
    (None on the serial graph)."""
    if warm:
        extractor.run(packets[: min(64, len(packets))])
    start = time.perf_counter()
    result = extractor.run(packets)
    elapsed = time.perf_counter() - start
    report = getattr(result.engine, "transport_report", None)
    transport = report() if report is not None else None
    extractor.close()
    return (elapsed, vectors_checksum(result.vectors),
            len(result.vectors), transport)


def run_scaling(n_flows: int = 400,
                n_nics: int = 4,
                worker_counts=(1, 2, 4),
                trace_profile: str = "ENTERPRISE",
                seed: int = 17,
                telemetry_path: str | None = None,
                speedup_target: float = 2.0) -> dict:
    """Serial baseline + one parallel run per worker count.

    Returns the benchmark record: per-run seconds / packets-per-second /
    checksum, speedups relative to serial, and the overall
    ``equivalent`` verdict (every parallel checksum equals serial's).
    """
    policy = scaling_policy()
    packets = generate_trace(trace_profile, n_flows=n_flows, seed=seed)
    n_packets = len(packets)

    serial_s, serial_sum, n_vectors, _ = _timed_run(
        api.compile(policy, n_nics=n_nics), packets)

    transport_mode = None
    runs = []
    for workers in worker_counts:
        elapsed, checksum, _, transport = _timed_run(
            api.compile(policy, n_nics=n_nics, workers=workers,
                        backend="process"),
            packets, warm=True)
        run = {
            "workers": workers,
            "seconds": round(elapsed, 4),
            "pps": round(n_packets / elapsed, 1),
            "speedup": round(serial_s / elapsed, 3),
            "checksum": checksum,
            "equivalent": checksum == serial_sum,
        }
        if transport is not None:
            transport_mode = transport["mode"]
            frames = transport["frames"]
            run["transport"] = {
                "mode": transport["mode"],
                "frames": frames,
                "bytes": transport["bytes"],
                "bytes_per_batch": (round(transport["bytes"] / frames, 1)
                                    if frames else 0.0),
                "fallback_chunks": transport["fallback_chunks"],
                "parked_frames": transport["parked_frames"],
            }
        runs.append(run)

    # One traced pass on the largest parallel configuration: the timed
    # runs above stay telemetry-free, and the latency percentiles cover
    # shard dispatch/merge as well as the per-stage pipeline spans.
    from repro.bench.hotpath import latency_percentiles
    latency_workers = max(worker_counts, default=1)
    latency = latency_percentiles(
        policy, packets, n_nics,
        telemetry_path=telemetry_path)  # serial graph: pipeline spans
    if latency_workers > 1:
        from repro.core.telemetry import (
            Telemetry,
            TelemetryConfig,
            histogram_percentiles,
        )
        tel = Telemetry(TelemetryConfig(sample_rate=1 / 32))
        traced = api.compile(policy, n_nics=n_nics,
                             workers=latency_workers, backend="process",
                             telemetry=tel)
        result = traced.run(packets)
        traced.close()
        snap = result.dataplane.telemetry_snapshot()
        latency.update({
            name[len("span."):]: histogram_percentiles(hist)
            for name, hist in sorted(snap["histograms"].items())
            if name.startswith("span.") and hist["count"]
            and name[len("span."):].startswith("shard.")
        })

    # Supervision overhead at the largest worker count: the process
    # backend supervises by default, so the scaling numbers above
    # already pay for the journal; this pair isolates its cost.
    supervision = None
    if max(worker_counts, default=1) > 1:
        from repro.core.parallel import ExecutionConfig
        top = max(worker_counts)
        unsup_s, unsup_sum, _, _ = _timed_run(
            api.compile(policy, n_nics=n_nics,
                        execution=ExecutionConfig(
                            workers=top, backend="process",
                            supervise=False)),
            packets, warm=True)
        sup_run = next(r for r in runs if r["workers"] == top)
        supervision = {
            "workers": top,
            "supervised_s": sup_run["seconds"],
            "unsupervised_s": round(unsup_s, 4),
            "overhead_pct": round(
                100.0 * (sup_run["seconds"] - unsup_s) / unsup_s, 2),
            "unsupervised_equivalent": unsup_sum == serial_sum,
        }

    cpu_count = os.cpu_count() or 1
    cores = effective_cores()
    max_speedup = max((r["speedup"] for r in runs), default=0.0)
    max_workers = max(worker_counts, default=1)
    # The >= 2x speedup gate, self-describing: consumers (CI gates, the
    # report table, benchmarks/test_scaling_parallel.py) read status +
    # reason instead of re-deriving the skip condition, and a skipped
    # gate commits its reason with the record.
    if cores < max_workers:
        gate = {"target": speedup_target, "workers": max_workers,
                "status": "skipped",
                "reason": (f"host grants {cores} effective core(s) for "
                           f"{max_workers} workers; speedups measure "
                           f"dispatch overhead, not scaling")}
    else:
        passed = max_speedup >= speedup_target
        gate = {"target": speedup_target, "workers": max_workers,
                "status": "passed" if passed else "failed",
                "reason": (f"max speedup {max_speedup:.2f}x "
                           f"{'>=' if passed else '<'} "
                           f"{speedup_target:.1f}x target on "
                           f"{cores} effective cores")}
    return {
        "bench": "parallel_scaling",
        "cpu_count": cpu_count,
        "effective_cores": cores,
        # Honesty flag: when the host has fewer cores than the largest
        # worker count, the parallel numbers measure dispatch overhead,
        # not scaling — consumers (CI gates, the report table) must not
        # read the speedups as a regression.
        "overhead_dominated": cores < max_workers,
        # How dispatch batches crossed the worker boundary on the
        # parallel runs: "shm" (ring frames) or "oob" (single-buffer
        # frames over the queue).
        "transport": transport_mode,
        "speedup_gate": gate,
        "supervision": supervision,
        "trace": trace_profile,
        "n_flows": n_flows,
        "n_packets": n_packets,
        "n_vectors": n_vectors,
        "n_nics": n_nics,
        "backend": "process",
        "serial": {
            "seconds": round(serial_s, 4),
            "pps": round(n_packets / serial_s, 1),
            "checksum": serial_sum,
        },
        "runs": runs,
        "latency_ns": latency,
        "equivalent": all(r["equivalent"] for r in runs),
        "max_speedup": max_speedup,
    }
