"""Hot-path micro-benchmark: per-stage throughput + profile attribution.

The PR-4 optimization pass (compiled accessors, hash/key caching,
batched cell processing) is gated on this harness.  It measures three
slices of the pipeline on one reduce-heavy flow policy:

- ``switch_only``  — FilterStage admission + MGPV cache inserts into a
  reused event buffer (no NIC work).
- ``engine_only``  — NIC cluster consuming a pre-computed event stream
  (no switch work).
- ``end_to_end``   — ``api.compile(policy).run(packets)``, the same
  run()-only methodology as ``BENCH_parallel.json``'s serial baseline,
  so the two records are directly comparable.
- ``end_to_end_batch`` — the same run() fed one columnar
  :class:`~repro.net.packet.PacketBatch` instead of a Packet list,
  exercising the vectorized admit/insert_batch/consume_batch tier.

Each slice is timed best-of-``repeats``.  A ``cProfile`` pass over one
end-to-end run attributes cumulative self-time to pipeline layers by
module prefix, so a regression shows *where* it landed, not just that
it happened.

Correctness is not assumed: the optimized end-to-end vectors are
checksummed against a run of the pre-optimization oracle (the verbatim
original insert/update paths kept behind ``SUPERFE_REFERENCE_PATH=1``)
and the record carries the ``equivalent`` verdict.

``python -m repro bench-hotpath`` serializes the record to
``BENCH_hotpath.json``; the CI smoke job re-runs the harness and fails
when serial end-to-end pps regresses more than 20% below the committed
record.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import time

import repro.api as api
from repro.bench.parallel import scaling_policy, vectors_checksum
from repro.core.compiler import PolicyCompiler
from repro.core.telemetry import (
    Telemetry,
    TelemetryConfig,
    histogram_percentiles,
    write_jsonl,
)
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.nicsim.loadbalance import NICCluster
from repro.switchsim.filter import FilterStage
from repro.switchsim.mgpv import MGPVCache

#: Serial end-to-end throughput of the pre-optimization pipeline on the
#: reference trace (the ``serial.pps`` committed in BENCH_parallel.json
#: before this pass).  ``speedup_vs_baseline`` is relative to this.
PRE_OPTIMIZATION_PPS = 29539.6

#: Module prefixes used to attribute profile self-time to a pipeline
#: layer.  First match wins; anything else (stdlib, numpy, ...) counts
#: as "other".
_STAGE_PREFIXES = (
    ("switch", "repro/switchsim/"),
    ("nic", "repro/nicsim/"),
    ("streaming", "repro/streaming/"),
    ("core", "repro/core/"),
    ("net", "repro/net/"),
)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs.

    The collector is disabled around the timed calls (exactly what
    ``timeit`` does by default), so the figure reflects the measured
    code path rather than cyclic-GC pauses triggered by allocation debt
    from earlier arms of the benchmark.
    """
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return best


def profile_attribution(fn) -> dict:
    """Run ``fn()`` under cProfile and split self-time by pipeline layer.

    Returns ``{"seconds": {layer: s, ...}, "fraction": {layer: f, ...}}``
    with layers ordered hottest-first.  Profiling overhead inflates the
    absolute seconds; the fractions are what to read.
    """
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    stats = pstats.Stats(prof)
    seconds = {name: 0.0 for name, _ in _STAGE_PREFIXES}
    seconds["other"] = 0.0
    for (filename, _lineno, _func), row in stats.stats.items():
        tottime = row[2]
        path = filename.replace(os.sep, "/")
        for name, prefix in _STAGE_PREFIXES:
            if prefix in path:
                seconds[name] += tottime
                break
        else:
            seconds["other"] += tottime
    total = sum(seconds.values()) or 1.0
    ordered = sorted(seconds, key=seconds.get, reverse=True)
    return {
        "seconds": {k: round(seconds[k], 4) for k in ordered},
        "fraction": {k: round(seconds[k] / total, 4) for k in ordered},
    }


#: Span sample rate of the latency-percentile pass: dense enough to
#: populate every per-stage histogram on a 400-flow trace, sparse enough
#: that the pass finishes in one extra run.
LATENCY_SAMPLE_RATE = 1 / 32


def latency_percentiles(policy, packets, n_nics: int,
                        sample_rate: float = LATENCY_SAMPLE_RATE,
                        telemetry_path: str | None = None) -> dict:
    """Per-stage span latency percentiles from one traced run.

    Runs the extraction once with stride-sampled tracing attached and
    reduces each ``span.<stage>`` histogram to p50/p90/p99 (ns).  This
    is a separate pass — the timed runs above never carry telemetry, so
    the pps numbers stay comparable to prior records.  When
    ``telemetry_path`` is given the full snapshot + spans are also
    dumped as JSON Lines there.
    """
    tel = Telemetry(TelemetryConfig(sample_rate=sample_rate))
    extractor = api.compile(policy, n_nics=n_nics, telemetry=tel)
    result = extractor.run(packets)
    snapshot = result.dataplane.telemetry_snapshot()
    spans = result.dataplane.telemetry_spans()
    latency = {
        name[len("span."):]: histogram_percentiles(hist)
        for name, hist in sorted(snapshot["histograms"].items())
        if name.startswith("span.") and hist["count"]
    }
    if telemetry_path:
        write_jsonl(telemetry_path, snapshot, spans,
                    meta={"bench": "hotpath",
                          "sample_rate": sample_rate})
    return latency


def run_overhead(n_flows: int = 400,
                 n_nics: int = 4,
                 trace_profile: str = "ENTERPRISE",
                 seed: int = 17,
                 repeats: int = 5) -> dict:
    """Measure the cost of enabled-but-unsampled telemetry.

    Times the same end-to-end extraction with no telemetry and with a
    ``sample_rate=0`` attachment (counters live, spans off) in strict
    alternation — interleaving shares thermal/cache drift between the
    two arms instead of crediting it to one.  The CI gate fails when
    ``overhead_fraction`` exceeds its budget (3%).
    """
    policy = scaling_policy()
    packets = generate_trace(trace_profile, n_flows=n_flows, seed=seed)
    n_packets = len(packets)
    off = api.compile(policy, n_nics=n_nics)
    on = api.compile(policy, n_nics=n_nics,
                     telemetry=Telemetry(TelemetryConfig(sample_rate=0.0)))
    off.run(packets)                    # warm both paths before timing
    on.run(packets)
    best_off = best_on = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        off.run(packets)
        best_off = min(best_off, time.perf_counter() - start)
        start = time.perf_counter()
        on.run(packets)
        best_on = min(best_on, time.perf_counter() - start)
    overhead = best_on / best_off - 1.0
    return {
        "bench": "telemetry_overhead",
        "cpu_count": os.cpu_count(),
        "trace": trace_profile,
        "n_flows": n_flows,
        "n_packets": n_packets,
        "n_nics": n_nics,
        "repeats": repeats,
        "pps_off": round(n_packets / best_off, 1),
        "pps_unsampled": round(n_packets / best_on, 1),
        "overhead_fraction": round(overhead, 4),
    }


def run_trace_overhead(n_flows: int = 400,
                       n_nics: int = 4,
                       trace_profile: str = "ENTERPRISE",
                       seed: int = 17,
                       repeats: int = 5,
                       workers: int = 2) -> dict:
    """Measure the cost of causal trace propagation on the process
    backend.

    Times the same shard-parallel extraction with stride-sampled
    telemetry attached twice — ``trace=False`` vs ``trace=True`` (ctx
    on every dispatched batch, dispatch/engine/merge span events) — in
    strict alternation, exactly like :func:`run_overhead`.  The CI
    matrix leg fails when ``overhead_fraction`` exceeds its budget
    (5%).  Both arms must produce bit-identical vectors: the context
    rides the frame header, never the payload.
    """
    from repro.core.parallel import ExecutionConfig

    policy = scaling_policy()
    packets = generate_trace(trace_profile, n_flows=n_flows, seed=seed)
    n_packets = len(packets)

    def build(trace: bool):
        return api.compile(
            policy, n_nics=n_nics,
            execution=ExecutionConfig(workers=workers,
                                      backend="process"),
            telemetry=Telemetry(TelemetryConfig(sample_rate=1 / 64,
                                                trace=trace)))

    off = build(False)
    on = build(True)
    try:
        off_sum = vectors_checksum(off.run(packets).vectors)  # warm
        on_sum = vectors_checksum(on.run(packets).vectors)
        best_off = best_on = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            off.run(packets)
            best_off = min(best_off, time.perf_counter() - start)
            start = time.perf_counter()
            on.run(packets)
            best_on = min(best_on, time.perf_counter() - start)
    finally:
        off.close()
        on.close()
    overhead = best_on / best_off - 1.0
    return {
        "bench": "trace_overhead",
        "cpu_count": os.cpu_count(),
        "trace": trace_profile,
        "n_flows": n_flows,
        "n_packets": n_packets,
        "n_nics": n_nics,
        "workers": workers,
        "backend": "process",
        "repeats": repeats,
        "pps_off": round(n_packets / best_off, 1),
        "pps_traced": round(n_packets / best_on, 1),
        "overhead_fraction": round(overhead, 4),
        "equivalent": off_sum == on_sum,
    }


def _reference_checksum(policy, packets, n_nics: int) -> str:
    """Checksum of the pre-optimization oracle's vectors.

    ``SUPERFE_REFERENCE_PATH`` is read when the pipeline stages are
    constructed, which ``Extractor.run`` does per call — so the
    environment window must cover the run, not just ``api.compile``.
    """
    before = os.environ.get("SUPERFE_REFERENCE_PATH")
    os.environ["SUPERFE_REFERENCE_PATH"] = "1"
    try:
        result = api.compile(policy, n_nics=n_nics).run(packets)
    finally:
        if before is None:
            del os.environ["SUPERFE_REFERENCE_PATH"]
        else:
            os.environ["SUPERFE_REFERENCE_PATH"] = before
    return vectors_checksum(result.vectors)


def run_hotpath(n_flows: int = 400,
                n_nics: int = 4,
                trace_profile: str = "ENTERPRISE",
                seed: int = 17,
                repeats: int = 5,
                profile: bool = True,
                telemetry_path: str | None = None) -> dict:
    """Measure the three pipeline slices and verify oracle equivalence.

    Returns the benchmark record serialized to ``BENCH_hotpath.json``.
    """
    policy = scaling_policy()
    packets = generate_trace(trace_profile, n_flows=n_flows, seed=seed)
    n_packets = len(packets)
    compiled = PolicyCompiler().compile(policy)

    # End-to-end is timed first, before the stage slices allocate their
    # long-lived scaffolding (event lists, profile tables) — the number
    # must be comparable to a standalone run() loop.
    extractor = api.compile(policy, n_nics=n_nics)
    result = extractor.run(packets)
    checksum = vectors_checksum(result.vectors)
    n_vectors = len(result.vectors)
    e2e_s = _best_of(lambda: extractor.run(packets), repeats)

    # Columnar arm: identical policy and trace, but the packets arrive
    # as one structured-array batch so the dataplane takes the
    # vectorized admit_batch/insert_batch/consume_batch tier.  The
    # checksum must match the per-packet arm bit for bit — speed that
    # changes the vectors is a bug, not a win.
    batch = PacketBatch.from_packets(packets)
    batch_checksum = vectors_checksum(extractor.run(batch).vectors)
    e2e_batch_s = _best_of(lambda: extractor.run(batch), repeats)

    def switch_only() -> None:
        cache = MGPVCache(compiled.cg, compiled.fg,
                          compiled.sized_mgpv_config(None),
                          compiled.metadata_fields)
        admit = FilterStage(list(compiled.switch_filters)).admit
        insert = cache.insert
        buf: list = []
        for pkt in packets:
            if admit(pkt):
                buf.clear()
                insert(pkt, buf)
        cache.flush()

    switch_s = _best_of(switch_only, repeats)

    # Pre-compute the event stream once so engine_only times NIC work.
    cache = MGPVCache(compiled.cg, compiled.fg,
                      compiled.sized_mgpv_config(None),
                      compiled.metadata_fields)
    admit = FilterStage(list(compiled.switch_filters)).admit
    events: list = []
    for pkt in packets:
        if admit(pkt):
            events.extend(cache.insert(pkt))
    events.extend(cache.flush())

    def engine_only() -> None:
        cluster = NICCluster(compiled, n_nics)
        consume = cluster.consume
        for event in events:
            consume(event)
        cluster.finalize()

    engine_s = _best_of(engine_only, repeats)

    attribution = (profile_attribution(lambda: extractor.run(packets))
                   if profile else None)

    # Traced pass last: it attaches telemetry to a *separate* extractor,
    # so the timed numbers above are telemetry-free by construction.
    latency = latency_percentiles(policy, packets, n_nics,
                                  telemetry_path=telemetry_path)

    reference_sum = _reference_checksum(policy, packets, n_nics)
    e2e_pps = n_packets / e2e_s
    e2e_batch_pps = n_packets / e2e_batch_s

    return {
        "bench": "hotpath",
        "cpu_count": os.cpu_count(),
        "trace": trace_profile,
        "n_flows": n_flows,
        "n_packets": n_packets,
        "n_vectors": n_vectors,
        "n_nics": n_nics,
        "repeats": repeats,
        "stages": {
            "switch_only": {
                "seconds": round(switch_s, 4),
                "pps": round(n_packets / switch_s, 1),
            },
            "engine_only": {
                "seconds": round(engine_s, 4),
                "pps": round(n_packets / engine_s, 1),
                "n_events": len(events),
            },
            "end_to_end": {
                "seconds": round(e2e_s, 4),
                "pps": round(e2e_pps, 1),
                "checksum": checksum,
            },
            "end_to_end_batch": {
                "seconds": round(e2e_batch_s, 4),
                "pps": round(e2e_batch_pps, 1),
                "checksum": batch_checksum,
            },
        },
        "latency_ns": latency,
        "latency_sample_rate": LATENCY_SAMPLE_RATE,
        "baseline_pps": PRE_OPTIMIZATION_PPS,
        "speedup_vs_baseline": round(e2e_pps / PRE_OPTIMIZATION_PPS, 3),
        "columnar_speedup": round(e2e_batch_pps / e2e_pps, 3),
        "profile": attribution,
        "reference_checksum": reference_sum,
        "equivalent": (checksum == reference_sum
                       and batch_checksum == reference_sum),
    }
