"""One workload, measured in a fresh subprocess (spawned by run.py).

Phases, in order: load the generated input; set-up (import ``repro``,
``api.compile``, one warm rep on the input's prefix); correctness
checks on the prefix; timed reps with telemetry off; then — when
tracing — one traced rep driven stage by stage plus the per-layer
probes.  Everything is driven through the public API: ``repro.api``,
the stage objects a ``Dataplane`` exposes, and ``repro.core.transport``'s
exported functions.  The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()       # set-up is timed from process start

import argparse                     # noqa: E402
import gc                           # noqa: E402
import hashlib                      # noqa: E402
import json                         # noqa: E402
import os                           # noqa: E402
import resource                     # noqa: E402
import statistics                   # noqa: E402
import sys                          # noqa: E402
from pathlib import Path            # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracing import (               # noqa: E402
    LAYER_MODULE,
    SpanLog,
    drive_columnar,
    drive_stream,
)
from workloads import (             # noqa: E402
    STREAM_BATCH,
    STREAM_QUEUE,
    WORKLOADS,
    check_flow_oracle,
    sharded_workers,
)

#: Rows per encoded frame in the transport probes: the steady-state
#: chunk of the cluster's slow-start batcher.
FRAME_ROWS = 1024


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def checksum(vectors) -> str:
    """Order-normalised digest of a run's vectors (shard merge order and
    chunk boundaries must not matter; every value bit must)."""
    rows = sorted(repr(tuple(v.key)).encode() + b"|" + v.values.tobytes()
                  + (b"D" if v.degraded else b"-") for v in vectors)
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row)
    return digest.hexdigest()


def self_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def pids_cpu_s(pids) -> float:
    """utime+stime of live processes, from /proc (the persistent pool's
    workers are not reaped until the extractor closes)."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def worker_pids(dataplane) -> list[int]:
    health = dataplane.health()
    if health is None:
        return []
    return [w["pid"] for w in health["workers"] if w["pid"]]


def message_kinds(dataplane) -> dict:
    """Coordinator->worker queue messages by kind.  The pool's workers
    count across runs, so callers take a delta."""
    health = dataplane.health()
    if health is None:
        return {}
    return dict(health["transport"]["queue_message_kinds"])


def quartile_share(values) -> float:
    """(Q3 - Q1) / median, the spread statistic the driver uses."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


class Bench:
    """One workload's state across phases."""

    def __init__(self, spec, data, args) -> None:
        import repro.api as api
        self.api = api
        self.spec = spec
        self.data = data
        self.args = args
        self.packets = len(data)
        self.workers = sharded_workers()
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, object] = {}
        self.ex = None
        self.layer_share: dict[str, float] = {}
        self.frame_bytes = 0.0          # mean shipped frame (sharded only)
        self.trace_log = None

    # -- building ----------------------------------------------------------

    def compile(self, *, serial: bool = False, telemetry=None):
        spec = self.spec
        kwargs = dict(n_nics=spec.n_nics, telemetry=telemetry)
        if spec.sharded and not serial:
            from repro import ExecutionConfig
            kwargs["execution"] = ExecutionConfig(
                workers=self.workers, backend="process", transport="shm")
        return self.api.compile(spec.policy(), **kwargs)

    # -- one rep -----------------------------------------------------------

    def source(self, data):
        """``data`` in the form the workload's call shape ingests:
        Packet objects for the stream workload, the array otherwise."""
        if self.spec.stream:
            return self.api.PacketBatch(data).to_packets()
        return data

    def rep(self, ex, source):
        """One untraced rep in the workload's call shape over
        ``source`` (see :meth:`source`).  Returns ``(wall_s, vectors,
        result_or_None, yield_gaps)``."""
        if self.spec.stream:
            gc.collect()
            gaps: list[float] = []
            vectors: list = []
            t0 = last = time.perf_counter()
            for chunk in ex.stream(source, batch_size=STREAM_BATCH,
                                   queue_batches=STREAM_QUEUE,
                                   overload="block"):
                vectors.extend(chunk)
                t = time.perf_counter()
                gaps.append(t - last)
                last = t
            return time.perf_counter() - t0, vectors, None, gaps
        # A fresh batch per rep: PacketBatch memoises column lists, and
        # a caller who runs a batch once pays that conversion.
        batch = self.api.PacketBatch(source)
        gc.collect()
        t0 = time.perf_counter()
        result = ex.run(batch)
        wall = time.perf_counter() - t0
        return wall, result.vectors, result, [wall]

    def failed_packets(self, ex, vectors, result) -> int:
        """Packets this rep failed: shed/dropped/deadline-missed at
        ingest, dropped on the link, or in a degraded vector (events and
        vectors count as one packet each — a lower bound)."""
        failed = sum(1 for v in vectors if v.degraded)
        if self.spec.stream:
            ingest = ex.health()["ingest"]
            failed += ingest["dropped_packets"]
            failed += ingest["deadline_missed"] * STREAM_BATCH
            if not (ingest["packets_in"] == self.packets
                    == ingest["packets_processed"]
                    + ingest["dropped_packets"]):
                self.checks["ingest_conserves_packets"] = False
        else:
            link = result.dataplane.counters()["link"]
            failed += (link["drops_injected"] + link["drops_fault"]
                       + link["drops_backpressure"])
        return failed

    # -- phases ------------------------------------------------------------

    def setup(self) -> float:
        """compile + warm rep on the prefix; returns seconds since
        process start (the caller subtracts input loading)."""
        spec = self.spec
        self.ex = self.compile()
        self.prefix = self.data[:spec.prefix]
        self.prefix_source = self.source(self.prefix)
        _, vectors, result, _ = self.rep(self.ex, self.prefix_source)
        if spec.stream:
            # For a collect("pkt") policy stream()'s final flush yields
            # every per-packet vector again, the ones earlier chunks
            # already delivered included (the same objects); the
            # comparison with run() is over the distinct ones.
            vectors = list({id(v): v for v in vectors}.values())
        self.prefix_sum = checksum(vectors)
        self.pool_pids = (worker_pids(result.dataplane)
                          if result is not None else [])
        return time.perf_counter() - T_START

    def verify_prefix(self) -> None:
        """The cross-path checks, on the set-up prefix."""
        spec = self.spec
        if spec.sharded:
            with self.compile(serial=True) as serial:
                ref = serial.run(self.api.PacketBatch(self.prefix)).vectors
            self.checks["prefix_sharded_equals_serial"] = (
                checksum(ref) == self.prefix_sum)
        else:
            # run(list[Packet]) takes the per-packet tier end to end.
            packets = (self.prefix_source if spec.stream else
                       self.api.PacketBatch(self.prefix).to_packets())
            ref = self.ex.run(packets).vectors
            name = ("prefix_stream_equals_run" if spec.stream
                    else "prefix_columnar_equals_per_packet")
            self.checks[name] = checksum(ref) == self.prefix_sum

    def timed(self, budget_s: float, min_reps: int) -> None:
        spec = self.spec
        self.full_source = self.source(self.data)
        # The input (and everything set-up left alive) is not the
        # program's garbage: keep it out of every later collection.
        gc.collect()
        gc.freeze()
        walls: list[float] = []
        gaps: list[float] = []
        final_gaps: list[float] = []
        sums: set[str] = set()
        failed = 0
        vectors = result = None
        cpu0 = self_cpu_s()
        wcpu0 = pids_cpu_s(self.pool_pids)
        began = time.perf_counter()
        reps = 1 if self.args.quick else min_reps
        if spec.stream:
            self.checks["ingest_conserves_packets"] = True
        while len(walls) < reps or (not self.args.quick and
                                    time.perf_counter() - began < budget_s):
            # Nothing may keep a rep's output alive into the next rep:
            # the collector would re-scan it on every pass.
            vectors = result = None
            wall, vectors, result, rep_gaps = self.rep(self.ex,
                                                       self.full_source)
            walls.append(wall)
            gaps.extend(rep_gaps)
            final_gaps.append(rep_gaps[-1])
            sums.add(checksum(vectors))
            failed += self.failed_packets(self.ex, vectors, result)
        cpu = self_cpu_s() - cpu0
        wcpu = pids_cpu_s(self.pool_pids) - wcpu0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if spec.sharded:
            self.checks["pool_persistent"] = (
                worker_pids(result.dataplane) == self.pool_pids)
        self.walls = walls
        self.median_wall = statistics.median(walls)
        self.checks["checksum_repeats"] = len(sums) == 1
        self.run_sum = next(iter(sums))
        self.failed = failed
        self.attempted = self.packets * len(walls)
        self.last_result = result
        if spec.flow_oracle:
            matched, total = check_flow_oracle(self.data, vectors)
            self.checks["flow_oracle_exact"] = matched == total
            self.notes["flow_oracle"] = f"{matched}/{total}"
        gaps.sort()
        m = self.metrics
        m["pps"] = self.packets / self.median_wall
        m["cpu_us_per_pkt"] = (cpu + wcpu) * 1e6 / self.attempted
        # Time between consecutive deliveries of results: a stream's
        # yield gaps pooled over the reps; a batch run delivers once,
        # so there it is the rep wall.
        m["chunk_ms_p50"] = statistics.median(gaps) * 1e3
        m["peak_rss_mb"] = rss_mb
        m["harness.rep_iqr_share"] = quartile_share(walls)
        m["parallel.worker_cpu_share"] = (wcpu / (cpu + wcpu)
                                          if cpu + wcpu else 0.0)
        self.notes["chunk_samples"] = len(gaps)
        if spec.stream:
            ingest = self.ex.health()["ingest"]
            m["stream.yields"] = len(gaps) // len(walls)
            m["stream.chunk_ms_p95"] = percentile(gaps, 95) * 1e3
            # The last yield of a stream is the final flush.
            m["stream.final_flush_ms"] = statistics.median(final_gaps) * 1e3
            m["ingest.dropped_packets"] = ingest["dropped_packets"]
            m["ingest.deadline_missed"] = ingest["deadline_missed"]

    # -- traced rep and per-layer probes -------------------------------------

    def traced(self) -> None:
        spec = self.spec
        log = SpanLog()
        kinds0 = (message_kinds(self.last_result.dataplane)
                  if self.last_result is not None else {})
        self.last_result = None
        gc.collect()
        if spec.stream:
            vectors, dp, wall_ns = drive_stream(
                self.ex, self.stream_chunks(), log)
        else:
            vectors, dp, wall_ns = drive_columnar(
                self.ex, self.api.PacketBatch(self.data), log)
        self.checks["traced_equals_untraced"] = (
            checksum(vectors) == self.run_sum)
        from repro import ExtractionResult
        t0 = time.perf_counter_ns()
        ExtractionResult(vectors=vectors,
                         feature_names=self.ex.feature_names,
                         switch_stats=dp.switch.stats, engine=None,
                         compiled=self.ex.compiled).frame()
        log.add("frame.build", t0, time.perf_counter_ns(), -1, -1)
        self.span_metrics(log, wall_ns, len(vectors))
        self.counter_metrics(dp, vectors, kinds0)
        vectors = dp = None

        t0 = time.perf_counter()
        self.compile()
        self.metrics["compile.ms"] = (time.perf_counter() - t0) * 1e3
        self.probe_transport()
        if spec.stream:
            self.probe_stream_overhead()
        if spec.sharded:
            self.probe_parallel()
        if spec.name == "flow-enterprise":
            self.probe_telemetry()
        self.trace_log = log

    def stream_chunks(self) -> list[list]:
        return [self.full_source[i:i + STREAM_BATCH]
                for i in range(0, self.packets, STREAM_BATCH)]

    def span_metrics(self, log: SpanLog, wall_ns: int,
                     n_vectors: int) -> None:
        """Per-layer times: span self-times over offered packets.  The
        roots' own self time is what no layer span covers."""
        m = self.metrics
        n = self.packets
        self_ns = log.self_times()
        frame_ns = self_ns.pop("frame.build")       # outside run()'s wall
        layer_ns = {name: ns for name, ns in self_ns.items()
                    if name not in ("run", "chunk", "flush")}
        m["trace.unattributed_share"] = (
            1.0 - sum(layer_ns.values()) / wall_ns)
        m["trace.overhead_share"] = (wall_ns / 1e9) / self.median_wall - 1.0
        for stem in ("filter.admit", "net.compress", "mgpv.insert",
                     "link.consume", "engine.consume", "engine.finalize",
                     "engine.take_vectors", "parallel.dispatch"):
            m[f"{stem}_ns_per_pkt"] = layer_ns.get(stem, 0) / n
        m["mgpv.flush_ms"] = layer_ns.get("mgpv.flush", 0) / 1e6
        m["parallel.merge_wait_ms"] = layer_ns.get(
            "parallel.merge_wait", 0) / 1e6
        m["engine.finalize_us_per_vector"] = (
            layer_ns.get("engine.finalize", 0) / 1e3 / max(n_vectors, 1))
        m["frame.build_us_per_vector"] = frame_ns / 1e3 / max(n_vectors, 1)
        self.layer_share = {}
        for name, ns in layer_ns.items():
            module = LAYER_MODULE[name.split(".")[0]]
            self.layer_share[module] = (self.layer_share.get(module, 0.0)
                                        + ns / wall_ns)

    def counter_metrics(self, dp, vectors, kinds0: dict) -> None:
        """Counts and ratios, read from the traced rep's stage objects
        where the work happened."""
        m = self.metrics
        n = self.packets
        counters = dp.counters()
        stats = dp.switch.stats
        flt = counters["filter"]
        link = counters["link"]
        m["filter.admitted_share"] = flt["admitted"] / max(flt["pkts_in"], 1)
        m["mgpv.records_per_kpkt"] = stats.records_out * 1e3 / n
        m["mgpv.cells_per_record"] = (stats.cells_out
                                      / max(stats.records_out, 1))
        m["mgpv.syncs_per_kpkt"] = stats.syncs_out * 1e3 / n
        for kind, count in stats.evictions.items():
            m[f"mgpv.evict_{kind}"] = count
        allocs = stats.long_allocs + stats.long_alloc_failures
        m["mgpv.long_alloc_fail_share"] = (
            stats.long_alloc_failures / allocs if allocs else 0.0)
        m["link.agg_ratio_bytes"] = dp.link.aggregation_ratio_bytes
        m["link.agg_ratio_rate"] = dp.link.aggregation_ratio_rate
        dropped = (link["drops_injected"] + link["drops_fault"]
                   + link["drops_backpressure"])
        m["link.dropped_events"] = dropped
        self.failed += dropped
        m["engine.vectors"] = len(vectors)
        m["engine.degraded_vectors"] = sum(1 for v in vectors if v.degraded)
        health = dp.health()
        if health is None:
            return
        tr = health["transport"]
        self.notes["transport_mode"] = tr["mode"]
        m["transport.bytes_per_pkt"] = tr["bytes"] / n
        m["transport.frames"] = tr["frames"]
        m["transport.parked_frames"] = tr["parked_frames"]
        m["transport.fallback_chunks"] = tr["fallback_chunks"]
        m["parallel.msgs_per_kpkt"] = (
            sum(message_kinds(dp).values())
            - sum(kinds0.values())) * 1e3 / n
        sup = health["supervision"]
        m["parallel.restarts"] = sup["restarts"] if sup else 0
        self.frame_bytes = tr["bytes"] / max(tr["frames"], 1)

    def probe_transport(self) -> None:
        """``encode_rows`` / ``apply_frame`` / ``ShmRing`` timed on the
        events this workload's prefix makes the switch emit, as wire
        rows in the documented layout (transport module docstring)."""
        from repro.core.transport import ShmRing, apply_frame, encode_rows
        from repro.nicsim.loadbalance import route_shard
        from repro.switchsim.mgpv import FGSync
        api = self.api
        with self.compile(serial=True) as serial:
            dp = serial.dataplane()
            prefix = api.PacketBatch(self.prefix)
            admitted = prefix.compress(dp.filter.admit_batch(prefix))
            events = dp.link.consume_batch(
                dp.switch.insert_batch(admitted))
            events += dp.link.consume_batch(dp.switch.flush())
            engines = (dict(enumerate(dp.cluster.engines))
                       if dp.cluster is not None else {0: dp.engine})
            alive = [True] * len(engines)
            project = serial.compiled.cg.project
            rows = []
            for ev in events:
                if isinstance(ev, FGSync):
                    shard = route_shard(project(ev.key), alive)[0]
                    rows.append((shard, 1, ev.index, ev.key))
                    continue
                shard = route_shard(ev.cg_key, alive, ev.cg_hash32)[0]
                if len(ev.cells) > 1:
                    rows.append((shard, 2, ev.cg_key, ev.cg_hash32,
                                 tuple(c[0] for c in ev.cells),
                                 tuple(zip(*(c[1] for c in ev.cells))),
                                 ev.reason))
                else:
                    rows.append((shard, 0, ev.cg_key, ev.cg_hash32,
                                 ev.cells, ev.reason))
            n = len(self.prefix)
            t0 = time.perf_counter_ns()
            frames = [encode_rows(rows[i:i + FRAME_ROWS])
                      for i in range(0, len(rows), FRAME_ROWS)]
            t1 = time.perf_counter_ns()
            self.checks["probe_frames_encode"] = None not in frames
            frames = [f for f in frames if f is not None]
            for frame in frames:
                apply_frame(frame, engines)
            t2 = time.perf_counter_ns()
            dp.close()
        m = self.metrics
        m["transport.encode_ns_per_pkt"] = (t1 - t0) / n
        m["transport.apply_ns_per_pkt"] = (t2 - t1) / n
        if not frames:
            return
        size = int(self.frame_bytes
                   or sum(map(len, frames)) / len(frames))
        payload = bytes(max(size, 8))
        try:
            ring = ShmRing(1 << 20, label="bench")
        except OSError:
            return                      # no shared memory on this host
        try:
            rounds = 500
            t0 = time.perf_counter_ns()
            for seq in range(rounds):
                ring.try_push(payload, seq)
                ring.pop()
            m["transport.ring_us_per_frame"] = (
                (time.perf_counter_ns() - t0) / 1e3 / rounds)
        finally:
            ring.close()

    def probe_stream_overhead(self) -> None:
        """``stream()``'s own cost: its wall against a bare
        ``dataplane.process(chunk)`` loop over the same chunks."""
        chunks = self.stream_chunks()
        dp = self.ex.dataplane()
        gc.collect()
        t0 = time.perf_counter()
        vectors: list = []
        for chunk in chunks:
            vectors.extend(dp.process(chunk))
        vectors.extend(dp.flush())
        dp.close()
        bare = time.perf_counter() - t0
        self.checks["bare_loop_equals_stream"] = (
            checksum(vectors) == self.run_sum)
        self.metrics["stream.overhead_share"] = self.median_wall / bare - 1.0

    def probe_parallel(self) -> None:
        """A serial rep of the same input in this subprocess (ratio and
        full-size checksum equality), then the pool's spawn cost: the
        first ``dataplane()`` after ``close()`` forks the workers and
        maps their rings."""
        m = self.metrics
        with self.compile(serial=True) as serial:
            wall, vectors, _, _ = self.rep(serial, self.data)
        self.checks["sharded_equals_serial"] = (
            checksum(vectors) == self.run_sum)
        vectors = None
        m["parallel.serial_ratio"] = wall / self.median_wall
        self.ex.close()
        t0 = time.perf_counter()
        dp = self.ex.dataplane()
        m["parallel.spawn_ms"] = (time.perf_counter() - t0) * 1e3
        dp.close()

    def probe_telemetry(self) -> None:
        """What observing costs: prefix reps with telemetry off,
        metrics-only (``True``) and span-sampled (``1/64``),
        interleaved; medians."""
        arms = {"off": None, "metrics": True, "sampled": 1 / 64}
        walls: dict[str, list[float]] = {k: [] for k in arms}
        extractors = {k: self.compile(telemetry=v) for k, v in arms.items()}
        order = list(extractors)
        try:
            for _ in range(5):
                for arm in order:
                    walls[arm].append(
                        self.rep(extractors[arm], self.prefix)[0])
                order.append(order.pop(0))      # no arm always goes first
        finally:
            for ex in extractors.values():
                ex.close()
        off = statistics.median(walls["off"])
        m = self.metrics
        m["telemetry.metrics_overhead_share"] = (
            statistics.median(walls["metrics"]) / off - 1.0)
        m["telemetry.sampled_overhead_share"] = (
            statistics.median(walls["sampled"]) / off - 1.0)

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        self.ex.close()
        if self.spec.sharded:
            pid = os.getpid()
            shm = Path("/dev/shm")
            leaked = (sorted(p.name for p in shm.glob(f"superfe-{pid}-*"))
                      if shm.is_dir() else [])
            self.checks["no_shm_leak"] = not leaked
            if leaked:
                self.notes["shm_leaked"] = leaked


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--input", required=True)
    ap.add_argument("--phase", choices=("full", "setup"), default="full")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1", "both"), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import numpy as np
    t0 = time.perf_counter()
    data = np.load(args.input)
    load_s = time.perf_counter() - t0

    spec = WORKLOADS[args.workload].sized(args.quick)
    bench = Bench(spec, data, args)
    setup_s = bench.setup() - load_s
    if args.phase == "setup":
        bench.ex.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    bench.metrics["setup_s"] = setup_s
    bench.verify_prefix()
    # --trace 1 reports per-layer numbers only: half the budget goes to
    # the untraced baseline the traced rep is compared against.
    if args.trace == "1":
        bench.timed(args.seconds / 2, min_reps=2)
    else:
        bench.timed(args.seconds, min_reps=3)
    if args.trace != "0":
        bench.traced()
    bench.close()
    if bench.trace_log is not None and args.trace_out:
        bench.trace_log.write(args.trace_out, {
            "workload": spec.name, "packets": bench.packets,
            "quick": args.quick})
    checks = bench.checks
    correct = all(checks.values())
    print(json.dumps({
        "workload": spec.name,
        "correct": correct,
        "checks": checks,
        "attempted": bench.attempted,
        "failed": bench.failed if correct else bench.attempted,
        "packets": bench.packets,
        "reps": len(bench.walls),
        "rep_wall_s": bench.walls,
        "workers": bench.workers if spec.sharded else 1,
        "metrics": bench.metrics,
        "layer_share": bench.layer_share,
        "notes": bench.notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
