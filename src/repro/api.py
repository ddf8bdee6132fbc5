"""The single entry point for building SuperFE extractors.

Every deployment — hardware pipeline, NIC cluster, shard-parallel
executor, software baseline — is built the same way::

    import repro.api as api

    ex = api.compile(policy, n_nics=4, workers=4, backend="process")
    result = ex.run(packets)          # one-shot extraction
    for vectors in ex.stream(live):   # incremental extraction
        consume(vectors)

    ref = ex.baseline().run(packets)  # the software oracle, same policy

:func:`compile` resolves the deployment shape once and returns an
:class:`Extractor`, which owns it: the compiled policy and the one set
of :meth:`Dataplane.build <repro.core.dataplane.Dataplane.build>`
arguments every run, stream session and runtime deployment is wired
from.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from typing import Iterable, Iterator

from repro.core import flightrec
from repro.core.compiler import PolicyCompiler
from repro.core.dataplane import Dataplane
from repro.core.functions import ExecContext
from repro.core.parallel import BACKENDS, ExecutionConfig, WorkerPool
from repro.core.pipeline import ExtractionResult, FeatureFrame
from repro.core.policy import Policy
from repro.core.runtime import SuperFERuntime
from repro.core.telemetry import Telemetry, TelemetryConfig
from repro.net.packet import PacketBatch
from repro.nicsim.engine import FeatureVector
from repro.nicsim.placement import PlacementProblem, solve_ilp

__all__ = ["Extractor", "FeatureFrame", "OpsServer", "PacketBatch",
           "compile", "serve_ops", "OVERLOAD_POLICIES"]

#: What ingestion does when the bounded stream queue is full: ``block``
#: applies backpressure to the source, ``shed`` drops the whole batch,
#: ``degrade`` thins the batch to a sample and blocks for the rest.
OVERLOAD_POLICIES = ("block", "shed", "degrade")


def _resolve_telemetry(telemetry) -> Telemetry | None:
    """One Telemetry from whichever spelling the caller used: an
    assembled :class:`Telemetry`, a :class:`TelemetryConfig`, a bare
    sample rate, or ``True`` for metrics-only collection."""
    if telemetry is None or isinstance(telemetry, Telemetry):
        return telemetry
    if isinstance(telemetry, TelemetryConfig):
        return Telemetry(telemetry)
    if telemetry is True:
        return Telemetry(TelemetryConfig())
    if isinstance(telemetry, (int, float)):
        return Telemetry(TelemetryConfig(sample_rate=float(telemetry)))
    raise TypeError(
        f"telemetry must be a Telemetry, TelemetryConfig, sample rate, "
        f"or True, got {type(telemetry).__name__}")


def _resolve_execution(execution, backend, workers) -> ExecutionConfig | None:
    """One ExecutionConfig from whichever spelling the caller used."""
    if execution is not None:
        if backend is not None or workers is not None:
            raise ValueError(
                "pass either execution= or backend=/workers=, not both")
        return execution
    if backend is None and workers is None:
        return None                     # Dataplane.build falls back to env
    if backend is None:
        backend = "process" if (workers or 1) > 1 else "serial"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (have {', '.join(BACKENDS)})")
    return ExecutionConfig(workers=workers if workers is not None else 1,
                           backend=backend)


def compile(policy: Policy, *,
            software: bool = False,
            n_nics: int = 1,
            workers: int | None = None,
            backend: str | None = None,
            execution: ExecutionConfig | None = None,
            division_free: bool | None = None,
            mgpv_config=None,
            link_config=None,
            fault_plan=None,
            use_placement: bool = True,
            table_indices: int | None = None,
            table_width: int | None = None,
            telemetry=None) -> "Extractor":
    """Compile a policy into a ready-to-run :class:`Extractor`.

    ``software=True`` selects the unbatched full-precision baseline
    path (ignores the hardware-only knobs).  ``n_nics > 1`` terminates
    the graph in the hash-steered NIC cluster; adding ``workers`` /
    ``backend`` (or a full :class:`ExecutionConfig`) runs the cluster
    shards on the parallel executor.  ``division_free`` defaults to the
    path's native arithmetic (integer on hardware — it is how the real
    FE-NIC computes — float in software; turn it off on hardware for
    bit-exact float results).  ``use_placement`` solves the §6.2 ILP so
    the NIC group tables land in the right memory levels.
    ``telemetry`` attaches the typed metrics/span layer: pass a
    :class:`~repro.core.telemetry.Telemetry`, a ``TelemetryConfig``, a
    bare span sample rate, or ``True`` for metrics-only collection.
    """
    if not isinstance(policy, Policy):
        raise TypeError(f"policy must be a Policy, got "
                        f"{type(policy).__name__}")
    exec_cfg = _resolve_execution(execution, backend, workers)
    if software:
        if n_nics != 1:
            raise ValueError("software=True is the single-host baseline "
                             "— it has no NIC cluster (n_nics must be 1)")
        if exec_cfg is not None and exec_cfg.is_parallel:
            raise ValueError("software=True has no shard-parallel "
                             "executor (drop workers=/backend=)")
    if division_free is None:
        division_free = not software
    if table_indices is None:
        table_indices = 65536 if software else 4096
    if table_width is None:
        table_width = 64 if software else 4
    build = dict(
        software=software,
        ctx=ExecContext(division_free=division_free),
        table_indices=table_indices,
        table_width=table_width,
        telemetry=_resolve_telemetry(telemetry))
    if not software:
        build.update(mgpv_config=mgpv_config, n_nics=n_nics,
                     link_config=link_config, fault_plan=fault_plan,
                     execution=exec_cfg)
    return Extractor(policy, build,
                     use_placement=use_placement and not software)


class _StreamSession:
    """One bounded-queue ingestion run behind :meth:`Extractor.stream`.

    A feeder thread pulls the packet source into a queue of at most
    ``queue_batches`` chunks; the consumer (the generator the caller
    iterates) drains it through the dataplane.  When the queue is full
    the ``overload`` policy decides: ``block`` (backpressure the
    source), ``shed`` (drop the chunk, count it), or ``degrade`` (keep
    every ``degrade_stride``-th packet, drop the rest).  ``deadline_s``
    bounds each batch: under the supervised process backend the
    deadline propagates to every worker operation, so an overrunning
    batch surfaces as a stalled-worker restart instead of an unbounded
    wait.  The session keeps the ingestion ledger served by
    :meth:`Extractor.health`.
    """

    _SENTINEL = object()

    def __init__(self, dataplane: Dataplane, telemetry, batch_size: int,
                 queue_batches: int, overload: str,
                 deadline_s: float | None, degrade_stride: int) -> None:
        self.batch_size = batch_size
        self.overload = overload
        self.deadline_s = deadline_s
        self.degrade_stride = degrade_stride
        self.queue_capacity = queue_batches
        self.state = "running"
        self.batches_in = 0
        self.packets_in = 0
        self.batches_processed = 0
        self.packets_processed = 0
        self.shed_batches = 0
        self.shed_packets = 0
        self.degraded_batches = 0
        self.degraded_packets = 0
        self.deadline_missed = 0
        self.feed_error: BaseException | None = None
        self.dataplane = dataplane
        self._queue: queue_mod.Queue = queue_mod.Queue(
            maxsize=queue_batches)
        self._stop = threading.Event()
        self._t_depth = None
        self._t_shed = None
        self._t_batches = None
        self._t_packets = None
        self._t_missed = None
        if telemetry is not None:
            reg = telemetry.registry
            self._t_depth = reg.gauge("ingest.queue_depth")
            self._t_shed = reg.rate("ingest.shed")
            self._t_batches = reg.counter("ingest.batches")
            self._t_packets = reg.counter("ingest.packets")
            self._t_missed = reg.counter("ingest.deadline_missed")

    # -- feeder side -------------------------------------------------------

    def _feed(self, packets: Iterable) -> None:
        try:
            if isinstance(packets, PacketBatch):
                # Columnar source: stage array slices, not Packet lists —
                # each chunk rides the dataplane's columnar path end to end.
                for lo in range(0, len(packets), self.batch_size):
                    if self._stop.is_set():
                        return
                    self._enqueue(packets[lo:lo + self.batch_size])
                return
            chunk: list = []
            for pkt in packets:
                if self._stop.is_set():
                    return
                chunk.append(pkt)
                if len(chunk) >= self.batch_size:
                    self._enqueue(chunk)
                    chunk = []
            if chunk:
                self._enqueue(chunk)
        except BaseException as exc:    # surfaced by the consumer
            self.feed_error = exc
        finally:
            self._put_blocking(self._SENTINEL)

    def _put_blocking(self, item) -> None:
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.1)
                return
            except queue_mod.Full:
                continue

    def _enqueue(self, chunk: list) -> None:
        self.batches_in += 1
        self.packets_in += len(chunk)
        if self.overload == "block":
            self._put_blocking(chunk)
            return
        try:
            self._queue.put_nowait(chunk)
            return
        except queue_mod.Full:
            pass
        if self.overload == "shed":
            self.shed_batches += 1
            self.shed_packets += len(chunk)
            if self._t_shed is not None:
                self._t_shed.record(time.perf_counter_ns(),
                                    len(chunk))
            flightrec.record("ingest.shed", packets=len(chunk),
                             batch=self.batches_in,
                             queue_depth=self._queue.qsize())
            return
        # degrade: keep a stride sample, drop the rest, and block for
        # the survivors — coverage shrinks but every group stays seen.
        kept = chunk[::self.degrade_stride]
        self.degraded_batches += 1
        self.degraded_packets += len(chunk) - len(kept)
        if self._t_shed is not None:
            self._t_shed.record(time.perf_counter_ns(),
                                len(chunk) - len(kept))
        flightrec.record("ingest.degrade", packets=len(chunk) - len(kept),
                         kept=len(kept), batch=self.batches_in,
                         stride=self.degrade_stride)
        self._put_blocking(kept)

    # -- consumer side -----------------------------------------------------

    def run(self, packets: Iterable) -> Iterator[list[FeatureVector]]:
        feeder = threading.Thread(target=self._feed, args=(packets,),
                                  name="superfe-ingest", daemon=True)
        feeder.start()
        dataplane = self.dataplane
        try:
            while True:
                item = self._queue.get()
                if item is self._SENTINEL:
                    break
                if self._t_depth is not None:
                    self._t_depth.set(self._queue.qsize())
                out = self._process(item)
                if out:
                    yield out
            if self.feed_error is not None:
                raise self.feed_error
            final = dataplane.flush()
            if final:
                yield final
            self.state = "drained"
        finally:
            self._stop.set()
            feeder.join(timeout=5.0)
            if self._t_depth is not None:
                self._t_depth.set(0)
            self.state = ("closed" if self.state != "drained"
                          else "drained")
            dataplane.close()

    def _process(self, chunk: list) -> list[FeatureVector]:
        dataplane = self.dataplane
        deadline = None
        if self.deadline_s is not None:
            deadline = time.monotonic() + self.deadline_s
            dataplane.set_deadline(deadline)
        try:
            out = dataplane.process(chunk)
        finally:
            if deadline is not None:
                dataplane.set_deadline(None)
        if deadline is not None and time.monotonic() > deadline:
            self.deadline_missed += 1
            if self._t_missed is not None:
                self._t_missed.inc()
            flightrec.record("ingest.deadline_missed",
                             batch=self.batches_processed,
                             deadline_s=self.deadline_s)
        self.batches_processed += 1
        self.packets_processed += len(chunk)
        if self._t_batches is not None:
            self._t_batches.inc()
            self._t_packets.inc(len(chunk))
        return out

    # -- observability -----------------------------------------------------

    def report(self) -> dict:
        dropped = self.shed_packets + self.degraded_packets
        return {
            "state": self.state,
            "overload_policy": self.overload,
            "batch_size": self.batch_size,
            "queue_capacity": self.queue_capacity,
            "queue_depth": self._queue.qsize(),
            "batches_in": self.batches_in,
            "packets_in": self.packets_in,
            "batches_processed": self.batches_processed,
            "packets_processed": self.packets_processed,
            "shed_batches": self.shed_batches,
            "shed_packets": self.shed_packets,
            "degraded_batches": self.degraded_batches,
            "degraded_packets": self.degraded_packets,
            "dropped_packets": dropped,
            "shed_rate": (round(dropped / self.packets_in, 6)
                          if self.packets_in else 0.0),
            "deadline_s": self.deadline_s,
            "deadline_missed": self.deadline_missed,
        }


class Extractor:
    """A compiled, deployable feature extractor.

    Built by :func:`compile`; owns the compiled policy and the
    dataplane build arguments the configuration selected, and exposes
    one uniform surface:

    - :meth:`run` — one-shot batch extraction;
    - :meth:`stream` — incremental extraction over a (possibly endless)
      packet source, with bounded-queue ingestion and an overload
      policy;
    - :meth:`health` — the live ingestion + worker-supervision report;
    - :meth:`baseline` — the software oracle for the same policy;
    - :meth:`deploy` — a continuously running control-plane runtime;
    - :meth:`manifests` / :meth:`dataplane` — introspection.

    On the process execution backend the extractor keeps a persistent
    worker pool: the first :meth:`run`/:meth:`stream` spawns the
    workers, later calls reuse them (engines reset per run, processes
    kept warm, shm transport rings kept mapped).  :meth:`close` — or
    use the extractor as a context manager — releases the pool; an
    unclosed extractor's pool is reclaimed on garbage collection.
    """

    def __init__(self, policy: Policy, build: dict, *,
                 use_placement: bool) -> None:
        self.policy = policy
        self.compiled = PolicyCompiler().compile(policy)
        #: The Dataplane.build arguments of this deployment.
        self._build = dict(build)
        self._use_placement = use_placement
        if not self.software:
            self._build["mgpv_config"] = self.compiled.sized_mgpv_config(
                build.get("mgpv_config"))
        # The §6.2 ILP placement: which NIC memory level each state's
        # group table lands in.
        self._build["placement"] = None
        if use_placement:
            states = self.compiled.state_requirements()
            if states:
                self._build["placement"] = solve_ilp(PlacementProblem(
                    states=tuple(states),
                    n_groups=(build["table_indices"]
                              * build["table_width"])))
        # Persistent process-worker pool, spawned lazily on the first
        # parallel dataplane and reused by every later run()/stream
        # (spawn once, reset per run).  Released by close().
        self._pool: WorkerPool | None = None
        self._session: _StreamSession | None = None

    def _twin(self, policy: Policy, **changes) -> "Extractor":
        """A separately owned deployment of ``policy`` with this one's
        knobs (``changes`` override build arguments) — its own pool and
        session, so a runtime can swap and close it freely."""
        return Extractor(policy, {**self._build, **changes},
                         use_placement=self._use_placement)

    # -- introspection -----------------------------------------------------

    @property
    def software(self) -> bool:
        return self._build["software"]

    @property
    def feature_names(self) -> list[str]:
        return self.compiled.feature_names

    @property
    def mgpv_config(self):
        """The sized MGPV cache configuration (None on the software
        path, which has no switch cache)."""
        return self._build.get("mgpv_config")

    @property
    def telemetry(self) -> Telemetry | None:
        """The attached telemetry layer (None unless ``compile`` was
        given ``telemetry=``).  Registry/spans accumulate across
        :meth:`run` / :meth:`stream` calls on this extractor."""
        return self._build["telemetry"]

    def manifests(self) -> tuple[str, str]:
        """The generated FE-Switch / FE-NIC program summaries."""
        return (self.compiled.switch_manifest(),
                self.compiled.nic_manifest())

    def _lease_pool(self) -> WorkerPool | None:
        """The persistent pool for this deployment's parallel runs, or
        None when the deployment is not process-parallel (or the pool
        is mid-lease — a concurrent second dataplane falls back to
        per-run workers rather than sharing a leased pool)."""
        build = self._build
        execution = build.get("execution") or ExecutionConfig.from_env()
        if (execution is None or execution.backend != "process"
                or build.get("n_nics", 1) < 2):
            return None
        if self._pool is not None and self._pool.closed:
            self._pool = None
        if self._pool is None:
            self._pool = WorkerPool(
                self.compiled, execution, ctx=build["ctx"],
                engine_kwargs={k: build[k] for k in (
                    "placement", "table_indices", "table_width")})
        return None if self._pool.leased else self._pool

    def dataplane(self) -> Dataplane:
        """Wire (and return) a fresh dataplane graph for this
        deployment; callers own its lifecycle (call ``close()``)."""
        return Dataplane.build(self.compiled, pool=self._lease_pool(),
                               **self._build)

    # -- execution ---------------------------------------------------------

    def run(self, trace) -> ExtractionResult:
        """Extract feature vectors from a packet trace, one shot.

        ``trace`` is an iterable of :class:`~repro.net.packet.Packet`
        or a :class:`~repro.net.packet.PacketBatch` — the batch form
        runs the columnar dataplane path (same vectors, bit for bit;
        see ``ExtractionResult.frame()`` for the typed output)."""
        dataplane = self.dataplane()
        dataplane.process(trace)
        vectors = dataplane.flush()
        # Release the run's workers (back into the persistent pool on
        # the process backend); stats and counters stay readable from
        # their cached last state.
        dataplane.close()
        return ExtractionResult(
            vectors=vectors,
            feature_names=self.compiled.feature_names,
            switch_stats=dataplane.switch.stats,
            engine=(dataplane.cluster if dataplane.cluster is not None
                    else dataplane.engine),
            compiled=self.compiled,
            dataplane=dataplane,
        )

    def stream(self, packets: Iterable,
               batch_size: int = 1024, *,
               queue_batches: int = 8,
               overload: str = "block",
               deadline_s: float | None = None,
               degrade_stride: int = 8) -> Iterator[list[FeatureVector]]:
        """Incrementally extract from a packet source.

        Ingestion is bounded: a feeder thread chunks ``packets`` (an
        iterable of Packets, or a
        :class:`~repro.net.packet.PacketBatch`, which is staged as
        columnar slices) into ``batch_size`` batches and stages at most
        ``queue_batches`` of them; the generator you iterate drains the queue through a live
        dataplane, yielding the vectors each chunk completed
        (per-packet policies emit as they go; per-group policies emit
        everything in the final flush).  When the queue is full the
        ``overload`` policy applies: ``block`` backpressures the
        source, ``shed`` drops whole batches, ``degrade`` keeps every
        ``degrade_stride``-th packet of the overflowing batch.
        ``deadline_s`` bounds each batch end to end — on the supervised
        process backend it clamps every worker operation, so a stuck
        batch becomes a worker restart, not a hang.  The dataplane is
        closed when the generator finishes or is dropped;
        :meth:`health` reports the session ledger live and after the
        fact.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if queue_batches < 1:
            raise ValueError("queue_batches must be >= 1")
        if overload not in OVERLOAD_POLICIES:
            raise ValueError(f"unknown overload policy {overload!r} "
                             f"(have {', '.join(OVERLOAD_POLICIES)})")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if degrade_stride < 1:
            raise ValueError("degrade_stride must be >= 1")
        session = _StreamSession(
            self.dataplane(), self.telemetry, batch_size, queue_batches,
            overload, deadline_s, degrade_stride)
        self._session = session
        return session.run(packets)

    def health(self) -> dict:
        """Liveness report for this extractor's most recent (or live)
        :meth:`stream` session: ingestion ledger (queue depth, shed
        rate, deadline misses) plus the executor's supervision report
        (worker liveness, restarts, poison batches, transport ledger)
        when the deployment runs the parallel sink."""
        session = self._session
        report: dict = {
            "state": "idle" if session is None else session.state,
            "ingest": None if session is None else session.report(),
            "cluster": None,
        }
        if session is not None:
            probe = getattr(session.dataplane, "health", None)
            if probe is not None:
                report["cluster"] = probe()
        return report

    def flight(self, last: int | None = None) -> list[dict]:
        """The flight-recorder excerpt for this extractor: the
        coordinator's per-process ring plus, when a stream session's
        parallel dataplane is live, the shard workers' last-gathered
        excerpts.  Each event carries its ``pid``; ``last`` bounds the
        dump to the most recent N events."""
        session = self._session
        if session is not None:
            probe = getattr(session.dataplane, "flight_events", None)
            if probe is not None:
                events = probe()
                if last is not None and last >= 0:
                    events = events[-last:] if last else []
                return events
        return flightrec.snapshot(last)

    # -- derived deployments ----------------------------------------------

    def baseline(self) -> "Extractor":
        """The software-path oracle for the same policy (Fig 9/10
        comparisons): unbatched, full floating-point precision."""
        if self.software:
            return self
        return compile(self.policy, software=True)

    def deploy(self) -> SuperFERuntime:
        """A continuously running deployment (control-plane verbs:
        ``process`` / ``poll_counters`` / ``hot_swap`` ...).  Hardware
        path only; every knob of this extractor carries over — cluster
        and executor shape included, so hot swaps rebuild the same
        supervised worker pool."""
        if self.software:
            raise ValueError("software baseline has no runtime "
                             "deployment")
        return SuperFERuntime(self._twin(self.policy))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the persistent worker pool (no-op for in-process
        backends).  Idempotent; the extractor stays usable — a later
        run simply respawns the pool."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "Extractor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = "software" if self.software else "superfe"
        return (f"Extractor({kind}, "
                f"features={len(self.feature_names)})")


# ---------------------------------------------------------------------------
# Live ops surface
# ---------------------------------------------------------------------------

def _ops_snapshot(extractor: Extractor):
    """The freshest metric snapshot reachable without disturbing the
    data path: the live session dataplane's cluster-wide merge when one
    exists, else the extractor's coordinator registry."""
    session = extractor._session
    if session is not None:
        probe = getattr(session.dataplane, "telemetry_snapshot", None)
        if probe is not None:
            snap = probe()
            if snap is not None:
                return snap
    tel = extractor.telemetry
    return tel.snapshot() if tel is not None else None


class OpsServer:
    """A stdlib-only HTTP ops endpoint for one :class:`Extractor`.

    Serves, on a daemon thread:

    - ``GET /metrics`` — the merged telemetry snapshot as Prometheus
      text exposition (``# no telemetry attached`` comment when the
      extractor has none);
    - ``GET /health`` — :meth:`Extractor.health` as JSON;
    - ``GET /debug/flight`` — :meth:`Extractor.flight` as JSON.

    Built by :func:`serve_ops`; call :meth:`close` (or use as a context
    manager) to stop serving.  ``url`` is the bound base address —
    pass ``port=0`` to bind an ephemeral port.
    """

    def __init__(self, extractor: Extractor, host: str, port: int) -> None:
        import json
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.core.telemetry import prometheus_text

        server_ref = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):     # noqa: ARG002
                pass                               # quiet by design

            def _send(self, body: str, content_type: str,
                      status: int = 200) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):                      # noqa: N802
                try:
                    if self.path == "/metrics":
                        snap = _ops_snapshot(server_ref.extractor)
                        body = (prometheus_text(snap) if snap is not None
                                else "# no telemetry attached\n")
                        self._send(body, "text/plain; version=0.0.4")
                    elif self.path == "/health":
                        body = json.dumps(server_ref.extractor.health(),
                                          indent=1, default=str)
                        self._send(body, "application/json")
                    elif self.path == "/debug/flight":
                        body = json.dumps(server_ref.extractor.flight(),
                                          indent=1, default=str)
                        self._send(body, "application/json")
                    else:
                        self._send("not found\n", "text/plain", 404)
                except BrokenPipeError:
                    pass
                except Exception as exc:           # surface, don't die
                    try:
                        self._send(f"error: {exc}\n", "text/plain", 500)
                    except OSError:
                        pass

        self.extractor = extractor
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self.host, self.port = self._server.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="superfe-ops",
            daemon=True)
        self._thread.start()

    def close(self) -> None:
        """Stop serving and release the socket.  Idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "OpsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._server is None else "serving"
        return f"OpsServer({self.url}, {state})"


def serve_ops(extractor: Extractor, host: str = "127.0.0.1",
              port: int = 0) -> OpsServer:
    """Serve the live ops surface for ``extractor`` on a daemon
    thread; returns the bound :class:`OpsServer` (see its ``url``).
    ``port=0`` picks an ephemeral port."""
    if not isinstance(extractor, Extractor):
        raise TypeError(f"serve_ops needs an Extractor, got "
                        f"{type(extractor).__name__}")
    return OpsServer(extractor, host, port)
