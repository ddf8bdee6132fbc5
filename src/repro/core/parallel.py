"""Shard-parallel execution of the NIC cluster (§6, Fig 16).

The paper's scalability story is that feature computation — not the
switch — is the bottleneck, and that SuperFE buys throughput by sharding
vector computation across SmartNIC compute units.  This module is that
substrate for the simulator: the hash-steered shards of
:class:`~repro.nicsim.loadbalance.NICCluster` are partitioned across a
worker pool, and the switch→NIC event stream is dispatched to them in
amortized batches.

Topology::

    coordinator (routing, FG-mirror ledger, failover, merge)
        │  per-worker FIFO queue, batches of (shard, event)
        ├── worker 0: FeatureEngine for shards {0, k, 2k, ...}
        ├── worker 1: FeatureEngine for shards {1, k+1, ...}
        └── ...

Equivalence argument (the bit-identical guarantee): the serial
:class:`NICCluster` routes every event to exactly one engine and engines
share no state.  The coordinator reuses the *same* routing function
(:func:`~repro.nicsim.loadbalance.route_shard`), each shard is owned by
exactly one worker, and each worker's queue is strictly FIFO — so every
engine consumes exactly the event sequence it would have seen serially,
in the same order.  Merging at drain walks shards in index order, which
is the serial emission order; residual reconciliation after a failover
reuses :func:`~repro.nicsim.loadbalance.reconcile_residual`.  The only
permitted difference is wall-clock interleaving *between* shards, which
no engine can observe.

Backends:

- ``process`` — a ``multiprocessing`` pool (fork start method: engines
  and the compiled policy are inherited, never pickled; only events and
  results cross the queues).
- ``thread``  — same protocol over ``queue``/``threading``; no speedup
  under the GIL but exercises the full dispatch machinery cheaply.
- ``serial``  — inline execution of the same message protocol, for
  determinism checks of the machinery itself.  (``Dataplane.build``
  maps ``backend="serial"`` to the classic in-process ``NICCluster``;
  an inline :class:`ShardedCluster` is only built directly.)

Failover (``fail_nic``) needs no barrier: the crash request rides the
owner's FIFO queue behind every event routed before the kill, so the
residual snapshot is exactly the serial one.

Transport (process backend): dispatch batches do not pickle their
events.  The coordinator flattens each chunk into one int64 frame and
ships it through a per-worker shared-memory ring
(:mod:`repro.core.transport`), posting only a tiny ``("frame", seq)``
pointer on the FIFO queue; hosts without usable shared memory degrade
to the same frame as a single ``bytes`` payload over the queue
(``oob``), and chunks a frame cannot represent exactly (non-int cell
values) fall back to the legacy pickled row protocol per chunk.
Workers for the process backend come from a persistent
:class:`WorkerPool` — spawned once, ``reset`` per run, rebalanced
across runs by observed per-shard load, and stopped by an explicit
``close()`` (or a pid-guarded finalizer).

Supervision (process backend, on by default): the coordinator keeps a
per-worker *journal* — the FIFO transcript of every state-mutating
message it sent (sequence-numbered batches, clock advances, crash
requests).  Every request carries a deadline
(:attr:`ExecutionConfig.request_timeout_s`, ``SUPERFE_REQUEST_TIMEOUT_S``
to override); a worker that dies (``Process.is_alive()``) or blows the
deadline is killed and respawned by the :class:`ShardSupervisor`, which
replays the journal into the fresh process.  Replay is the exactly-once
mechanism: the half-applied incarnation is discarded wholesale and the
new one receives precisely the transcript, so no batch is ever applied
twice to surviving state and the serial-equivalence checksum stays
green.  A batch that keeps failing (``poison_threshold`` consecutive
blames) is quarantined: it is dropped from the journal, its events are
salvaged through a coordinator-side engine whose output vectors are
force-flagged ``degraded`` (the PR 2 coarse-granularity downgrade), and
the batch is enumerated in :meth:`ShardedCluster.health`.  The journal
grows with the event stream — supervision trades memory proportional to
the input for the ability to rebuild any worker at any point.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass

from repro.core import flightrec
from repro.core.compiler import CompiledPolicy
from repro.core.functions import ExecContext
from repro.core.tracecontext import (
    derive_span_id,
    make_event,
    new_trace_id,
    root_span_id,
)
from repro.core.transport import (
    FRAME_OVERHEAD,
    TRANSPORTS,
    ShmRing,
    apply_frame,
    encode_rows,
    resolve_transport,
)
from repro.nicsim.engine import EngineStats, FeatureEngine, FeatureVector
from repro.nicsim.loadbalance import (
    reconcile_residual,
    route_shard,
    route_syncs,
)
from repro.switchsim.mgpv import Event, FGSync, MGPVRecord

BACKENDS = ("serial", "thread", "process")

#: Batches a process worker's inbox may hold before the coordinator's
#: ``put`` blocks — the dispatch backpressure bound.
_QUEUE_DEPTH = 128
#: Reply timeout for *unsupervised* queue workers (the legacy bound).
_REPLY_TIMEOUT_S = 300.0
#: Per-request deadline under supervision when neither
#: ``ExecutionConfig.request_timeout_s`` nor the env override is set.
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: Frames the coordinator parks for one hot ring before dispatch
#: applies backpressure (blocks for ring space) instead.
_PENDING_LIMIT = 64

_BATCH_KINDS = ("batch", "pbatch", "frame", "oframe")


class ExecutorError(RuntimeError):
    """A shard worker failed.

    Carries enough blame to act on: ``worker`` (pool index), ``shards``
    (the shard set it owned), ``pid``, ``kind`` (the message kind in
    flight), ``seq`` (the journal sequence number of the failing batch,
    when the worker could attribute it), and ``flight`` — a
    flight-recorder excerpt: the last-N structured events from both
    sides of the process boundary (coordinator always; the worker's
    ring when its error report carried one), so "what happened in the
    seconds before this" travels with the exception."""

    def __init__(self, message: str, *, worker: int | None = None,
                 shards=None, pid: int | None = None,
                 kind: str | None = None, seq: int | None = None,
                 flight=None) -> None:
        super().__init__(message)
        self.worker = worker
        self.shards = shards
        self.pid = pid
        self.kind = kind
        self.seq = seq
        self.flight = list(flight) if flight else []


class WorkerDied(ExecutorError):
    """The worker process/thread exited without replying."""


class WorkerStalled(ExecutorError):
    """The worker blew its request deadline without dying."""


@dataclass(frozen=True)
class ExecutionConfig:
    """How a dataplane executes its NIC shards.

    ``workers`` is an upper bound — a cluster never spawns more workers
    than it has shards.  ``dispatch_batch`` is the amortization unit:
    events accumulate coordinator-side and cross the worker queue in
    chunks (one pickling round per chunk on the process backend).  The
    default (None) auto-sizes: a slow-start batcher releases small
    chunks first and doubles up to 1024 as the stream proves long.

    Robustness knobs (supervised process backend):

    - ``request_timeout_s`` — per-request deadline; a worker that does
      not accept or answer within it is treated as stalled and
      restarted.  ``None`` defers to ``SUPERFE_REQUEST_TIMEOUT_S``, then
      to :data:`DEFAULT_REQUEST_TIMEOUT_S`.
    - ``supervise`` — ``None`` (default) enables supervision exactly on
      the process backend; ``False`` opts out (the pre-supervision
      behavior, used by the overhead bench); ``True`` demands it and is
      rejected on backends that cannot restart a worker.
    - ``max_restarts`` — consecutive failed restart+replay attempts on
      one worker before the cluster gives up and raises.
    - ``poison_threshold`` — consecutive blames on the same batch before
      it is quarantined and salvaged as degraded coarse vectors.

    Transport knobs (process backend):

    - ``transport`` — how dispatch batches cross the worker boundary:
      ``"shm"`` (shared-memory ring frames), ``"oob"`` (the same frame
      as one bytes payload over the queue), ``"legacy"`` (pickled
      rows).  ``None`` (default) defers to ``SUPERFE_TRANSPORT``, then
      auto-selects: ``shm`` where shared memory works, degrading to
      ``oob`` with a single warning where it does not.
    - ``ring_bytes`` — per-worker ring capacity for the shm transport.
    """

    workers: int = 1
    backend: str = "serial"
    dispatch_batch: int | None = None
    request_timeout_s: float | None = None
    supervise: bool | None = None
    max_restarts: int = 5
    poison_threshold: int = 3
    transport: str | None = None
    ring_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown execution backend "
                             f"{self.backend!r}; have {BACKENDS}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.dispatch_batch is not None and self.dispatch_batch < 1:
            raise ValueError(f"dispatch_batch must be >= 1, "
                             f"got {self.dispatch_batch}")
        if (self.request_timeout_s is not None
                and self.request_timeout_s <= 0):
            raise ValueError(f"request_timeout_s must be > 0, "
                             f"got {self.request_timeout_s}")
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, "
                             f"got {self.max_restarts}")
        if self.poison_threshold < 1:
            raise ValueError(f"poison_threshold must be >= 1, "
                             f"got {self.poison_threshold}")
        if self.supervise and self.backend != "process":
            raise ValueError(
                "supervise=True needs backend='process' — only a "
                "process worker can be killed and restarted")
        if self.transport is not None and self.transport not in TRANSPORTS:
            raise ValueError(f"unknown shard transport "
                             f"{self.transport!r}; have {TRANSPORTS}")
        if (self.transport in ("shm", "oob")
                and self.backend != "process"):
            raise ValueError(
                f"transport={self.transport!r} needs backend='process' "
                f"— in-process backends have no serialization boundary")
        if self.ring_bytes < 4 * FRAME_OVERHEAD:
            raise ValueError(f"ring_bytes must be >= "
                             f"{4 * FRAME_OVERHEAD}, got {self.ring_bytes}")

    @property
    def is_parallel(self) -> bool:
        return self.backend != "serial"

    @property
    def supervised(self) -> bool:
        """Whether this configuration runs under the ShardSupervisor."""
        if self.supervise is not None:
            return bool(self.supervise)
        return self.backend == "process"

    def resolved_timeout_s(self, env=None) -> float:
        """The effective per-request deadline in seconds."""
        if self.request_timeout_s is not None:
            return self.request_timeout_s
        env = os.environ if env is None else env
        raw = (env.get("SUPERFE_REQUEST_TIMEOUT_S") or "").strip()
        if raw:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"SUPERFE_REQUEST_TIMEOUT_S must be a number, "
                    f"got {raw!r}") from None
            if value <= 0:
                raise ValueError(
                    f"SUPERFE_REQUEST_TIMEOUT_S must be > 0, got {value}")
            return value
        return DEFAULT_REQUEST_TIMEOUT_S

    @classmethod
    def from_env(cls, env=None) -> "ExecutionConfig | None":
        """Build from ``SUPERFE_EXEC_BACKEND`` / ``SUPERFE_EXEC_WORKERS``
        / ``SUPERFE_TRANSPORT`` (the CI matrix hooks); None when the
        backend variable is unset.  The transport variable only binds on
        the process backend — in-process backends have no wire, so a
        matrix-wide ``SUPERFE_TRANSPORT`` must not break their legs —
        and an unknown value raises here, at configuration time, not at
        first dispatch."""
        env = os.environ if env is None else env
        backend = (env.get("SUPERFE_EXEC_BACKEND") or "").strip().lower()
        if not backend:
            return None
        workers = int(env.get("SUPERFE_EXEC_WORKERS") or 0)
        if workers < 1:
            workers = os.cpu_count() or 1
        transport = (env.get("SUPERFE_TRANSPORT") or "").strip().lower()
        if transport and backend == "process":
            if transport not in TRANSPORTS:
                raise ValueError(f"SUPERFE_TRANSPORT must be one of "
                                 f"{TRANSPORTS}, got {transport!r}")
            return cls(workers=workers, backend=backend,
                       transport=transport)
        return cls(workers=workers, backend=backend)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _ShardDriver:
    """Executes the coordinator's messages against this worker's
    engines.  One instance per worker; shared verbatim by every backend
    so the three run identical code."""

    def __init__(self, compiled: CompiledPolicy, ctx: ExecContext | None,
                 engine_kwargs: dict, shards: tuple[int, ...],
                 ring: ShmRing | None = None) -> None:
        self._compiled = compiled
        self._ctx = ctx
        self._engine_kwargs = engine_kwargs
        self.ring = ring
        self.engines = {s: FeatureEngine(compiled, ctx=ctx, **engine_kwargs)
                        for s in shards}
        self._pv_cursors = {s: 0 for s in shards}
        self.telemetry = None
        self._slow_factor = 1.0

    def handle(self, msg: tuple) -> tuple[bool, object]:
        """Returns ``(replied, payload)``; async messages reply False."""
        kind = msg[0]
        if kind in _BATCH_KINDS:
            # Batch messages are ("batch"|"pbatch", seq, rows),
            # ("frame", seq) — the rows travelled through the shm ring
            # as one int64 frame, popped here — or ("oframe", seq,
            # payload) — the same frame bytes shipped inline over the
            # queue (single-buffer fallback): seq is the coordinator's
            # journal sequence number (None when unsupervised), echoed
            # back in error reports so failures are attributable to one
            # batch.
            slow = self._slow_factor
            t0 = time.perf_counter() if slow > 1.0 else 0.0
            tel = self.telemetry
            tracing = tel is not None and tel.tracing
            start_ns = time.perf_counter_ns() if tracing else 0
            ctx = None
            if kind == "frame":
                payload = self.ring.pop()
                ctx = self.ring.last_ctx
                apply_frame(payload, self.engines)
            elif kind == "oframe":
                ctx = msg[3] if len(msg) > 3 else None
                apply_frame(msg[2], self.engines)
            elif kind == "batch":
                ctx = msg[3] if len(msg) > 3 else None
                for shard, event in msg[2]:
                    self.engines[shard].consume(event)
            else:
                # Compact wire rows (process backend): events cross the
                # queue as positional tuples instead of pickled
                # dataclass instances, and are rebuilt here.  Tag 0 =
                # MGPVRecord row (shard, 0, cg_key, cg_hash32, cells,
                # reason); tag 1 = FGSync row (shard, 1, index, key);
                # tag 2 = columnar MGPVRecord block (shard, 2, cg_key,
                # cg_hash32, fg_col, meta_cols, reason) — the cells
                # transposed into one fg-index column plus per-field
                # metadata columns, rebuilt by the engine.
                ctx = msg[3] if len(msg) > 3 else None
                engines = self.engines
                for row in msg[2]:
                    tag = row[1]
                    if tag == 0:
                        engines[row[0]].consume(
                            MGPVRecord(row[2], row[3], row[4], row[5]))
                    elif tag == 2:
                        engines[row[0]].consume_block(
                            row[2], row[3], row[4], row[5], row[6])
                    else:
                        engines[row[0]].consume(FGSync(row[2], row[3]))
            if tracing and ctx is not None:
                # Worker-side stage span: the batch's engine work,
                # stitched to the coordinator's dispatch span through
                # the propagated context.  The span id is derived, not
                # allocated, so journal replay reproduces it exactly.
                trace_id, parent_id, cseq = ctx
                end_ns = time.perf_counter_ns()
                tel.tracer.record_event(make_event(
                    "worker.engine", start_ns, end_ns - start_ns,
                    span_id=derive_span_id(trace_id, "worker.engine",
                                           cseq, parent_id),
                    parent_id=parent_id, trace_id=trace_id, seq=cseq))
            if slow > 1.0:
                # Multiplicative slowdown (worker_slow chaos): stretch
                # the batch's real compute time by the factor.
                time.sleep((slow - 1.0) * (time.perf_counter() - t0))
            return False, None
        if kind == "clock":
            for engine in self.engines.values():
                engine.advance_clock(msg[1])
            return False, None
        if kind == "crash":
            return True, self.engines[msg[1]].crash()
        if kind == "stats":
            return True, {s: e.stats for s, e in self.engines.items()}
        if kind == "take_pkt":
            out = {}
            for s, e in self.engines.items():
                vectors = e.packet_vectors
                out[s] = list(vectors[self._pv_cursors[s]:])
                self._pv_cursors[s] = len(vectors)
            return True, out
        if kind == "finalize":
            return True, {s: e.finalize() for s, e in self.engines.items()}
        if kind == "barrier":
            return True, None
        if kind == "telemetry_on":
            # Workers fork before the coordinator can attach anything,
            # so telemetry arrives as a picklable TelemetryConfig and
            # each worker builds its own registry here.  Asynchronous:
            # rides the FIFO like any dispatch batch.
            from repro.core.telemetry import Telemetry
            self.telemetry = Telemetry(msg[1])
            for engine in self.engines.values():
                engine.attach_telemetry(self.telemetry)
            return False, None
        if kind == "telemetry":
            # Reply bundles the metric snapshot with the worker's
            # ctx-tagged trace events and its flight-recorder excerpt —
            # one round trip gathers all three observability surfaces.
            if self.telemetry is None:
                return True, None
            return True, {
                "snapshot": self.telemetry.snapshot(),
                "tevents": list(self.telemetry.tracer.events),
                "flight": flightrec.snapshot(last=64),
            }
        if kind == "chaos_stall":
            # Chaos hook: hold the FIFO hostage for msg[1] seconds so
            # the coordinator's deadline machinery has something real
            # to detect.  Never journaled — replay must not re-stall.
            time.sleep(msg[1])
            return False, None
        if kind == "chaos_slow":
            self._slow_factor = float(msg[1])
            return False, None
        if kind == "reset":
            # Pool reuse: a new run leases this worker.  ("reset",
            # shards, next_ring_seq) rebuilds fresh engines for the new
            # shard set and fast-forwards the ring consumer to the
            # producer's sequence counter (the ring outlives the run;
            # its byte positions and seq numbers keep counting).
            shards = tuple(msg[1])
            self.engines = {
                s: FeatureEngine(self._compiled, ctx=self._ctx,
                                 **self._engine_kwargs)
                for s in shards}
            self._pv_cursors = {s: 0 for s in shards}
            self._slow_factor = 1.0
            if self.ring is not None:
                self.ring.reset_consumer(msg[2])
            if self.telemetry is not None:
                for engine in self.engines.values():
                    engine.attach_telemetry(self.telemetry)
            return True, True
        raise RuntimeError(f"unknown worker message {kind!r}")


def _worker_loop(compiled, ctx, engine_kwargs, shards, inbox, outbox,
                 ring=None):
    """Thread/process entry point: drain the FIFO inbox until ``stop``.
    Errors are reported on the outbox as structured dicts (message kind,
    batch seq, shard set, pid, traceback), where the coordinator's next
    synchronous request surfaces them as :class:`ExecutorError`."""
    pid = os.getpid()
    # A forked worker inherits the coordinator's flight ring; reset it
    # so this process records only its own history.  Thread workers
    # share the coordinator's process (and its ring) — the pid guard
    # keeps them from wiping it.
    if flightrec.get_recorder().pid != pid:
        flightrec.reset()
    try:
        driver = _ShardDriver(compiled, ctx, engine_kwargs, shards, ring)
    except Exception:
        flightrec.record("worker.error", kind="startup")
        outbox.put(("error", {
            "kind": "startup", "seq": None, "shards": tuple(shards),
            "pid": pid, "traceback": traceback.format_exc(),
            "flight": flightrec.snapshot(last=32)}))
        return
    while True:
        msg = inbox.get()
        kind = msg[0]
        if kind == "stop":
            break
        try:
            replied, payload = driver.handle(msg)
        except Exception:
            seq = msg[1] if kind in _BATCH_KINDS else None
            flightrec.record("worker.error", kind=kind, seq=seq)
            outbox.put(("error", {
                "kind": kind, "seq": seq,
                "shards": tuple(shards), "pid": pid,
                "traceback": traceback.format_exc(),
                "flight": flightrec.snapshot(last=32)}))
            continue
        if replied:
            outbox.put(("ok", payload))


class _InlineWorker:
    """The serial backend: the same message protocol, executed in the
    calling thread (determinism checks of the dispatch machinery)."""

    def __init__(self, compiled, ctx, engine_kwargs, shards) -> None:
        self.shards = shards
        self._driver = _ShardDriver(compiled, ctx, engine_kwargs, shards)
        self._replies: deque = deque()

    def post(self, msg: tuple, deadline: float | None = None) -> None:
        replied, payload = self._driver.handle(msg)
        if replied:
            self._replies.append(payload)

    def reply(self, deadline: float | None = None):
        return self._replies.popleft()

    def request(self, msg: tuple):
        self.post(msg)
        return self.reply()

    def stop(self) -> None:
        pass


class _QueueWorker:
    """A thread or forked-process worker behind a FIFO message queue."""

    def __init__(self, backend: str, compiled, ctx, engine_kwargs,
                 shards, index: int, ring: ShmRing | None = None) -> None:
        self.shards = shards
        self.backend = backend
        self.index = index
        self.name = f"shard-worker-{index}"
        self._stopped = False
        self.ring = ring
        # Instrumentation: message kinds posted over the queue, for the
        # zero-pickled-payload transport proof (frames never count as
        # "pbatch"/"batch" here — only the 16-byte pointer message).
        self.kind_counts: dict[str, int] = {}
        args = (compiled, ctx, engine_kwargs, shards)
        if backend == "thread":
            self.inbox: object = queue_mod.SimpleQueue()
            self.outbox: object = queue_mod.SimpleQueue()
            self._handle: object = threading.Thread(
                target=_worker_loop, args=(*args, self.inbox, self.outbox),
                name=self.name, daemon=True)
        else:
            mp_ctx = _fork_context()
            self.inbox = mp_ctx.Queue(maxsize=_QUEUE_DEPTH)
            self.outbox = mp_ctx.Queue()
            self._handle = mp_ctx.Process(
                target=_worker_loop,
                args=(*args, self.inbox, self.outbox, ring),
                name=self.name, daemon=True)
        self._handle.start()

    @property
    def pid(self) -> int | None:
        return getattr(self._handle, "pid", None)

    def is_alive(self) -> bool:
        return self._handle.is_alive()

    def _blame(self, message: str, cls=ExecutorError, *,
               kind: str | None = None,
               seq: int | None = None,
               worker_flight=None) -> ExecutorError:
        # Every blame carries the flight-recorder excerpt from both
        # sides: the coordinator's ring always, the worker's when its
        # error report shipped one (a SIGKILLed worker's ring dies with
        # it).  Events carry their pid, so the merged list stays
        # attributable.
        flight = flightrec.snapshot(last=32)
        if worker_flight:
            flight.extend(worker_flight)
        return cls(message, worker=self.index, shards=self.shards,
                   pid=self.pid, kind=kind, seq=seq, flight=flight)

    def _as_error(self, info) -> ExecutorError:
        if isinstance(info, dict):
            what = ("while constructing its engines"
                    if info.get("kind") == "startup"
                    else f"handling {info.get('kind')!r}")
            return self._blame(
                f"{self.name} (pid {info.get('pid')}, shards "
                f"{tuple(info.get('shards') or ())}) failed {what}:\n"
                f"{info.get('traceback')}",
                kind=info.get("kind"), seq=info.get("seq"),
                worker_flight=info.get("flight"))
        # Pre-structured (string) payloads, kept for forward compat.
        return self._blame(f"{self.name} failed:\n{info}")

    def post(self, msg: tuple, deadline: float | None = None) -> None:
        """Enqueue a message.  With a ``deadline`` (monotonic seconds,
        supervised path) the put is bounded: a dead worker raises
        :class:`WorkerDied`, a full inbox past the deadline raises
        :class:`WorkerStalled`.  Without one, the put blocks as long as
        the worker stays alive (the legacy backpressure bound)."""
        k = msg[0]
        self.kind_counts[k] = self.kind_counts.get(k, 0) + 1
        if self.backend == "thread":
            self.inbox.put(msg)        # SimpleQueue: unbounded
            return
        poll = 0.05 if deadline is not None else 0.2
        while True:
            try:
                self.inbox.put(msg, timeout=poll)
                return
            except queue_mod.Full:
                if not self._handle.is_alive():
                    raise self._blame(
                        f"{self.name} (pid {self.pid}) died with a full "
                        f"inbox", WorkerDied, kind=msg[0]) from None
                if deadline is not None and time.monotonic() > deadline:
                    raise self._blame(
                        f"{self.name} (pid {self.pid}) did not accept "
                        f"{msg[0]!r} before its deadline", WorkerStalled,
                        kind=msg[0]) from None

    def reply(self, deadline: float | None = None):
        if deadline is None:
            deadline = time.monotonic() + _REPLY_TIMEOUT_S
        while True:
            try:
                status, payload = self.outbox.get(timeout=0.1)
            except queue_mod.Empty:
                if not self._handle.is_alive():
                    raise self._blame(
                        f"{self.name} (pid {self.pid}) died without "
                        f"replying", WorkerDied) from None
                if time.monotonic() > deadline:
                    raise self._blame(
                        f"timed out waiting for {self.name} "
                        f"(pid {self.pid})", WorkerStalled) from None
                continue
            if status == "error":
                raise self._as_error(payload)
            return payload

    def request(self, msg: tuple):
        self.post(msg)
        return self.reply()

    def stop(self) -> None:
        """Graceful shutdown; never hangs on a dead or wedged worker —
        the join is bounded and the process backend escalates to
        ``terminate()``.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        try:
            if self.backend == "thread":
                self.inbox.put(("stop",))
            elif self._handle.is_alive():
                self.inbox.put(("stop",), timeout=1.0)
        except Exception:
            pass
        self._handle.join(timeout=5.0)
        if self.backend == "process":
            if self._handle.is_alive():
                self._handle.terminate()
                self._handle.join(timeout=5.0)
            self._drop_queues()

    def kill(self) -> None:
        """Supervisor path: discard this incarnation immediately
        (SIGKILL — its state is about to be rebuilt by replay)."""
        self._stopped = True
        if self.backend != "process":
            return
        if self._handle.is_alive():
            self._handle.kill()
        self._handle.join(timeout=5.0)
        self._drop_queues()

    def _drop_queues(self) -> None:
        # The dead incarnation's queues may hold undelivered data whose
        # feeder threads would otherwise block interpreter exit.
        for q in (self.inbox, self.outbox):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass


def _fork_context():
    """The process backend inherits engines/compiled policy via fork —
    spawn would have to pickle granularity lambdas, which cannot work."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        raise ExecutorError(
            "the process execution backend needs the fork start method "
            "(Linux) — did you mean backend='serial' or "
            "backend='thread'?") from None


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

def _shutdown_workers(workers: list, rings: list, creator_pid: int) -> None:
    """``weakref.finalize`` target for :class:`WorkerPool`: stop the
    current worker incarnations and unlink their shm rings.  Guarded to
    the creating process — a forked child inheriting the finalizer must
    never unlink the parent's live segments (fork children exit via
    ``os._exit`` so finalizers normally don't run there; this is
    belt-and-braces)."""
    if os.getpid() != creator_pid:
        return
    for w in workers:
        try:
            w.stop()
        except Exception:
            pass
    for ring in rings:
        if ring is not None:
            ring.close()
    workers.clear()
    rings.clear()


class WorkerPool:
    """Long-lived process workers reused across extraction runs.

    Spawning a fork worker costs a page-table copy plus engine
    construction; a streaming service replaying millions of users pays
    it per ``run()`` unless the pool outlives the run.  The pool owns
    the workers and their shm rings; a :class:`ShardedCluster` *leases*
    them for one run (``lease`` -> dispatch -> ``release``) and a
    ``("reset", shards, ring_seq)`` sync message gives each worker fresh
    engines without respawning the process.

    ``release`` records per-shard event counts from the finished run;
    the next ``lease`` feeds them to an LPT (longest-processing-time)
    greedy assignment so hot shards spread across workers — occupancy-
    based rebalancing that is *result-invariant* (shard->worker
    placement never changes event order within a shard, and merge order
    is shard-index order regardless of owner).
    """

    def __init__(self, compiled, execution: ExecutionConfig,
                 ctx=None, engine_kwargs: dict | None = None) -> None:
        if execution.backend != "process":
            raise ExecutorError(
                f"WorkerPool needs backend='process', got "
                f"{execution.backend!r}")
        self.execution = execution
        self.transport = resolve_transport(execution.transport,
                                           execution.backend)
        self._compiled = compiled
        self._ctx = ctx
        self._engine_kwargs = engine_kwargs or {}
        # Mutated in place (never rebound) so the finalizer always sees
        # the current incarnations.
        self._workers: list[_QueueWorker] = []
        self._rings: list[ShmRing | None] = []
        self._n_nics = 0
        self._owner: list[int] = []
        self._shard_loads: dict[int, int] = {}
        self.leased = False
        self.closed = False
        self.spawns = 0
        self.leases = 0
        self.rebalances = 0
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._workers, self._rings,
            os.getpid())

    def _new_ring(self, index: int) -> ShmRing | None:
        if self.transport != "shm":
            return None
        return ShmRing(self.execution.ring_bytes, label=f"w{index}")

    def _spawn(self, index: int, shards: tuple[int, ...]) -> None:
        ring = self._new_ring(index)
        try:
            worker = _QueueWorker("process", self._compiled, self._ctx,
                                  self._engine_kwargs, shards, index,
                                  ring)
        except BaseException:
            if ring is not None:
                ring.close()
            raise
        self._workers.append(worker)
        self._rings.append(ring)
        self.spawns += 1

    def _assign(self, n_nics: int, n_workers: int) -> list[int]:
        """shard -> worker.  Without load history: round-robin (the
        legacy placement, also what serial-equivalence tests pin).
        With history: LPT greedy — heaviest shard first onto the
        least-loaded worker (ties broken by worker index for
        determinism); +1 per shard keeps empty shards spread too."""
        if not self._shard_loads:
            return [s % n_workers for s in range(n_nics)]
        order = sorted(range(n_nics),
                       key=lambda s: (-self._shard_loads.get(s, 0), s))
        totals = [0] * n_workers
        owner = [0] * n_nics
        for s in order:
            w = min(range(n_workers), key=lambda i: (totals[i], i))
            owner[s] = w
            totals[w] += self._shard_loads.get(s, 0) + 1
        return owner

    def lease(self, n_nics: int):
        """Claim the pool for one run.  Returns ``(workers, owner,
        rings)``.  Reuses live workers when the shape matches (reset in
        place); respawns when the shard/worker geometry changed or a
        worker died between runs."""
        if self.closed:
            raise ExecutorError("worker pool is closed")
        if self.leased:
            raise ExecutorError(
                "worker pool is already leased — one run at a time")
        n_workers = max(1, min(self.execution.workers, n_nics))
        owner = self._assign(n_nics, n_workers)
        shards_of = [tuple(s for s in range(n_nics) if owner[s] == w)
                     for w in range(n_workers)]
        if self._workers and (self._n_nics != n_nics
                              or len(self._workers) != n_workers):
            self._stop_workers()
        if not self._workers:
            for w in range(n_workers):
                self._spawn(w, shards_of[w])
        else:
            if any(w.shards != shards_of[i]
                   for i, w in enumerate(self._workers)):
                self.rebalances += 1
            for i, worker in enumerate(self._workers):
                worker.shards = shards_of[i]
                ring = self._rings[i]
                seq = ring.next_seq if ring is not None else 0
                try:
                    deadline = time.monotonic() + _REPLY_TIMEOUT_S
                    worker.post(("reset", shards_of[i], seq),
                                deadline=deadline)
                    worker.reply(deadline=deadline)
                except ExecutorError:
                    # Dead or wedged between runs: replace with a fresh
                    # incarnation (fresh ring, seq 0).
                    worker.kill()
                    if ring is not None:
                        ring.close()
                    fresh_ring = self._new_ring(i)
                    self._workers[i] = _QueueWorker(
                        "process", self._compiled, self._ctx,
                        self._engine_kwargs, shards_of[i], i, fresh_ring)
                    self._rings[i] = fresh_ring
                    self.spawns += 1
        self._n_nics = n_nics
        self._owner = owner
        self.leased = True
        self.leases += 1
        # Copies, not the live lists: the pool clears its own lists on
        # shutdown, and the lessee's post-close observability (health
        # reports, message-kind ledgers) must survive that.
        return list(self._workers), list(owner), list(self._rings)

    def release(self, shard_loads: dict[int, int] | None = None) -> None:
        """Return the pool after a run; ``shard_loads`` (shard -> event
        count) feeds the next lease's rebalancing."""
        if shard_loads:
            for s, n in shard_loads.items():
                self._shard_loads[s] = n
        self.leased = False

    def respawn(self, index: int):
        """Supervisor path: replace a killed worker with a fresh one on
        a fresh ring (the old ring's unconsumed frames die with the old
        incarnation; journal replay redelivers)."""
        old = self._workers[index]
        old.kill()
        old_ring = self._rings[index]
        if old_ring is not None:
            old_ring.close()
        ring = self._new_ring(index)
        worker = _QueueWorker("process", self._compiled, self._ctx,
                              self._engine_kwargs, old.shards, index, ring)
        self._workers[index] = worker
        self._rings[index] = ring
        self.spawns += 1
        return worker, ring

    def _stop_workers(self) -> None:
        for w in self._workers:
            w.stop()
        for ring in self._rings:
            if ring is not None:
                ring.close()
        self._workers.clear()
        self._rings.clear()

    def close(self) -> None:
        """Stop every worker and unlink the rings.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self.leased = False
        self._stop_workers()
        self._finalizer.detach()

    def report(self) -> dict:
        return {
            "transport": self.transport,
            "workers": len(self._workers),
            "alive": sum(1 for w in self._workers if w.is_alive()),
            "spawns": self.spawns,
            "leases": self.leases,
            "rebalances": self.rebalances,
            "closed": self.closed,
            "shard_loads": dict(self._shard_loads),
        }


def _rows_to_events(rows) -> list:
    """Rebuild event objects from compact wire rows (all three tags) —
    the poison-salvage path, which must reconstruct exactly what the
    worker would have consumed."""
    events = []
    for row in rows:
        tag = row[1]
        if tag == 0:
            events.append(MGPVRecord(row[2], row[3], row[4], row[5]))
        elif tag == 2:
            fg_col, meta_cols = row[4], row[5]
            if meta_cols:
                cells = tuple(zip(fg_col, zip(*meta_cols)))
            else:
                cells = tuple((fg, ()) for fg in fg_col)
            events.append(MGPVRecord(row[2], row[3], cells, row[6]))
        else:
            events.append(FGSync(row[2], row[3]))
    return events


# ---------------------------------------------------------------------------
# Supervision
# ---------------------------------------------------------------------------

class _JournalEntry:
    """One state-mutating message in a worker's transcript."""

    __slots__ = ("kind", "payload", "expects_reply", "quarantined", "ctx")

    def __init__(self, kind: str, payload,
                 expects_reply: bool = False, ctx=None) -> None:
        self.kind = kind
        self.payload = payload
        self.expects_reply = expects_reply
        self.quarantined = False
        # Trace context of the original dispatch; replay redelivers it
        # verbatim so the replayed batch regenerates identical span ids.
        self.ctx = ctx

    def message(self, seq: int) -> tuple:
        if self.kind in _BATCH_KINDS:
            if self.ctx is not None:
                return (self.kind, seq, self.payload, self.ctx)
            return (self.kind, seq, self.payload)
        if self.payload is None:
            return (self.kind,)
        return (self.kind, self.payload)


class ShardSupervisor:
    """Worker crash/stall recovery for the process backend.

    The deadline → restart → replay → quarantine state machine:

    1. every request carries a deadline; a blown deadline or a failed
       liveness probe surfaces as :class:`WorkerStalled` /
       :class:`WorkerDied`;
    2. the supervisor kills the suspect incarnation and forks a fresh
       one on the same shard set;
    3. it replays the worker's journal — the exact FIFO transcript of
       state-mutating messages — into the fresh process.  Replay, not
       patch-up, is what makes redelivery exactly-once: the incarnation
       that may have half-applied a batch is discarded wholesale, so
       each journal entry is applied to surviving state exactly once;
    4. a batch blamed ``poison_threshold`` consecutive times is
       quarantined: dropped from the journal and salvaged through a
       coordinator-side engine whose vectors come back force-flagged
       ``degraded`` (coarse-granularity quality, never silent loss).

    Blame attribution: worker error reports carry the batch seq, so a
    raising batch is pinned immediately.  A death with no seq (SIGKILL,
    segfault) triggers a *careful* replay — a barrier after every batch
    — so the killer batch is pinned on the next pass.
    """

    def __init__(self, cluster: "ShardedCluster") -> None:
        self.cluster = cluster
        self.journals: list[list[_JournalEntry]] = [
            [] for _ in range(cluster.n_workers)]
        self.restarts = 0
        self.redispatched = 0
        self.poison: list[dict] = []
        self.restart_ns: list[int] = []
        self._blames: dict[tuple[int, int], int] = {}
        self._poison_engine: FeatureEngine | None = None
        self._poison_cg: set = set()
        self._t_restarts = None
        self._t_redispatched = None
        self._t_poison = None
        self._t_restart_hist = None

    def attach_telemetry(self, telemetry) -> None:
        from repro.core.telemetry import DEFAULT_LATENCY_BOUNDS_NS
        reg = telemetry.registry
        self._t_restarts = reg.counter("supervisor.restarts")
        self._t_redispatched = reg.counter("supervisor.redispatched")
        self._t_poison = reg.counter("supervisor.poison_batches")
        self._t_restart_hist = reg.histogram("supervisor.restart_ns",
                                             DEFAULT_LATENCY_BOUNDS_NS)

    # -- journal ----------------------------------------------------------

    def record(self, worker: int, kind: str, payload=None,
               expects_reply: bool = False, ctx=None) -> int:
        journal = self.journals[worker]
        journal.append(_JournalEntry(kind, payload, expects_reply, ctx))
        return len(journal) - 1

    # -- recovery ---------------------------------------------------------

    def recover(self, worker: int, exc: ExecutorError,
                capture_seq: int | None = None):
        """Restart ``worker`` and rebuild its shard state by replaying
        its journal.  Returns the replayed reply for ``capture_seq``
        (the journaled synchronous request the caller was waiting on),
        None otherwise."""
        start = time.perf_counter_ns()
        seq = getattr(exc, "seq", None)
        flightrec.record("worker.restart", worker=worker, seq=seq,
                         cause=type(exc).__name__)
        if seq is not None:
            self._blame_seq(worker, seq)
        captured = self._restart_and_replay(worker, capture_seq)
        elapsed = time.perf_counter_ns() - start
        self.restart_ns.append(elapsed)
        if self._t_restart_hist is not None:
            self._t_restart_hist.observe(elapsed)
        return captured

    def _restart_and_replay(self, worker: int,
                            capture_seq: int | None = None):
        cluster = self.cluster
        budget = cluster.execution.max_restarts
        attempts = 0
        careful = False
        my_pid = os.getpid()
        worker_flight: list[dict] = []
        while True:
            if attempts >= budget:
                # The give-up error carries the same two-sided flight
                # excerpt as first-failure blames: the coordinator ring
                # now, plus the worker-side events the last failed
                # incarnation managed to report before dying.
                raise ExecutorError(
                    f"shard-worker-{worker} failed {attempts} consecutive "
                    f"restart+replay attempts; giving up", worker=worker,
                    flight=flightrec.snapshot(last=32) + worker_flight)
            attempts += 1
            cluster._respawn(worker)
            self.restarts += 1
            if self._t_restarts is not None:
                self._t_restarts.inc()
            try:
                return self._replay(worker, careful, capture_seq)
            except ExecutorError as exc:
                worker_flight = [e for e in exc.flight
                                 if e.get("pid") != my_pid]
                seq = getattr(exc, "seq", None)
                if seq is not None:
                    if self._blame_seq(worker, seq):
                        attempts = 0   # progress: the poison batch is gone
                    careful = False
                else:
                    # Unattributable death mid-replay: re-run with a
                    # barrier after every batch to pin the culprit.
                    careful = True

    def _replay(self, worker: int, careful: bool,
                capture_seq: int | None = None):
        cluster = self.cluster
        w = cluster._workers[worker]
        captured = None
        replayed = 0
        for seq, entry in enumerate(self.journals[worker]):
            if entry.quarantined:
                continue
            try:
                if entry.kind in _BATCH_KINDS:
                    # Frame kinds re-encode into the fresh ring (the
                    # old ring's bytes died with the old worker);
                    # delivery is eager so the careful-mode barrier
                    # really lands after the batch.
                    cluster._deliver_journal(worker, seq, entry)
                    replayed += 1
                    if careful:
                        cluster._post_control(
                            worker, ("barrier",),
                            deadline=cluster._op_deadline())
                        w.reply(deadline=cluster._op_deadline())
                elif entry.expects_reply:
                    cluster._post_control(
                        worker, entry.message(seq),
                        deadline=cluster._op_deadline())
                    value = w.reply(deadline=cluster._op_deadline())
                    if seq == capture_seq:
                        captured = value
                else:
                    cluster._post_control(
                        worker, entry.message(seq),
                        deadline=cluster._op_deadline())
            except ExecutorError as exc:
                if (getattr(exc, "seq", None) is None and careful
                        and entry.kind in _BATCH_KINDS):
                    exc.seq = seq
                raise
        # Closing barrier: confirms the fresh incarnation survived and
        # applied the whole transcript before normal traffic resumes.
        cluster._post_control(worker, ("barrier",),
                              deadline=cluster._op_deadline())
        w.reply(deadline=cluster._op_deadline())
        self.redispatched += replayed
        if self._t_redispatched is not None and replayed:
            self._t_redispatched.inc(replayed)
        return captured

    def _blame_seq(self, worker: int, seq: int) -> bool:
        """Count a failure against one journal entry; quarantine it at
        the poison threshold.  True when the entry was quarantined."""
        journal = self.journals[worker]
        if not 0 <= seq < len(journal):
            return False
        entry = journal[seq]
        if entry.quarantined or entry.kind not in _BATCH_KINDS:
            return False
        key = (worker, seq)
        self._blames[key] = self._blames.get(key, 0) + 1
        if self._blames[key] >= self.cluster.execution.poison_threshold:
            self._quarantine(worker, seq)
            return True
        return False

    # -- poison quarantine ------------------------------------------------

    def _quarantine(self, worker: int, seq: int) -> None:
        entry = self.journals[worker][seq]
        entry.quarantined = True
        events = self._entry_events(entry)
        engine = self._ensure_poison_engine()
        salvaged = failed = 0
        cg_keys = set()
        for event in events:
            if isinstance(event, MGPVRecord):
                cg_keys.add(event.cg_key)
            elif isinstance(event, FGSync):
                try:
                    cg_keys.add(self.cluster.compiled.cg.project(event.key))
                except Exception:
                    pass
            try:
                engine.consume(event)
                salvaged += 1
            except Exception:
                failed += 1
        self._poison_cg.update(cg_keys)
        flightrec.record("batch.quarantined", worker=worker, seq=seq,
                         events=len(events), salvaged=salvaged)
        self.poison.append({
            "worker": worker,
            "seq": seq,
            "events": len(events),
            "salvaged_events": salvaged,
            "failed_events": failed,
            "failures": self._blames.get((worker, seq), 0),
            "cg_keys": sorted(repr(k) for k in cg_keys),
            # Coordinator-side flight excerpt at quarantine time — the
            # "what led up to this" context of the blame decision.
            "flight": flightrec.snapshot(last=16),
        })
        if self._t_poison is not None:
            self._t_poison.inc()

    def _entry_events(self, entry: _JournalEntry) -> list:
        if entry.kind in ("pbatch", "frame", "oframe"):
            return _rows_to_events(entry.payload)
        return [event for _shard, event in entry.payload]

    def _ensure_poison_engine(self) -> FeatureEngine:
        if self._poison_engine is None:
            cluster = self.cluster
            self._poison_engine = FeatureEngine(
                cluster.compiled, ctx=cluster._ctx,
                **cluster._engine_kwargs)
        return self._poison_engine

    def poison_vectors(self) -> list[FeatureVector]:
        """Finalized salvage output for every quarantined batch, always
        flagged degraded: the salvage engine saw the poison events out
        of context (FG mirrors may be elsewhere), so its vectors are
        coarse-granularity approximations by construction."""
        if self._poison_engine is None:
            return []
        vectors = self._poison_engine.finalize()
        for vector in vectors:
            vector.degraded = True
        return vectors

    @property
    def poison_cg_keys(self) -> set:
        return self._poison_cg

    def restart_latency_summary(self) -> dict:
        lat = self.restart_ns
        if not lat:
            return {"count": 0, "mean_ms": 0.0, "max_ms": 0.0}
        return {
            "count": len(lat),
            "mean_ms": round(sum(lat) / len(lat) / 1e6, 3),
            "max_ms": round(max(lat) / 1e6, 3),
        }


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------

class _ShardEngineProxy:
    """Read-only stand-in for ``cluster.engines[i]``: the engine itself
    lives in a worker, so stat reads quiesce the dispatch path first."""

    def __init__(self, cluster: "ShardedCluster", shard: int) -> None:
        self._cluster = cluster
        self.shard = shard

    @property
    def stats(self) -> EngineStats:
        return self._cluster._fetch_stats()[self.shard]

    def __repr__(self) -> str:
        return (f"<_ShardEngineProxy shard={self.shard} "
                f"of {self._cluster!r}>")


class ShardedCluster:
    """A :class:`~repro.nicsim.loadbalance.NICCluster` whose engines run
    on a worker pool.  API-compatible with the serial cluster (routing,
    failover ledger, counters, ``engines[i].stats``), bit-identical in
    its outputs; see the module docstring for the argument."""

    name = "cluster"

    def __init__(self, compiled: CompiledPolicy, n_nics: int,
                 execution: ExecutionConfig,
                 ctx: ExecContext | None = None,
                 pool: "WorkerPool | None" = None,
                 **engine_kwargs) -> None:
        # Imported lazily: core.batch pulls in core.pipeline, which is
        # still mid-import when dataplane loads this module.
        from repro.core.batch import AdaptiveBatcher, Batcher
        if n_nics < 1:
            raise ValueError("need at least one NIC")
        self.compiled = compiled
        self.n_nics = n_nics
        self.execution = execution
        self._ctx = ctx
        self._engine_kwargs = dict(engine_kwargs)
        self.alive = [True] * n_nics
        self.failovers = 0
        self.restarts = 0
        self.rerouted_events = 0
        self.fg_resyncs = 0
        self.demoted_vectors = 0
        self._residual: list[FeatureVector] = []
        # Coordinator-side replica of each engine's FG mirror: what the
        # control plane replays to survivors on failover (the engine's
        # own mirror dies with its worker on the process backend).
        self._mirrors: list[dict[int, tuple]] = [{} for _ in range(n_nics)]
        self.n_workers = max(1, min(execution.workers, n_nics))
        self._pool: WorkerPool | None = None
        self._owns_pool = False
        if execution.backend == "process":
            # Process workers come from a WorkerPool: a caller-provided
            # persistent one (reused across runs) or a private one that
            # lives exactly as long as this cluster.
            if pool is None:
                pool = WorkerPool(compiled, execution, ctx=ctx,
                                  engine_kwargs=dict(engine_kwargs))
                self._owns_pool = True
            self._pool = pool
            self._workers, self._owner, self._rings = pool.lease(n_nics)
            self._transport = pool.transport
        else:
            self._owner = [shard % self.n_workers
                           for shard in range(n_nics)]
            shards_of = [tuple(s for s in range(n_nics)
                               if s % self.n_workers == w)
                         for w in range(self.n_workers)]
            if execution.backend == "serial":
                self._workers: list = [
                    _InlineWorker(compiled, ctx, engine_kwargs, shards)
                    for shards in shards_of]
            else:
                self._workers = [
                    _QueueWorker(execution.backend, compiled, ctx,
                                 engine_kwargs, shards, w)
                    for w, shards in enumerate(shards_of)]
            self._rings = [None] * self.n_workers
            self._transport = "legacy"
        # Frames parked when a ring is momentarily full, per worker;
        # drained before any control/sync post so the per-worker FIFO
        # order (the serial-equivalence invariant) is preserved.
        self._pending: list[deque] = [deque()
                                      for _ in range(self.n_workers)]
        self.frames_shipped = 0
        self.bytes_shipped = 0
        self.fallback_chunks = 0
        self.parked_frames = 0
        self.oversize_chunks = 0
        self._shard_events = [0] * n_nics
        if execution.dispatch_batch is None:
            self._batchers: list = [AdaptiveBatcher()
                                    for _ in range(self.n_workers)]
        else:
            self._batchers = [Batcher(execution.dispatch_batch)
                              for _ in range(self.n_workers)]
        # The process backend ships compact positional rows (see the
        # driver's "pbatch" handler) — tuples pickle far cheaper than
        # frozen-dataclass events.  In-process backends keep the event
        # objects: nothing crosses a pickling boundary there.
        self._compact = execution.backend == "process"
        self.batches_dispatched = 0
        self.events_dispatched = 0
        # Steering memo, as in the serial cluster: route_shard per key
        # is fixed while the live set is stable; dropped on liveness
        # changes (bounded, cleared on overflow).
        self._route_cache: dict[tuple, tuple[int, bool]] = {}
        self._stats_cache = {s: EngineStats() for s in range(n_nics)}
        self._final_vectors: list[FeatureVector] | None = None
        self._closed = False
        # Supervision (process backend by default): per-request
        # deadlines, liveness probes, restart+replay, poison batches.
        self.supervised = (execution.supervised
                           and execution.backend == "process")
        self._timeout_s = execution.resolved_timeout_s()
        self._deadline: float | None = None
        self._slow_factors: dict[int, float] = {}
        self.supervisor = ShardSupervisor(self) if self.supervised else None
        # Telemetry (attach_telemetry): coordinator-side dispatch
        # instruments plus cached per-worker metric snapshots.
        self._t_tracer = None
        self._t_batches = None
        self._t_events = None
        self._t_chunk_events = None
        self._t_failovers = None
        self._t_tbytes = None
        self._t_tframes = None
        self._t_fallback = None
        self._t_parked = None
        self._snapshots_cache: list[dict] = []
        self._telemetry_on = False
        self._telemetry_config = None
        # Causal trace propagation (TelemetryConfig.trace): every
        # dispatched batch carries (trace_id, dispatch_span_id, seq)
        # across the transport; workers ship their ctx-tagged events
        # back with the telemetry snapshot.
        self._trace = False
        self._trace_id = 0
        self._root_span = 0
        self._trace_tracer = None
        self._ctx_seq = 0
        self._worker_tevents: list[dict] = []
        self._worker_flight: list[dict] = []

    def attach_telemetry(self, telemetry) -> None:
        """Instrument the coordinator's dispatch path and turn on
        worker-side registries: each worker gets the (picklable)
        :class:`~repro.core.telemetry.TelemetryConfig` over its FIFO and
        builds its own registry, shipped back as a snapshot by
        :meth:`worker_snapshots` and merged into cluster-wide truth by
        ``Dataplane.telemetry_snapshot``."""
        from repro.core.telemetry import DEFAULT_COUNT_BOUNDS
        reg = telemetry.registry
        self._t_tracer = (telemetry.tracer if telemetry.tracer.active
                          else None)
        self._t_batches = reg.counter("dispatch.batches")
        self._t_events = reg.counter("dispatch.events")
        self._t_chunk_events = reg.histogram("dispatch.chunk.events",
                                             DEFAULT_COUNT_BOUNDS)
        self._t_failovers = reg.counter("cluster.failovers")
        if self._transport != "legacy":
            self._t_tbytes = reg.counter("transport.bytes")
            self._t_tframes = reg.counter("transport.frames")
            self._t_fallback = reg.counter("transport.fallback_chunks")
            self._t_parked = reg.counter("transport.parked_frames")
            for index, ring in enumerate(self._rings):
                if ring is None:
                    continue
                reg.gauge_source(
                    f"transport.ring.{index}.occupancy",
                    lambda i=index: float(
                        self._rings[i].occupancy
                        if self._rings[i] is not None else 0))
        self._telemetry_on = True
        self._telemetry_config = telemetry.config
        if telemetry.tracing:
            self._trace = True
            self._trace_id = new_trace_id()
            self._root_span = root_span_id(self._trace_id)
            self._trace_tracer = telemetry.tracer
        if self.supervisor is not None:
            self.supervisor.attach_telemetry(telemetry)
        for worker in self._workers:
            worker.post(("telemetry_on", telemetry.config))

    def worker_snapshots(self) -> list[dict]:
        """Each worker's registry snapshot (empty when telemetry is
        off); the last gathered set keeps serving after close().  The
        same round trip also gathers each worker's ctx-tagged trace
        events and flight-recorder excerpt (see :meth:`trace_events`
        and :meth:`flight_events`)."""
        if not self._telemetry_on:
            return []
        if not self._closed:
            snapshots: list[dict] = []
            tevents: list[dict] = []
            flight: list[dict] = []
            for reply in self._broadcast(("telemetry",)):
                if reply is None:
                    continue
                if isinstance(reply, dict) and "snapshot" in reply:
                    snapshots.append(reply["snapshot"])
                    tevents.extend(reply.get("tevents") or ())
                    flight.extend(reply.get("flight") or ())
                else:
                    snapshots.append(reply)
            self._snapshots_cache = snapshots
            self._worker_tevents = tevents
            self._worker_flight = flight
        return self._snapshots_cache

    def trace_events(self) -> list[dict]:
        """Coordinator + worker ctx-tagged trace events for this run.

        Triggers a fresh worker gather while the cluster is open; after
        close() it serves the events collected on the way down.
        """
        if self._telemetry_on and not self._closed:
            self.worker_snapshots()
        coordinator = (list(self._trace_tracer.events)
                       if self._trace_tracer is not None else [])
        return coordinator + list(self._worker_tevents)

    def flight_events(self) -> list[dict]:
        """Coordinator flight ring + the workers' last-gathered
        excerpts (each event carries its pid)."""
        return flightrec.snapshot() + list(self._worker_flight)

    # -- routing & dispatch ---------------------------------------------------

    def _route(self, cg_key: tuple,
               hash32: int | None = None) -> int:
        cached = self._route_cache.get(cg_key)
        if cached is None:
            if len(self._route_cache) >= 1 << 17:
                self._route_cache.clear()
            cached = route_shard(cg_key, self.alive, hash32)
            self._route_cache[cg_key] = cached
        shard, rerouted = cached
        if rerouted:
            self.rerouted_events += 1
        return shard

    def consume(self, event: Event) -> None:
        if self._closed:
            raise RuntimeError("cluster is closed")
        if isinstance(event, FGSync):
            cg_key = self.compiled.cg.project(event.key)
            shard = self._route(cg_key)
            self._mirrors[shard][event.index] = event.key
            row = ((shard, 1, event.index, event.key)
                   if self._compact else (shard, event))
        elif isinstance(event, MGPVRecord):
            shard = self._route(event.cg_key, event.cg_hash32)
            if not self._compact:
                row = (shard, event)
            elif len(event.cells) > 1:
                # Columnar wire block: transpose the cells once here so
                # the row pickles as flat int columns (tag 2).
                fg_col = tuple(cell[0] for cell in event.cells)
                meta_cols = tuple(zip(*(cell[1] for cell in event.cells)))
                row = (shard, 2, event.cg_key, event.cg_hash32,
                       fg_col, meta_cols, event.reason)
            else:
                row = (shard, 0, event.cg_key, event.cg_hash32,
                       event.cells, event.reason)
        else:
            raise TypeError(f"unknown event {event!r}")
        self._shard_events[shard] += 1
        worker = self._owner[shard]
        chunk = self._batchers[worker].add(row)
        if chunk is not None:
            self._dispatch(worker, chunk)

    def consume_batch(self, events) -> None:
        """:meth:`consume` per event, with the slice's new-flow sync
        routes resolved in one vectorised hash sweep first."""
        route_syncs(events, self.compiled.cg.project, self._route_cache,
                    self.alive)
        for event in events:
            self.consume(event)

    def run(self, events) -> "ShardedCluster":
        for event in events:
            self.consume(event)
        return self

    def _op_deadline(self) -> float:
        """The monotonic deadline for one worker operation: the request
        timeout, clamped by any stream-propagated batch deadline."""
        deadline = time.monotonic() + self._timeout_s
        if self._deadline is not None:
            deadline = min(deadline, self._deadline)
        return deadline

    def set_deadline(self, deadline: float | None) -> None:
        """Propagate a per-batch deadline (monotonic seconds, or None to
        clear).  Under supervision every worker operation is clamped to
        it — a batch that cannot complete in time surfaces as a stalled
        worker instead of an unbounded wait.  No effect unsupervised."""
        self._deadline = deadline

    def _encode_chunk(self, worker: int, chunk: list):
        """Pick the wire shape for one chunk: ``(kind, payload)`` where
        payload is the encoded frame bytes (frame/oframe) or None
        (pickled rows).  Chunks the codec cannot represent (non-int
        values, e.g. hand-fed float cells) fall back to legacy rows —
        per chunk, counted, correctness-first."""
        if not self._compact or self._transport == "legacy":
            return ("pbatch" if self._compact else "batch"), None
        if self._t_tracer is not None:
            start = time.perf_counter_ns()
            payload = encode_rows(chunk)
            self._t_tracer.record("transport.encode", start,
                                  time.perf_counter_ns())
        else:
            payload = encode_rows(chunk)
        if payload is None:
            self.fallback_chunks += 1
            if self._t_fallback is not None:
                self._t_fallback.inc()
            flightrec.record("transport.fallback", worker=worker,
                             events=len(chunk))
            return "pbatch", None
        if self._transport == "shm":
            ring = self._rings[worker]
            if ring is None or not ring.fits(len(payload)):
                # A chunk bigger than the whole ring can never ship as
                # a ring frame; send this one inline instead.
                self.oversize_chunks += 1
                return "oframe", payload
            return "frame", payload
        return "oframe", payload

    def _dispatch(self, worker: int, chunk: list) -> None:
        kind, payload = self._encode_chunk(worker, chunk)
        if self._t_tracer is not None:
            start = time.perf_counter_ns()
            self._post_batch(worker, kind, chunk, payload)
            self._t_tracer.record("shard.dispatch", start,
                                  time.perf_counter_ns())
        else:
            self._post_batch(worker, kind, chunk, payload)
        self.batches_dispatched += 1
        self.events_dispatched += len(chunk)
        if self._t_batches is not None:
            self._t_batches.inc()
            self._t_events.inc(len(chunk))
            self._t_chunk_events.observe(len(chunk))

    def _post_batch(self, worker: int, kind: str, chunk: list,
                    payload: bytes | None = None) -> None:
        ctx = None
        if self._trace:
            # One causal context per dispatched batch: the dispatch
            # span id is derived from (trace_id, seq, worker), so the
            # worker-side span — and any journal replay of it — can
            # regenerate the exact same tree without coordination.
            self._ctx_seq += 1
            cseq = self._ctx_seq
            span = derive_span_id(self._trace_id, "shard.dispatch",
                                  cseq, worker)
            ctx = (self._trace_id, span, cseq)
            start_ns = time.perf_counter_ns()
        try:
            self._post_batch_inner(worker, kind, chunk, payload, ctx)
        finally:
            if ctx is not None:
                self._trace_tracer.record_event(make_event(
                    "shard.dispatch", start_ns,
                    time.perf_counter_ns() - start_ns,
                    span_id=ctx[1], parent_id=self._root_span,
                    trace_id=self._trace_id, seq=ctx[2]))

    def _post_batch_inner(self, worker: int, kind: str, chunk: list,
                          payload: bytes | None, ctx) -> None:
        sup = self.supervisor
        if sup is None:
            self._deliver(worker, kind, None, chunk, payload, ctx=ctx)
            return
        # Journal before posting: once recorded, the batch is delivered
        # exactly once — either by this post or by the replay a failed
        # post triggers (recover() rebuilds the worker from the journal,
        # which now includes this batch, so there is no re-post here).
        # Frames journal their *rows* (the payload is re-encoded into
        # the fresh incarnation's ring at replay time — ring positions
        # do not survive a restart).
        seq = sup.record(worker, kind, chunk, ctx=ctx)
        w = self._workers[worker]
        if not w.is_alive():
            sup.recover(worker, WorkerDied(
                f"{w.name} (pid {w.pid}) found dead before dispatch",
                worker=worker, pid=w.pid))
            return
        try:
            self._deliver(worker, kind, seq, chunk, payload,
                          deadline=self._op_deadline(), ctx=ctx)
        except ExecutorError as exc:
            sup.recover(worker, exc)

    def _deliver(self, worker: int, kind: str, seq, chunk: list,
                 payload: bytes | None, deadline: float | None = None,
                 lazy: bool = True, ctx=None) -> None:
        """Put one batch on the wire.  Ring frames are lazy by default:
        when the ring is full the frame parks in the per-worker pending
        queue instead of blocking the coordinator (occupancy-based
        backpressure deferral); parked frames drain opportunistically on
        later dispatches and mandatorily before any control message.
        ``ctx`` is the batch's trace context: frames carry it in the
        ring header, queue kinds as a trailing message element."""
        if kind == "frame":
            pending = self._pending[worker]
            if pending:
                pending.append((seq, payload, ctx))
                self.parked_frames += 1
                if self._t_parked is not None:
                    self._t_parked.inc()
            elif not self._push_frame(worker, seq, payload, deadline,
                                      ctx):
                pending.append((seq, payload, ctx))
                self.parked_frames += 1
                if self._t_parked is not None:
                    self._t_parked.inc()
            if not lazy or len(self._pending[worker]) > _PENDING_LIMIT:
                self._drain_pending(worker, deadline=deadline)
            else:
                self._drain_pending(worker, deadline=deadline,
                                    block=False)
            return
        # Queue-carried kinds keep FIFO order with any parked frames.
        self._drain_pending(worker, deadline=deadline)
        if kind == "oframe":
            self.frames_shipped += 1
            self.bytes_shipped += len(payload)
            if self._t_tframes is not None:
                self._t_tframes.inc()
                self._t_tbytes.inc(len(payload))
            msg = (("oframe", seq, payload) if ctx is None
                   else ("oframe", seq, payload, ctx))
            self._workers[worker].post(msg, deadline=deadline)
            return
        msg = ((kind, seq, chunk) if ctx is None
               else (kind, seq, chunk, ctx))
        self._workers[worker].post(msg, deadline=deadline)

    def _push_frame(self, worker: int, seq, payload: bytes,
                    deadline: float | None, ctx=None) -> bool:
        """Copy one frame into the worker's ring and post its pointer
        message; False when the ring has no room right now.  ``ctx``
        rides the frame header."""
        ring = self._rings[worker]
        if self._t_tracer is not None:
            start = time.perf_counter_ns()
            ok = ring.try_push(payload, ring.next_seq, ctx)
            self._t_tracer.record("transport.copy", start,
                                  time.perf_counter_ns())
        else:
            ok = ring.try_push(payload, ring.next_seq, ctx)
        if not ok:
            return False
        ring.next_seq += 1
        self.frames_shipped += 1
        self.bytes_shipped += len(payload)
        if self._t_tframes is not None:
            self._t_tframes.inc()
            self._t_tbytes.inc(len(payload))
        self._workers[worker].post(("frame", seq), deadline=deadline)
        return True

    def _drain_pending(self, worker: int, deadline: float | None = None,
                       block: bool = True) -> None:
        """Push parked frames in order.  Blocking drains bound their
        wait (the op deadline, or the reply timeout) and watch worker
        liveness so a dead consumer surfaces as :class:`WorkerDied`
        instead of an infinite ring-full spin."""
        pending = self._pending[worker]
        if not pending:
            return
        limit = (deadline if deadline is not None
                 else time.monotonic() + _REPLY_TIMEOUT_S)
        while pending:
            seq, payload, ctx = pending[0]
            if self._push_frame(worker, seq, payload, deadline, ctx):
                pending.popleft()
                continue
            if not block:
                return
            w = self._workers[worker]
            if not w.is_alive():
                raise WorkerDied(
                    f"{w.name} (pid {w.pid}) died with "
                    f"{len(pending)} frames parked", worker=worker,
                    shards=w.shards, pid=w.pid, kind="frame", seq=seq)
            if time.monotonic() > limit:
                raise WorkerStalled(
                    f"{w.name} (pid {w.pid}) ring stayed full past the "
                    f"deadline with {len(pending)} frames parked",
                    worker=worker, shards=w.shards, pid=w.pid,
                    kind="frame", seq=seq)
            time.sleep(0.0005)

    def _post_control(self, worker: int, msg: tuple,
                      deadline: float | None = None) -> None:
        """Post a non-batch message, draining parked frames first so it
        cannot overtake data already dispatched (FIFO invariant)."""
        self._drain_pending(worker, deadline=deadline)
        self._workers[worker].post(msg, deadline=deadline)

    def _deliver_journal(self, worker: int, seq: int,
                         entry) -> None:
        """Replay path: redeliver one journaled batch to the fresh
        incarnation.  Frame kinds re-encode from the journaled rows —
        the old ring's bytes died with the old worker."""
        kind, payload = entry.kind, None
        if kind in ("frame", "oframe"):
            payload = encode_rows(entry.payload)
            if payload is None:            # defensive: codec regression
                kind = "pbatch"
            elif kind == "frame" and (
                    self._rings[worker] is None
                    or not self._rings[worker].fits(len(payload))):
                kind = "oframe"
        self._deliver(worker, kind, seq, entry.payload, payload,
                      deadline=self._op_deadline(), lazy=False,
                      ctx=entry.ctx)

    def _flush_dispatch(self) -> None:
        for worker, batcher in enumerate(self._batchers):
            if len(batcher):
                self._dispatch(worker, batcher.drain())

    def _sync_request(self, worker: int, msg: tuple,
                      journal: bool = False):
        """One synchronous request to one worker, surviving worker
        failure under supervision.  ``journal=True`` marks the request
        state-mutating (``crash``/``take_pkt``): it is journaled before
        sending, and when recovery replays it the replayed reply is
        captured and returned in place of the lost one."""
        sup = self.supervisor
        if sup is None:
            self._drain_pending(worker)
            return self._workers[worker].request(msg)
        seq = (sup.record(worker, msg[0],
                          msg[1] if len(msg) > 1 else None,
                          expects_reply=True)
               if journal else None)
        attempts = 0
        while True:
            w = self._workers[worker]
            try:
                if not w.is_alive():
                    raise WorkerDied(
                        f"{w.name} (pid {w.pid}) is dead",
                        worker=worker, pid=w.pid)
                deadline = self._op_deadline()
                self._drain_pending(worker, deadline=deadline)
                w.post(msg, deadline=deadline)
                return w.reply(deadline=self._op_deadline())
            except ExecutorError as exc:
                attempts += 1
                if attempts > self.execution.max_restarts:
                    raise
                captured = sup.recover(worker, exc, capture_seq=seq)
                if seq is not None:
                    # Replay already delivered the journaled request to
                    # the fresh incarnation; its reply is the answer.
                    return captured

    def _broadcast(self, msg: tuple, journal: bool = False) -> list:
        """Synchronous request to every worker.  Unsupervised the
        requests are pipelined (all posts before any reply);
        supervision goes worker-at-a-time so failures are attributable
        and recoverable per worker."""
        self._flush_dispatch()
        if self.supervisor is not None:
            return [self._sync_request(w, msg, journal=journal)
                    for w in range(self.n_workers)]
        for index, worker in enumerate(self._workers):
            self._drain_pending(index)
            worker.post(msg)
        return [worker.reply() for worker in self._workers]

    def _gather(self, msg: tuple, journal: bool = False) -> dict:
        """Broadcast a request whose replies are per-shard dicts."""
        by_shard: dict = {}
        for part in self._broadcast(msg, journal=journal):
            by_shard.update(part)
        return by_shard

    # -- supervision ----------------------------------------------------------

    def _respawn(self, worker: int) -> None:
        """Replace one worker with a fresh incarnation on the same shard
        set, re-arming its telemetry and chaos-slow state; the caller
        (the supervisor) replays the journal next."""
        # Parked-but-undelivered frames die here: every one of them is
        # already journaled, so replay redelivers through the fresh ring.
        self._pending[worker].clear()
        if self._pool is not None:
            fresh, ring = self._pool.respawn(worker)
            self._workers[worker] = fresh
            self._rings[worker] = ring
        else:
            old = self._workers[worker]
            old.kill()
            fresh = _QueueWorker(self.execution.backend, self.compiled,
                                 self._ctx, self._engine_kwargs,
                                 old.shards, worker)
            self._workers[worker] = fresh
        if self._telemetry_config is not None:
            fresh.post(("telemetry_on", self._telemetry_config))
        factor = self._slow_factors.get(worker)
        if factor and factor > 1.0:
            fresh.post(("chaos_slow", factor))

    def _check_worker(self, worker: int) -> None:
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"no worker {worker} in a pool of "
                             f"{self.n_workers}")

    def _require_supervision(self, what: str) -> None:
        if self.supervisor is None:
            raise RuntimeError(
                f"{what} chaos needs the supervised process backend "
                f"(this cluster runs backend="
                f"{self.execution.backend!r}, supervise="
                f"{self.execution.supervise!r})")

    def chaos_crash_worker(self, worker: int) -> None:
        """Chaos hook: SIGKILL one worker process mid-run.  Recovery is
        the supervisor's job, so this demands supervision."""
        self._check_worker(worker)
        self._require_supervision("worker_crash")
        pid = self._workers[worker].pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def chaos_stall_worker(self, worker: int, seconds: float) -> None:
        """Chaos hook: make one worker sleep on its FIFO for
        ``seconds`` — the request-deadline detection target.  The stall
        message is never journaled, so replay does not re-stall."""
        self._check_worker(worker)
        self._require_supervision("worker_stall")
        try:
            self._post_control(worker, ("chaos_stall", float(seconds)),
                               deadline=self._op_deadline())
        except ExecutorError as exc:
            self.supervisor.recover(worker, exc)

    def chaos_slow_worker(self, worker: int, factor: float) -> None:
        """Chaos hook: multiply one worker's per-batch compute time by
        ``factor`` (1.0 restores full speed).  Queue backends only."""
        self._check_worker(worker)
        if not isinstance(self._workers[worker], _QueueWorker):
            raise RuntimeError(
                "worker_slow chaos needs a queue-backed worker "
                "(backend='thread' or 'process')")
        factor = float(factor)
        self._slow_factors[worker] = factor
        try:
            self._post_control(worker, ("chaos_slow", factor),
                               deadline=self._op_deadline())
        except ExecutorError as exc:
            if self.supervisor is None:
                raise
            self.supervisor.recover(worker, exc)

    # -- failover (serial-cluster semantics) ---------------------------------

    def fail_nic(self, nic: int) -> None:
        """Kill one shard's engine: in-flight dispatch drains first (the
        crash request rides the same FIFO), the residual vectors come
        back to the coordinator, and the coordinator's mirror replica
        replays to the survivors through the normal routing path."""
        self._check_nic(nic)
        if not self.alive[nic]:
            raise ValueError(f"NIC {nic} is already dead")
        if sum(self.alive) == 1:
            raise ValueError("cannot fail the last live NIC")
        self._flush_dispatch()
        self.alive[nic] = False
        self._route_cache.clear()
        self.failovers += 1
        if self._t_failovers is not None:
            self._t_failovers.inc()
        residual = self._sync_request(self._owner[nic], ("crash", nic),
                                      journal=True)
        self._residual.extend(residual)
        mirror = list(self._mirrors[nic].items())
        self._mirrors[nic].clear()
        for index, key in mirror:
            self.consume(FGSync(index, key))
            self.fg_resyncs += 1

    def restore_nic(self, nic: int) -> None:
        self._check_nic(nic)
        if self.alive[nic]:
            raise ValueError(f"NIC {nic} is already alive")
        self.alive[nic] = True
        self._route_cache.clear()
        self.restarts += 1

    def _check_nic(self, nic: int) -> None:
        if not 0 <= nic < self.n_nics:
            raise ValueError(f"no NIC {nic} in a cluster of "
                             f"{self.n_nics}")

    # -- drain / merge --------------------------------------------------------

    def finalize(self) -> list[FeatureVector]:
        if self._closed:
            return list(self._final_vectors or [])
        start = (time.perf_counter_ns()
                 if self._t_tracer is not None or self._trace else 0)
        by_shard = self._gather(("finalize",))
        vectors: list[FeatureVector] = []
        for shard in range(self.n_nics):
            vectors.extend(by_shard.get(shard, []))
        residual = list(self._residual)
        sup = self.supervisor
        if sup is not None:
            # Quarantined batches come back as degraded salvage vectors,
            # and any live vector sharing a CG group with poison events
            # is flagged too: its reduce state is missing those events.
            residual.extend(sup.poison_vectors())
            poison_cg = sup.poison_cg_keys
            if poison_cg:
                for vector in vectors:
                    try:
                        cg = self.compiled.cg.project(vector.key)
                    except Exception:
                        cg = None
                    if cg in poison_cg:
                        vector.degraded = True
        vectors, self.demoted_vectors = reconcile_residual(
            vectors, residual)
        self._final_vectors = vectors
        if self._t_tracer is not None:
            self._t_tracer.record("shard.merge", start,
                                  time.perf_counter_ns())
        if self._trace:
            # The merge span closes the tree: dispatch → worker stage
            # spans → merge, all under one trace id.
            self._ctx_seq += 1
            self._trace_tracer.record_event(make_event(
                "shard.merge", start, time.perf_counter_ns() - start,
                span_id=derive_span_id(self._trace_id, "shard.merge",
                                       self._ctx_seq),
                parent_id=self._root_span, trace_id=self._trace_id,
                seq=self._ctx_seq))
        return vectors

    def take_packet_vectors(self) -> list[FeatureVector]:
        if self._closed:
            return []
        by_shard = self._gather(("take_pkt",), journal=True)
        new: list[FeatureVector] = []
        for shard in range(self.n_nics):
            new.extend(by_shard.get(shard, []))
        return new

    def advance_clock(self, now_ns: int) -> None:
        if self._closed:
            return
        # Flush first so the clock lands after every event already
        # routed, exactly as the serial process()/advance_clock() order.
        self._flush_dispatch()
        sup = self.supervisor
        for index, worker in enumerate(self._workers):
            if sup is None:
                self._drain_pending(index)
                worker.post(("clock", now_ns))
                continue
            sup.record(index, "clock", now_ns)
            try:
                if not worker.is_alive():
                    raise WorkerDied(
                        f"{worker.name} (pid {worker.pid}) is dead",
                        worker=index, pid=worker.pid)
                self._post_control(index, ("clock", now_ns),
                                   deadline=self._op_deadline())
            except ExecutorError as exc:
                sup.recover(index, exc)

    def close(self) -> None:
        """Stop the pool.  Terminal: stats/counters/finalize keep
        serving the last fetched state; consume raises.  Idempotent and
        exception-safe — a dead worker cannot block shutdown."""
        if self._closed:
            return
        try:
            # Broad on purpose: after a supervisor give-up the reply
            # stream may be desynced (stale or None replies), and the
            # farewell stats fetch must never block shutdown.
            try:
                self._fetch_stats()
            except Exception:
                pass
            try:
                self.worker_snapshots()
            except Exception:
                pass
        finally:
            self._closed = True
            for pending in self._pending:
                pending.clear()
            if self._pool is not None:
                # Return the lease (feeding per-shard loads into the
                # pool's rebalancer); a private pool also shuts down —
                # a shared one keeps its workers warm for the next run.
                try:
                    self._pool.release(
                        {s: n for s, n in enumerate(self._shard_events)
                         if n})
                except Exception:
                    pass
                if self._owns_pool:
                    self._pool.close()
            else:
                for worker in self._workers:
                    try:
                        worker.stop()
                    except Exception:
                        pass

    # -- observability --------------------------------------------------------

    def _fetch_stats(self) -> dict[int, EngineStats]:
        if not self._closed:
            self._stats_cache = self._gather(("stats",))
        return self._stats_cache

    @property
    def engines(self) -> list[_ShardEngineProxy]:
        return [_ShardEngineProxy(self, shard)
                for shard in range(self.n_nics)]

    def cells_per_nic(self) -> list[int]:
        stats = self._fetch_stats()
        return [stats[s].cells for s in range(self.n_nics)]

    def orphan_cells(self) -> int:
        return sum(s.orphan_cells for s in self._fetch_stats().values())

    @property
    def stats(self) -> EngineStats:
        total = EngineStats()
        for s in self._fetch_stats().values():
            total.records += s.records
            total.cells += s.cells
            total.syncs += s.syncs
            total.orphan_cells += s.orphan_cells
            total.degraded_cells += s.degraded_cells
            total.unrecoverable_cells += s.unrecoverable_cells
            total.skipped_updates += s.skipped_updates
            total.vectors_emitted += s.vectors_emitted
        return total

    def transport_report(self) -> dict:
        """How dispatch batches actually crossed the worker boundary:
        the resolved mode, frame/byte ledger, fallback counts, and (for
        shm) live ring occupancy — the observable proof of the
        zero-copy claim (``queue_message_kinds`` shows only pointer and
        control messages on the shm hot path)."""
        kinds: dict[str, int] = {}
        for worker in self._workers:
            for kind, count in getattr(worker, "kind_counts",
                                       {}).items():
                kinds[kind] = kinds.get(kind, 0) + count
        report = {
            "mode": self._transport,
            "frames": self.frames_shipped,
            "bytes": self.bytes_shipped,
            "fallback_chunks": self.fallback_chunks,
            "oversize_chunks": self.oversize_chunks,
            "parked_frames": self.parked_frames,
            "queue_message_kinds": kinds,
        }
        if self._transport == "shm":
            report["ring_bytes"] = self.execution.ring_bytes
            report["ring_occupancy"] = [
                ring.occupancy if ring is not None else 0
                for ring in self._rings]
        if self._pool is not None:
            report["pool"] = self._pool.report()
        return report

    def health(self) -> dict:
        """Liveness and supervision report: per-worker state, restart
        ledger, and the quarantined poison batches (the only events a
        supervised run may lose to degraded-coarse salvage)."""
        workers = []
        for index, worker in enumerate(self._workers):
            alive = worker.is_alive() if hasattr(worker, "is_alive") \
                else not self._closed
            workers.append({
                "worker": index,
                "shards": list(worker.shards),
                "pid": getattr(worker, "pid", None),
                "alive": bool(alive) and not self._closed,
            })
        report = {
            "backend": self.execution.backend,
            "n_workers": self.n_workers,
            "closed": self._closed,
            "workers": workers,
            "transport": self.transport_report(),
            "supervision": None,
        }
        sup = self.supervisor
        if sup is not None:
            report["supervision"] = {
                "request_timeout_s": self._timeout_s,
                "restarts": sup.restarts,
                "redispatched_batches": sup.redispatched,
                "poison_batches": [dict(p) for p in sup.poison],
                "journal_entries": sum(len(j) for j in sup.journals),
                "restart_latency": sup.restart_latency_summary(),
            }
        return report

    def counters(self) -> dict:
        """The serial cluster's counter schema, plus a ``dispatch``
        sub-ledger for the execution engine itself and a ``supervisor``
        sub-ledger when supervision is on."""
        s = self.stats
        out = {
            "n_nics": self.n_nics,
            "live_nics": sum(self.alive),
            "records": s.records,
            "cells": s.cells,
            "syncs": s.syncs,
            "orphan_cells": s.orphan_cells,
            "degraded_cells": s.degraded_cells,
            "unrecoverable_cells": s.unrecoverable_cells,
            "skipped_updates": s.skipped_updates,
            "vectors_emitted": s.vectors_emitted,
            "failovers": self.failovers,
            "restarts": self.restarts,
            "rerouted_events": self.rerouted_events,
            "fg_resyncs": self.fg_resyncs,
            "demoted_vectors": self.demoted_vectors,
            "residual_vectors": len(self._residual),
            "cells_per_nic": {str(i): c
                              for i, c in enumerate(self.cells_per_nic())},
            "dispatch": {
                "backend": self.execution.backend,
                "workers": self.n_workers,
                "batch_size": (self.execution.dispatch_batch
                               if self.execution.dispatch_batch is not None
                               else "auto"),
                "batches": self.batches_dispatched,
                "events": self.events_dispatched,
                "transport": self._transport,
                "bytes": self.bytes_shipped,
                "frames": self.frames_shipped,
                "fallback_chunks": self.fallback_chunks,
                "parked_frames": self.parked_frames,
            },
        }
        sup = self.supervisor
        if sup is not None:
            out["supervisor"] = {
                "restarts": sup.restarts,
                "redispatched_batches": sup.redispatched,
                "poison_batches": len(sup.poison),
                "journal_entries": sum(len(j) for j in sup.journals),
            }
        return out


class ParallelSink:
    """Terminal dataplane stage over a :class:`ShardedCluster` — the
    parallel twin of :class:`~repro.core.dataplane.ClusterSink`."""

    name = "cluster"

    def __init__(self, cluster: ShardedCluster) -> None:
        self.cluster = cluster

    def attach_telemetry(self, telemetry) -> None:
        self.cluster.attach_telemetry(telemetry)

    def telemetry_snapshots(self) -> list[dict]:
        return self.cluster.worker_snapshots()

    def trace_events(self) -> list[dict]:
        return self.cluster.trace_events()

    def flight_events(self) -> list[dict]:
        return self.cluster.flight_events()

    def consume(self, event) -> tuple:
        self.cluster.consume(event)
        return ()

    def consume_batch(self, events) -> tuple:
        self.cluster.consume_batch(events)
        return ()

    def flush(self) -> tuple:
        return ()

    def counters(self) -> dict:
        return self.cluster.counters()

    def finalize(self) -> list[FeatureVector]:
        return self.cluster.finalize()

    def advance_clock(self, now_ns: int) -> None:
        self.cluster.advance_clock(now_ns)

    def take_packet_vectors(self) -> list[FeatureVector]:
        return self.cluster.take_packet_vectors()

    def set_deadline(self, deadline: float | None) -> None:
        self.cluster.set_deadline(deadline)

    def health(self) -> dict:
        return self.cluster.health()

    def close(self) -> None:
        self.cluster.close()
