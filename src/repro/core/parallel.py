"""Shard-parallel execution of the NIC cluster (§6, Fig 16).

The paper's scalability story is that feature computation — not the
switch — is the bottleneck, and that SuperFE buys throughput by sharding
vector computation across SmartNIC compute units.  This module is that
substrate for the simulator: the hash-steered shards of
:class:`~repro.nicsim.loadbalance.NICCluster` are partitioned across a
worker pool, and the switch→NIC event stream is dispatched to them in
amortized batches.

Topology::

    coordinator (routing, failover, merge)
        │  per-worker FIFO queue, frames of EventBatch columns
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
- ``serial``  — inline execution of the same message protocol: the
  same encoded frames, handed to the same worker driver in memory, for
  cheap determinism checks of the machinery itself.
  (``Dataplane.build`` maps ``backend="serial"`` to the classic
  in-process ``NICCluster``; an inline :class:`ShardedCluster` is only
  built directly.)

Failover (``fail_nic``) needs no barrier: the crash request rides the
owner's FIFO queue behind every event routed before the kill, so the
engine answers with exactly the serial residual and FG mirror, and the
coordinator replays that mirror as the serial cluster does (it keeps no
copy of its own).

Transport: the coordinator steers an
:class:`~repro.switchsim.mgpv.EventBatch` by CG hash and ships each
worker's ``select``-ed share as frames of raw column buffers
(:mod:`repro.core.transport`) through a per-worker shared-memory ring,
posting only a ``("frame", seq)`` pointer on the FIFO queue; without
usable shared memory — and inline — the frame rides the message
(``oob``).  A worker hands each engine its ``select``-ed sub-batch of
the decoded views: the serial engine path.  The coordinator holds no
event queue: every ``consume_batch`` ships before it returns, so a
control message always follows the events routed before it.
Workers for the process backend come from a persistent
:class:`WorkerPool` — spawned once, ``reset`` per run, rebalanced
across runs by observed per-shard load, and stopped by an explicit
``close()`` (or a pid-guarded finalizer).

Supervision (process backend, on by default): the coordinator keeps a
per-worker *journal* — the FIFO transcript of every state-mutating
message it sent (sequence-numbered batches, clock advances, crash
requests).  Every message takes one path, ``_post_request`` then
``_await``; without a supervisor they journal nothing and wait without
a deadline.  Under supervision every request carries a deadline
(:attr:`ExecutionConfig.request_timeout_s`, default
:data:`DEFAULT_REQUEST_TIMEOUT_S`); a worker that dies
(``Process.is_alive()``) or blows the deadline is killed and respawned
by the :class:`ShardSupervisor` (at most :data:`MAX_RESTARTS` times in
a row), which replays the journal into the fresh process.  Replay is
the exactly-once mechanism: the half-applied incarnation is discarded
wholesale and the new one receives precisely the transcript, so no
batch is ever applied twice to surviving state and the
serial-equivalence checksum stays green.  A batch that keeps failing
(:data:`POISON_THRESHOLD` consecutive blames) is quarantined: it is
dropped from the journal, its events are salvaged through a
coordinator-side engine whose output vectors are force-flagged
``degraded`` (the PR 2 coarse-granularity downgrade), and the batch is
enumerated in :meth:`ShardedCluster.health`.  The journal
holds each frame's bytes, replayed unchanged, and grows with the event
stream — supervision trades memory proportional to the input for the
ability to rebuild any worker at any point.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

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
    TRANSPORTS,
    ShmRing,
    TransportError,
    apply_frame,
    decode_frame,
    encode_frame,
    key_matrix,
    resolve_transport,
)
from repro.nicsim.engine import EngineStats, FeatureEngine, FeatureVector
from repro.nicsim.loadbalance import ClusterBase, reconcile_residual
from repro.switchsim.mgpv import EventBatch, FGSync, MGPVRecord

BACKENDS = ("serial", "process")

#: Batches a process worker's inbox may hold before the coordinator's
#: ``put`` blocks — the dispatch backpressure bound.
_QUEUE_DEPTH = 128
#: Reply timeout for *unsupervised* queue workers (the legacy bound).
_REPLY_TIMEOUT_S = 300.0
#: Per-request deadline under supervision when
#: ``ExecutionConfig.request_timeout_s`` is unset.
DEFAULT_REQUEST_TIMEOUT_S = 30.0
#: The most events one frame carries: a batch call ships each worker's
#: share in frames of this size (the dispatch amortization unit).
DISPATCH_BATCH = 1024
#: Per-worker shm ring capacity: a 175k-packet batch call's share, so
#: its frames never park while the coordinator runs the switch's flush.
RING_BYTES = 1 << 22
#: Consecutive failed restart+replay attempts on one worker before the
#: cluster gives up and raises.
MAX_RESTARTS = 5
#: Consecutive blames on the same batch before it is quarantined and
#: salvaged as degraded coarse vectors.
POISON_THRESHOLD = 3

#: Frames the coordinator parks for one hot ring before dispatch
#: applies backpressure (blocks for ring space) instead.
_PENDING_LIMIT = 64

_BATCH_KINDS = ("frame", "oframe")
#: The messages a worker does not answer.
_ASYNC_KINDS = (*_BATCH_KINDS, "clock", "chaos_stall", "chaos_slow")


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
    """The worker process exited without replying."""


class WorkerStalled(ExecutorError):
    """The worker blew its request deadline without dying."""


@dataclass(frozen=True)
class ExecutionConfig:
    """How a dataplane executes its NIC shards.

    ``backend`` is ``"serial"`` (in-process) or ``"process"`` (forked
    shard workers).  ``workers`` is an upper bound — a cluster never
    spawns more workers than it has shards — and must be a plain
    ``int``.

    Robustness knobs (supervised process backend):

    - ``request_timeout_s`` — per-request deadline; a worker that does
      not accept or answer within it is treated as stalled and
      restarted.  ``None`` means :data:`DEFAULT_REQUEST_TIMEOUT_S`.
    - ``supervise`` — ``None`` (default) enables supervision exactly on
      the process backend; ``False`` opts out (the pre-supervision
      behavior, used by the overhead bench); ``True`` demands it and is
      rejected on the serial backend, which has no worker to restart.

    ``transport`` (process backend) is how dispatch batches cross the
    worker boundary: ``"shm"`` (shared-memory ring frames) or ``"oob"``
    (the same frame as one bytes payload over the queue).  ``None``
    (default) defers to ``SUPERFE_TRANSPORT``, then auto-selects:
    ``shm`` where shared memory works, degrading to ``oob`` with a
    single warning where it does not.
    """

    workers: int = 1
    backend: str = "serial"
    request_timeout_s: float | None = None
    supervise: bool | None = None
    transport: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown execution backend "
                             f"{self.backend!r}; have {BACKENDS}")
        if isinstance(self.workers, bool) or not isinstance(self.workers,
                                                            int):
            raise TypeError(f"workers must be an int, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if (self.request_timeout_s is not None
                and self.request_timeout_s <= 0):
            raise ValueError(f"request_timeout_s must be > 0, "
                             f"got {self.request_timeout_s}")
        if self.supervise and self.backend != "process":
            raise ValueError(
                "supervise=True needs backend='process' — only a "
                "process worker can be killed and restarted")
        if self.transport is not None and self.transport not in TRANSPORTS:
            raise ValueError(f"unknown shard transport "
                             f"{self.transport!r}; have {TRANSPORTS}")
        if self.transport is not None and self.backend != "process":
            raise ValueError(
                f"transport={self.transport!r} needs backend='process' "
                f"— the serial backend has no serialization boundary")

    @property
    def is_parallel(self) -> bool:
        return self.backend != "serial"

    @property
    def supervised(self) -> bool:
        """Whether this configuration runs under the ShardSupervisor."""
        if self.supervise is not None:
            return bool(self.supervise)
        return self.backend == "process"

    def resolved_timeout_s(self) -> float:
        """The effective per-request deadline in seconds."""
        if self.request_timeout_s is not None:
            return self.request_timeout_s
        return DEFAULT_REQUEST_TIMEOUT_S

    @classmethod
    def from_env(cls, env=None) -> "ExecutionConfig | None":
        """Build from ``SUPERFE_EXEC_BACKEND`` / ``SUPERFE_EXEC_WORKERS``
        / ``SUPERFE_TRANSPORT`` (the CI matrix hooks); None when the
        backend variable is unset.  ``SUPERFE_EXEC_WORKERS`` unset or
        ``0`` means one worker per CPU.  The transport variable only
        binds on the process backend — the serial backend has no wire,
        so a matrix-wide ``SUPERFE_TRANSPORT`` must not break its leg —
        and an unknown value raises here, at configuration time, not at
        first dispatch."""
        env = os.environ if env is None else env
        backend = (env.get("SUPERFE_EXEC_BACKEND") or "").strip().lower()
        if not backend:
            return None
        raw = (env.get("SUPERFE_EXEC_WORKERS") or "").strip() or "0"
        if not raw.isdecimal():
            raise ValueError(f"SUPERFE_EXEC_WORKERS must be a positive "
                             f"integer (or 0 for one per CPU), "
                             f"got {raw!r}")
        workers = int(raw) or os.cpu_count() or 1
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
    engines.  One instance per worker; shared verbatim by both backends
    so they run identical code."""

    def __init__(self, compiled: CompiledPolicy, ctx: ExecContext | None,
                 engine_kwargs: dict, shards: tuple[int, ...],
                 ring: ShmRing | None = None) -> None:
        self._compiled = compiled
        self._ctx = ctx
        self._engine_kwargs = engine_kwargs
        self.ring = ring
        self.engines = {s: FeatureEngine(compiled, ctx=ctx, **engine_kwargs)
                        for s in shards}
        self.telemetry = None
        self._slow_factor = 1.0

    def handle(self, msg: tuple) -> tuple[bool, object]:
        """Returns ``(replied, payload)``; async messages reply False."""
        kind = msg[0]
        if kind in _BATCH_KINDS:
            # Batch messages are ("frame", seq) — the frame travelled
            # through the shm ring, popped here — or ("oframe", seq,
            # payload), the same frame bytes carried in the message: seq
            # is the coordinator's journal sequence number (None when
            # unsupervised), echoed back in error reports so failures
            # are attributable to one batch.
            slow = self._slow_factor
            t0 = time.perf_counter() if slow > 1.0 else 0.0
            tel = self.telemetry
            tracing = tel is not None and tel.tracing
            start_ns = time.perf_counter_ns() if tracing else 0
            if kind == "frame":
                payload, ctx = self.ring.pop(), self.ring.last_ctx
            else:
                payload, ctx = msg[2], msg[3] if len(msg) > 3 else None
            apply_frame(payload, self.engines)
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
            engine = self.engines[msg[1]]
            return True, (engine.fg_mirror_items(), engine.crash())
        if kind == "stats":
            return True, {s: (e.stats, e.counters(), e.table_stats(),
                              e.total_state_bytes())
                          for s, e in self.engines.items()}
        if kind == "take_pkt":
            return True, {s: _pack_vectors(e.take_packet_vectors())
                          for s, e in self.engines.items()}
        if kind == "finalize":
            return True, {s: _pack_vectors(e.finalize())
                          for s, e in self.engines.items()}
        if kind == "barrier":
            return True, None
        if kind == "telemetry_on":
            # Workers fork before the coordinator can attach anything,
            # so telemetry arrives as a picklable TelemetryConfig and
            # each worker builds its own registry here.  Asynchronous:
            # rides the FIFO like any dispatch batch.
            from repro.core.telemetry import Telemetry
            self.telemetry = Telemetry(msg[1])
            self._attach_engines()
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
            self._slow_factor = 1.0
            if self.ring is not None:
                self.ring.reset_consumer(msg[2])
            if self.telemetry is not None:
                self._attach_engines()
            return True, True
        raise RuntimeError(f"unknown worker message {kind!r}")

    def _attach_engines(self) -> None:
        """Register the engine set's instruments, owned by this driver,
        releasing those of the set a ``reset`` replaced."""
        reg = self.telemetry.registry
        reg.release(self)
        with reg.owned_by(self):
            for engine in self.engines.values():
                engine.attach_telemetry(self.telemetry)


def _pack_vectors(vectors: list):
    """A shard's vectors as a reply: their values as one matrix when
    they share names, widths and a 1-D shape (one buffer to pickle, not
    an array object per vector), else the list itself."""
    shapes = {(v.names, v.widths, v.values.shape, v.values.dtype)
              for v in vectors}
    if len(shapes) != 1 or vectors[0].values.ndim != 1:
        return vectors
    return (*next(iter(shapes))[:2], [v.key for v in vectors],
            np.stack([v.values for v in vectors]),
            [v.degraded for v in vectors])


def _unpack_vectors(reply) -> list[FeatureVector]:
    """:func:`_pack_vectors`' inverse (values become the matrix's rows,
    as the engine's own vectors are)."""
    if isinstance(reply, list):
        return reply
    names, widths, keys, values, degraded = reply
    return [FeatureVector(key, names, row, flag, widths)
            for key, row, flag in zip(keys, values, degraded)]


def _worker_loop(compiled, ctx, engine_kwargs, shards, inbox, outbox,
                 ring=None):
    """Process entry point: drain the FIFO inbox until ``stop``.
    Errors are reported on the outbox as structured dicts (message kind,
    batch seq, shard set, pid, traceback), where the coordinator's next
    synchronous request surfaces them as :class:`ExecutorError`."""
    pid = os.getpid()
    # A forked worker inherits the coordinator's flight ring; reset it
    # so this process records only its own history.
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
    calling thread (determinism checks of the dispatch machinery);
    frames arrive as ``oframe`` payloads handed over in memory."""

    pid = None

    def __init__(self, compiled, ctx, engine_kwargs, shards) -> None:
        self.shards = shards
        self._driver = _ShardDriver(compiled, ctx, engine_kwargs, shards)
        self._replies: deque = deque()
        self.kind_counts: dict[str, int] = {}

    def is_alive(self) -> bool:
        return True

    def post(self, msg: tuple, deadline: float | None = None) -> None:
        self.kind_counts[msg[0]] = self.kind_counts.get(msg[0], 0) + 1
        replied, payload = self._driver.handle(msg)
        if replied:
            self._replies.append(payload)

    def reply(self, deadline: float | None = None):
        return self._replies.popleft()

    def stop(self) -> None:
        pass


class _ProcessWorker:
    """A forked-process worker behind a bounded FIFO message queue."""

    def __init__(self, compiled, ctx, engine_kwargs, shards, index: int,
                 ring: ShmRing | None = None) -> None:
        self.shards = shards
        self.index = index
        self.name = f"shard-worker-{index}"
        self._stopped = False
        self.ring = ring
        # Instrumentation: message kinds posted over the queue, for the
        # zero-pickled-payload transport proof (a ring frame counts only
        # its 16-byte pointer message).
        self.kind_counts: dict[str, int] = {}
        mp_ctx = _fork_context()
        self.inbox = mp_ctx.Queue(maxsize=_QUEUE_DEPTH)
        self.outbox = mp_ctx.Queue()
        self._handle = mp_ctx.Process(
            target=_worker_loop,
            args=(compiled, ctx, engine_kwargs, shards, self.inbox,
                  self.outbox, ring),
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

    def _as_error(self, info: dict) -> ExecutorError:
        what = ("while constructing its engines"
                if info.get("kind") == "startup"
                else f"handling {info.get('kind')!r}")
        return self._blame(
            f"{self.name} (pid {info.get('pid')}, shards "
            f"{tuple(info.get('shards') or ())}) failed {what}:\n"
            f"{info.get('traceback')}",
            kind=info.get("kind"), seq=info.get("seq"),
            worker_flight=info.get("flight"))

    def post(self, msg: tuple, deadline: float | None = None) -> None:
        """Enqueue a message.  With a ``deadline`` (monotonic seconds,
        supervised path) the put is bounded: a dead worker raises
        :class:`WorkerDied`, a full inbox past the deadline raises
        :class:`WorkerStalled`.  Without one, the put blocks as long as
        the worker stays alive (the legacy backpressure bound)."""
        k = msg[0]
        self.kind_counts[k] = self.kind_counts.get(k, 0) + 1
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

    def stop(self) -> None:
        """Graceful shutdown; never hangs on a dead or wedged worker —
        the join is bounded and escalates to ``terminate()``.
        Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        try:
            if self._handle.is_alive():
                self.inbox.put(("stop",), timeout=1.0)
        except Exception:
            pass
        self._handle.join(timeout=5.0)
        if self._handle.is_alive():
            self._handle.terminate()
            self._handle.join(timeout=5.0)
        self._drop_queues()

    def kill(self) -> None:
        """Supervisor path: discard this incarnation immediately
        (SIGKILL — its state is about to be rebuilt by replay)."""
        self._stopped = True
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
            "(Linux) — did you mean backend='serial'?") from None


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
        self.transport = resolve_transport(execution.transport)
        self._compiled = compiled
        self._ctx = ctx
        self._engine_kwargs = engine_kwargs or {}
        # Mutated in place (never rebound) so the finalizer always sees
        # the current incarnations.
        self._workers: list[_ProcessWorker] = []
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
        return ShmRing(RING_BYTES, label=f"w{index}")

    def _spawn(self, index: int, shards: tuple[int, ...]) -> None:
        ring = self._new_ring(index)
        try:
            worker = _ProcessWorker(self._compiled, self._ctx,
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
                    self.respawn(i)
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
        """Replace a dead or wedged worker with a fresh one on the same
        shard set and a fresh ring (the old ring's unconsumed frames die
        with the old incarnation; journal replay redelivers)."""
        old = self._workers[index]
        old.kill()
        old_ring = self._rings[index]
        if old_ring is not None:
            old_ring.close()
        ring = self._new_ring(index)
        worker = _ProcessWorker(self._compiled, self._ctx,
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


# ---------------------------------------------------------------------------
# Supervision
# ---------------------------------------------------------------------------

class _JournalEntry:
    """One state-mutating message in a worker's transcript (a batch's
    payload is its frame bytes)."""

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

    def message(self) -> tuple:
        """A control entry's message (frames replay through
        :meth:`ShardedCluster._deliver_journal`)."""
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
    4. a batch blamed :data:`POISON_THRESHOLD` consecutive times is
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
        self._t_restart_hist = None

    def attach_telemetry(self, telemetry) -> None:
        from repro.core.telemetry import DEFAULT_LATENCY_BOUNDS_NS
        reg = telemetry.registry
        reg.counter_source("supervisor.restarts", lambda: self.restarts)
        reg.counter_source("supervisor.redispatched",
                           lambda: self.redispatched)
        reg.counter_source("supervisor.poison_batches",
                           lambda: len(self.poison))
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
        budget = MAX_RESTARTS
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
                    # The journaled frame bytes go into the fresh ring
                    # unchanged (the old ring died with the old worker);
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
                        worker, entry.message(),
                        deadline=cluster._op_deadline())
                    value = w.reply(deadline=cluster._op_deadline())
                    if seq == capture_seq:
                        captured = value
                else:
                    cluster._post_control(
                        worker, entry.message(),
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
        if self._blames[key] >= POISON_THRESHOLD:
            self._quarantine(worker, seq)
            return True
        return False

    # -- poison quarantine ------------------------------------------------

    def _quarantine(self, worker: int, seq: int) -> None:
        entry = self.journals[worker][seq]
        entry.quarantined = True
        try:
            events = list(decode_frame(entry.payload)[0])
        except TransportError:
            events = []         # a corrupt frame has nothing to salvage
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
                engine.consume_batch([event])
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
    lives in a worker, so reads quiesce the dispatch path first and
    answer from one gather of every shard's ``stats``, ``counters()``,
    ``table_stats()`` and ``total_state_bytes()``."""

    def __init__(self, cluster: "ShardedCluster", shard: int) -> None:
        self._cluster = cluster
        self.shard = shard

    @property
    def stats(self) -> EngineStats:
        return self._cluster._fetch_stats()[self.shard][0]

    def counters(self) -> dict:
        return dict(self._cluster._fetch_stats()[self.shard][1])

    def table_stats(self) -> dict:
        return dict(self._cluster._fetch_stats()[self.shard][2])

    def total_state_bytes(self) -> int:
        return self._cluster._fetch_stats()[self.shard][3]

    def __repr__(self) -> str:
        return (f"<_ShardEngineProxy shard={self.shard} "
                f"of {self._cluster!r}>")


class ShardedCluster(ClusterBase):
    """A :class:`~repro.nicsim.loadbalance.NICCluster` whose engines run
    on a worker pool.  API-compatible with the serial cluster (routing,
    failover ledger, counters, ``engines[i].stats``), bit-identical in
    its outputs; see the module docstring for the argument."""

    def __init__(self, compiled: CompiledPolicy, n_nics: int,
                 execution: ExecutionConfig,
                 ctx: ExecContext | None = None,
                 pool: "WorkerPool | None" = None,
                 **engine_kwargs) -> None:
        super().__init__(compiled, n_nics)
        self.execution = execution
        self._ctx = ctx
        self._engine_kwargs = dict(engine_kwargs)
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
            # Inline workers take the same frames as one payload in the
            # message, handed over in memory.
            self._owner = [shard % self.n_workers
                           for shard in range(n_nics)]
            self._workers: list = [
                _InlineWorker(compiled, ctx, engine_kwargs,
                              tuple(range(w, n_nics, self.n_workers)))
                for w in range(self.n_workers)]
            self._rings = [None] * self.n_workers
            self._transport = "oob"
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
        self._shard_events = np.zeros(n_nics, np.int64)
        self._frame_events = DISPATCH_BATCH
        self._owner_of = np.array(self._owner, np.int64)
        self.batches_dispatched = 0
        self.events_dispatched = 0
        # Per shard (stats, counters(), table_stats(),
        # total_state_bytes()), as last gathered.
        self._stats_cache = {s: (EngineStats(), {}, {}, 0)
                             for s in range(n_nics)}
        self._final_vectors: list[FeatureVector] | None = None
        self._closed = False
        # Supervision (process backend by default): per-request
        # deadlines, liveness probes, restart+replay, poison batches.
        self.supervised = execution.supervised
        self._timeout_s = execution.resolved_timeout_s()
        self._deadline: float | None = None
        self._slow_factors: dict[int, float] = {}
        self.supervisor = ShardSupervisor(self) if self.supervised else None
        # Telemetry (attach_telemetry): coordinator-side dispatch
        # instruments plus cached per-worker metric snapshots.
        self._t_tracer = None
        self._t_chunk_events = None
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
        :meth:`telemetry_snapshots` and merged into cluster-wide truth by
        ``Dataplane.telemetry_snapshot``."""
        from repro.core.telemetry import DEFAULT_COUNT_BOUNDS
        reg = telemetry.registry
        self._t_tracer = (telemetry.tracer if telemetry.tracer.active
                          else None)
        self._t_chunk_events = reg.histogram("dispatch.chunk.events",
                                             DEFAULT_COUNT_BOUNDS)
        for name, attr in (("dispatch.batches", "batches_dispatched"),
                           ("dispatch.events", "events_dispatched"),
                           ("cluster.failovers", "failovers"),
                           ("transport.bytes", "bytes_shipped"),
                           ("transport.frames", "frames_shipped"),
                           ("transport.fallback_chunks", "fallback_chunks"),
                           ("transport.parked_frames", "parked_frames")):
            reg.counter_source(name, lambda a=attr: getattr(self, a))
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

    def telemetry_snapshots(self) -> list[dict]:
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
                if reply is not None:
                    snapshots.append(reply["snapshot"])
                    tevents.extend(reply["tevents"])
                    flight.extend(reply["flight"])
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
            self.telemetry_snapshots()
        coordinator = (list(self._trace_tracer.events)
                       if self._trace_tracer is not None else [])
        return coordinator + list(self._worker_tevents)

    def flight_events(self) -> list[dict]:
        """Coordinator flight ring + the workers' last-gathered
        excerpts (each event carries its pid)."""
        return flightrec.snapshot() + list(self._worker_flight)

    # -- sink protocol (the dataplane's terminal stage) -----------------------

    def consume_batch(self, events) -> tuple:
        """Steer a slice from its record and sync tables (one
        :func:`~repro.nicsim.loadbalance.steer` each) and ship each
        worker's share (:meth:`EventBatch.select`) as frames of at most
        :data:`DISPATCH_BATCH` events."""
        if self._closed:
            raise RuntimeError("cluster is closed")
        batch, rec_shard, sync_shard = self._steer(events)
        self._shard_events += (np.bincount(rec_shard, minlength=self.n_nics)
                               + np.bincount(sync_shard,
                                             minlength=self.n_nics))
        rec_worker = self._owner_of[rec_shard]
        sync_worker = self._owner_of[sync_shard]
        keys = key_matrix(batch.keys)
        cap = self._frame_events
        for worker in range(self.n_workers):
            records, syncs = rec_worker == worker, sync_worker == worker
            share = batch.select(records, syncs)
            shards = rec_shard[records], sync_shard[syncs]
            for lo in range(0, len(share), cap):
                self._dispatch(worker, share, *shards, keys, lo,
                               min(lo + cap, len(share)))
        return ()

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

    def _wire_kind(self, worker: int, payload: bytes) -> str:
        """``frame`` (through the ring) or ``oframe`` (in the message):
        a frame bigger than the whole ring can never ship through it."""
        ring = self._rings[worker]
        if self._transport == "shm" and ring is not None \
                and ring.fits(len(payload)):
            return "frame"
        return "oframe"

    def _dispatch(self, worker: int, share: EventBatch, rec_shard,
                  sync_shard, keys, lo: int, hi: int) -> None:
        """Encode events ``[lo, hi)`` of a worker's share as one frame
        and post it."""
        tracer = self._t_tracer
        start = time.perf_counter_ns()
        payload, pickled = encode_frame(share, rec_shard, sync_shard, keys,
                                        lo, hi)
        if tracer is not None:
            tracer.record("transport.encode", start, time.perf_counter_ns())
        if pickled:
            self.fallback_chunks += 1
            flightrec.record("transport.fallback", worker=worker,
                             events=hi - lo)
        kind = self._wire_kind(worker, payload)
        self.oversize_chunks += kind == "oframe" and self._transport == "shm"
        start = time.perf_counter_ns()
        self._post_batch(worker, kind, payload)
        if tracer is not None:
            tracer.record("shard.dispatch", start, time.perf_counter_ns())
        self.batches_dispatched += 1
        self.events_dispatched += hi - lo
        if self._t_chunk_events is not None:
            self._t_chunk_events.observe(hi - lo)

    def _post_batch(self, worker: int, kind: str, payload: bytes) -> None:
        ctx = None
        if self._trace:
            # One causal context per dispatched batch: the dispatch
            # span id is derived from (trace_id, seq, worker), so the
            # worker-side span — and any journal replay of it — can
            # regenerate the exact same tree without coordination.
            self._ctx_seq += 1
            ctx = (self._trace_id, derive_span_id(
                self._trace_id, "shard.dispatch", self._ctx_seq, worker),
                self._ctx_seq)
            start_ns = time.perf_counter_ns()
        try:
            msg = (kind, payload)
            self._await(worker, msg, *self._post_request(
                worker, msg, journal=True, ctx=ctx))
        finally:
            if ctx is not None:
                self._trace_tracer.record_event(make_event(
                    "shard.dispatch", start_ns,
                    time.perf_counter_ns() - start_ns,
                    span_id=ctx[1], parent_id=self._root_span,
                    trace_id=self._trace_id, seq=ctx[2]))

    def _deliver(self, worker: int, kind: str, seq, payload: bytes,
                 deadline: float | None = None, lazy: bool = True,
                 ctx=None) -> None:
        """Put one frame on the wire.  Ring frames are lazy by default:
        when the ring is full the frame parks in the per-worker pending
        queue instead of blocking the coordinator (occupancy-based
        backpressure deferral); parked frames drain opportunistically on
        later dispatches and mandatorily before any control message.
        ``ctx`` is the batch's trace context: ring frames carry it in
        the ring header, ``oframe`` messages as a trailing element."""
        if kind == "frame":
            pending = self._pending[worker]
            if pending or not self._push_frame(worker, seq, payload,
                                               deadline, ctx):
                pending.append((seq, payload, ctx))
                self.parked_frames += 1
            self._drain_pending(worker, deadline=deadline, block=(
                not lazy or len(pending) > _PENDING_LIMIT))
            return
        # Queue-carried frames keep FIFO order with any parked ones.
        self._drain_pending(worker, deadline=deadline)
        self.frames_shipped += 1
        self.bytes_shipped += len(payload)
        msg = (("oframe", seq, payload) if ctx is None
               else ("oframe", seq, payload, ctx))
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
        """Replay path: redeliver one journaled frame, its bytes
        unchanged, to the fresh incarnation."""
        self._deliver(worker, self._wire_kind(worker, entry.payload), seq,
                      entry.payload, deadline=self._op_deadline(),
                      lazy=False, ctx=entry.ctx)

    def _post_request(self, worker: int, msg: tuple,
                      journal: bool = False, ctx=None):
        """A request's first half: journal it (when ``journal``) and put
        it on the wire — a batch (``(kind, frame bytes)``) through
        :meth:`_deliver`, anything else through :meth:`_post_control`.
        Returns its journal seq and the post's failure, if any.  Under
        supervision the worker must be alive and the post is bounded by
        the op deadline; without, nothing is journaled, the post waits
        as long as the worker lives and a failure raises here.

        Journal before posting: once recorded, a message is delivered
        exactly once — by this post or by the replay a failure triggers
        (recovery rebuilds the worker from the journal, so there is no
        re-post of a journaled message)."""
        sup = self.supervisor
        seq = deadline = None
        try:
            if sup is not None:
                if journal:
                    seq = sup.record(worker, msg[0], msg[1] if len(msg) > 1
                                     else None, msg[0] not in _ASYNC_KINDS,
                                     ctx)
                w = self._workers[worker]
                if not w.is_alive():
                    raise WorkerDied(f"{w.name} (pid {w.pid}) is dead",
                                     worker=worker, pid=w.pid)
                deadline = self._op_deadline()
            if msg[0] in _BATCH_KINDS:
                self._deliver(worker, msg[0], seq, msg[1],
                              deadline=deadline, ctx=ctx)
            else:
                self._post_control(worker, msg, deadline=deadline)
        except ExecutorError as exc:
            if sup is None:
                raise
            return seq, exc
        return seq, None

    def _await(self, worker: int, msg: tuple, seq, error):
        """The second half: the reply (None for a message the worker
        does not answer), restarting the worker (and, for an unjournaled
        request, asking again) while it fails.  Unsupervised, the
        reply waits without a deadline and a failure raises."""
        sup = self.supervisor
        replies = msg[0] not in _ASYNC_KINDS
        if sup is None:
            return self._workers[worker].reply() if replies else None
        attempts = 0
        while True:
            if error is None:
                if not replies:
                    return None
                try:
                    return self._workers[worker].reply(
                        deadline=self._op_deadline())
                except ExecutorError as exc:
                    error = exc
            attempts += 1
            if attempts > MAX_RESTARTS:
                raise error
            captured = sup.recover(worker, error, capture_seq=seq)
            if seq is not None or not replies:
                # Replay already delivered a journaled request to the
                # fresh incarnation (its reply is the answer); an
                # unanswered one needs no second post.
                return captured
            error = self._post_request(worker, msg)[1]

    def _broadcast(self, msg: tuple, journal: bool = False) -> list:
        """One request to every worker, pipelined: all posts before any
        reply, so the workers serve it in parallel.  Under supervision
        each worker's failure is recovered on its own."""
        posted = [self._post_request(w, msg, journal)
                  for w in range(self.n_workers)]
        return [self._await(w, msg, *p) for w, p in enumerate(posted)]

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
        fresh, ring = self._pool.respawn(worker)
        self._workers[worker] = fresh
        self._rings[worker] = ring
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
        msg = ("chaos_stall", float(seconds))
        self._await(worker, msg, *self._post_request(worker, msg))

    def chaos_slow_worker(self, worker: int, factor: float) -> None:
        """Chaos hook: multiply one worker's per-batch compute time by
        ``factor`` (1.0 restores full speed).  Process backend only."""
        self._check_worker(worker)
        if self._pool is None:
            raise RuntimeError(
                "worker_slow chaos needs a process worker "
                "(backend='process')")
        msg = ("chaos_slow", float(factor))
        self._slow_factors[worker] = msg[1]
        self._await(worker, msg, *self._post_request(worker, msg))

    # -- failover (serial-cluster semantics) ---------------------------------

    def _crash(self, nic: int) -> tuple:
        """The crash request rides the owner's FIFO behind every event
        dispatched before it, so the engine answers with the mirror and
        residual the serial engine would hold.  Journaled: a restart's
        replay crashes the rebuilt engine too and its reply stands."""
        msg = ("crash", nic)
        worker = self._owner[nic]
        return self._await(worker, msg, *self._post_request(worker, msg,
                                                            journal=True))

    # -- drain / merge --------------------------------------------------------

    def finalize(self) -> list[FeatureVector]:
        if self._closed:
            return list(self._final_vectors or [])
        start = (time.perf_counter_ns()
                 if self._t_tracer is not None or self._trace else 0)
        by_shard = self._gather(("finalize",))
        vectors: list[FeatureVector] = []
        for shard in range(self.n_nics):
            vectors.extend(_unpack_vectors(by_shard.get(shard, [])))
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
            new.extend(_unpack_vectors(by_shard.get(shard, [])))
        return new

    def advance_clock(self, now_ns: int) -> None:
        if self._closed:
            return
        self._broadcast(("clock", now_ns), journal=True)

    def close(self) -> None:
        """Stop the pool.  Terminal: stats/counters/finalize keep
        serving the last fetched state; consume_batch raises.  Idempotent and
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
                self.telemetry_snapshots()
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
                        {s: n for s, n in enumerate(
                            self._shard_events.tolist()) if n})
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

    def _fetch_stats(self) -> dict[int, tuple]:
        if not self._closed:
            self._stats_cache = self._gather(("stats",))
        return self._stats_cache

    @property
    def engines(self) -> list[_ShardEngineProxy]:
        return [_ShardEngineProxy(self, shard)
                for shard in range(self.n_nics)]

    def _engine_stats(self) -> list[EngineStats]:
        stats = self._fetch_stats()
        return [stats[s][0] for s in range(self.n_nics)]

    def transport_report(self) -> dict:
        """How dispatch batches actually crossed the worker boundary:
        the resolved mode, frame/byte ledger, fallback counts, and (for
        shm) live ring occupancy — the observable proof of the
        zero-copy claim (``queue_message_kinds`` shows only pointer and
        control messages on the shm hot path)."""
        kinds: dict[str, int] = {}
        for worker in self._workers:
            for kind, count in worker.kind_counts.items():
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
            report["ring_bytes"] = RING_BYTES
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
        workers = [{"worker": index, "shards": list(worker.shards),
                    "pid": worker.pid,
                    "alive": worker.is_alive() and not self._closed}
                   for index, worker in enumerate(self._workers)]
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
