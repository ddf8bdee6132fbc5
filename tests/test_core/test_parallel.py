"""Shard-parallel executor internals: ExecutionConfig validation and
env resolution, and ShardedCluster mechanics (routing, dispatch ledger,
mixed-value frames, failover guards, close semantics)."""

import pytest

import repro.api as api
from repro.core.compiler import PolicyCompiler
from repro.core.parallel import (
    BACKENDS,
    DEFAULT_REQUEST_TIMEOUT_S,
    DISPATCH_BATCH,
    MAX_RESTARTS,
    POISON_THRESHOLD,
    RING_BYTES,
    ExecutionConfig,
    ExecutorError,
    ShardedCluster,
    WorkerDied,
    WorkerStalled,
)
from repro.core.policy import pktstream
from repro.core.telemetry import (
    MAX_SPANS,
    MetricsRegistry,
    TelemetryConfig,
    Tracer,
)
from repro.net.trace import generate_trace


def flow_policy():
    return (pktstream().groupby("flow")
            .reduce("size", ["f_sum", "f_max"]).collect("flow"))


def make_cluster(n_nics=3, workers=2, backend="serial"):
    compiled = PolicyCompiler().compile(flow_policy())
    return ShardedCluster(
        compiled, n_nics,
        ExecutionConfig(workers=workers, backend=backend))


#: Each keyword that was a setting outside ``ExecutionConfig`` (whose
#: four are in ``test_count_knobs_must_be_plain_ints``) before its value
#: became a module constant, with a call that passes it.
REMOVED_SETTINGS = {
    "TelemetryConfig.max_spans": lambda: TelemetryConfig(max_spans=64),
    "Tracer.max_spans": lambda: Tracer(MetricsRegistry(), max_spans=2),
    "Extractor.stream.degrade_stride": lambda: api.compile(
        flow_policy()).stream([], degrade_stride=4),
}


@pytest.mark.parametrize("setting", sorted(REMOVED_SETTINGS))
def test_removed_setting_raises_type_error(setting):
    keyword = setting.rsplit(".", 1)[1]
    with pytest.raises(TypeError,
                       match=f"unexpected keyword argument '{keyword}'"):
        REMOVED_SETTINGS[setting]()


def test_removed_settings_keep_their_values_as_constants():
    assert (DISPATCH_BATCH, RING_BYTES, MAX_RESTARTS, POISON_THRESHOLD,
            MAX_SPANS, api.DEGRADE_STRIDE) == (1024, 4 << 20, 5, 3,
                                              10_000, 8)
    assert len(ExecutionConfig.__dataclass_fields__) == 5


class TestExecutionConfig:
    def test_defaults_serial(self):
        cfg = ExecutionConfig()
        assert cfg.workers == 1
        assert cfg.backend == "serial"
        assert not cfg.is_parallel

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_known_backends(self, backend):
        cfg = ExecutionConfig(backend=backend, workers=2)
        assert cfg.is_parallel == (backend != "serial")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionConfig(backend="gpu")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)

    def test_nonpositive_batch_rejected(self):
        with pytest.raises(TypeError, match="'dispatch_batch'"):
            ExecutionConfig(dispatch_batch=0)

    def test_from_env_unset(self, monkeypatch):
        monkeypatch.delenv("SUPERFE_EXEC_BACKEND", raising=False)
        assert ExecutionConfig.from_env() is None

    def test_from_env_backend_and_workers(self, monkeypatch):
        monkeypatch.setenv("SUPERFE_EXEC_BACKEND", "process")
        monkeypatch.setenv("SUPERFE_EXEC_WORKERS", "3")
        cfg = ExecutionConfig.from_env()
        assert cfg.backend == "process"
        assert cfg.workers == 3

    def test_from_env_removed_thread_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionConfig.from_env({"SUPERFE_EXEC_BACKEND": "thread"})

    @pytest.mark.parametrize("raw", ["", "0", " 0 "])
    def test_from_env_workers_default_to_cpu_count(self, raw):
        import os
        cfg = ExecutionConfig.from_env({"SUPERFE_EXEC_BACKEND": "process",
                                        "SUPERFE_EXEC_WORKERS": raw})
        assert cfg.workers == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["-3", "abc", "2.5"])
    def test_from_env_bad_workers_name_the_variable(self, raw):
        with pytest.raises(ValueError, match="SUPERFE_EXEC_WORKERS"):
            ExecutionConfig.from_env({"SUPERFE_EXEC_BACKEND": "process",
                                      "SUPERFE_EXEC_WORKERS": raw})

    @pytest.mark.parametrize("field", ["workers", "dispatch_batch",
                                       "max_restarts", "poison_threshold",
                                       "ring_bytes"])
    @pytest.mark.parametrize("value", [2.5, True, "4"])
    def test_count_knobs_must_be_plain_ints(self, field, value):
        """``workers`` is the one count a config sets; the others are
        module constants, so the config takes no value for them."""
        error = (f"{field} must be an int" if field == "workers"
                 else f"unexpected keyword argument '{field}'")
        with pytest.raises(TypeError, match=error):
            ExecutionConfig(**{field: value})

    def test_from_env_serial(self, monkeypatch):
        monkeypatch.setenv("SUPERFE_EXEC_BACKEND", "serial")
        monkeypatch.delenv("SUPERFE_EXEC_WORKERS", raising=False)
        cfg = ExecutionConfig.from_env()
        assert cfg is not None and not cfg.is_parallel


class TestSupervisionConfig:
    def test_supervise_defaults_to_process_backend(self):
        assert ExecutionConfig(backend="process", workers=2).supervised
        assert not ExecutionConfig(backend="serial", workers=2).supervised
        assert not ExecutionConfig().supervised

    def test_supervise_opt_out(self):
        cfg = ExecutionConfig(backend="process", workers=2,
                              supervise=False)
        assert not cfg.supervised

    def test_supervise_requires_process_backend(self):
        with pytest.raises(ValueError, match="backend='process'"):
            ExecutionConfig(backend="serial", workers=2, supervise=True)

    def test_robustness_knobs_validated(self):
        with pytest.raises(ValueError, match="request_timeout_s"):
            ExecutionConfig(request_timeout_s=0)
        with pytest.raises(ValueError, match="request_timeout_s"):
            ExecutionConfig(request_timeout_s=-3)

    def test_resolved_timeout_field_beats_env(self, monkeypatch):
        monkeypatch.setenv("SUPERFE_REQUEST_TIMEOUT_S", "1")
        cfg = ExecutionConfig(request_timeout_s=7.5)
        assert cfg.resolved_timeout_s() == 7.5

    @pytest.mark.parametrize("raw", ["2.5", "soon", "-3"])
    def test_resolved_timeout_ignores_env(self, monkeypatch, raw):
        """The deadline is ``request_timeout_s`` or the default: the
        environment neither changes nor breaks it."""
        monkeypatch.setenv("SUPERFE_REQUEST_TIMEOUT_S", raw)
        assert (ExecutionConfig().resolved_timeout_s()
                == DEFAULT_REQUEST_TIMEOUT_S)

    def test_resolved_timeout_default(self, monkeypatch):
        monkeypatch.delenv("SUPERFE_REQUEST_TIMEOUT_S", raising=False)
        assert (ExecutionConfig().resolved_timeout_s()
                == DEFAULT_REQUEST_TIMEOUT_S)


class TestExecutorError:
    def test_blame_fields(self):
        exc = ExecutorError("engine exploded", worker=1, shards=(1, 3),
                            pid=4242, kind="frame", seq=7)
        assert isinstance(exc, RuntimeError)
        assert exc.worker == 1
        assert exc.shards == (1, 3)
        assert exc.pid == 4242
        assert exc.kind == "frame"
        assert exc.seq == 7

    def test_fields_default_none(self):
        exc = WorkerDied("gone")
        assert exc.worker is None and exc.seq is None
        assert isinstance(exc, ExecutorError)
        assert isinstance(WorkerStalled("late"), ExecutorError)

    def test_no_fork_hint_names_alternatives(self, monkeypatch):
        import multiprocessing as mp

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(mp, "get_context", no_fork)
        with pytest.raises(ExecutorError,
                           match="did you mean backend='serial'"):
            make_cluster(backend="process")


class TestShardedCluster:
    @pytest.fixture(autouse=True)
    def small_frames(self, tuned):
        tuned(DISPATCH_BATCH=8)

    def test_shard_ownership_partitions_workers(self):
        cluster = make_cluster(n_nics=5, workers=2)
        try:
            owners = {cluster._owner[shard] for shard in range(5)}
            assert owners == {0, 1}
        finally:
            cluster.close()

    def test_workers_capped_at_shards(self):
        cluster = make_cluster(n_nics=2, workers=8)
        try:
            assert cluster.n_workers == 2
        finally:
            cluster.close()

    def test_dispatch_ledger_counts_batches(self):
        cluster = make_cluster()
        try:
            from repro.switchsim.mgpv import MGPVRecord
            packets = generate_trace("ENTERPRISE", n_flows=40, seed=3)
            for i, pkt in enumerate(packets[:64]):
                key = (i % 7,)
                cluster.consume_batch([MGPVRecord(
                    cg_key=key, cg_hash32=hash(key) & 0xFFFFFFFF,
                    cells=((0, (float(pkt.size),)),), reason="evict")])
            assert cluster.events_dispatched == 64
            assert cluster.batches_dispatched >= 64 // 8
            assert cluster.health()["backend"] == "serial"
        finally:
            cluster.close()

    def test_mixed_cells_ship_as_counted_frames(self):
        """Hand-fed cells mixing ints and floats are an object metadata
        column: every frame ships it in its pickled section, counted in
        ``fallback_chunks`` — no other message kind — and the vectors
        equal the serial cluster's bit for bit."""
        from repro.bench.parallel import vectors_checksum
        from repro.nicsim.loadbalance import NICCluster
        from repro.switchsim.mgpv import MGPVRecord
        events = []
        for i in range(48):
            key = (i % 5,)
            size = float(i) + 0.25 if 16 <= i < 24 else i
            events.append(MGPVRecord(
                cg_key=key, cg_hash32=hash(key) & 0xFFFFFFFF,
                cells=((0, (size,)), (0, (i + 1,))), reason="evict"))
        compiled = PolicyCompiler().compile(flow_policy())
        serial = NICCluster(compiled, 3).run(events)
        cluster = make_cluster(n_nics=3, workers=1)
        try:
            cluster.consume_batch(events)
            vectors = cluster.finalize()
            report = cluster.transport_report()
            assert report["frames"] == cluster.batches_dispatched >= 6
            assert report["fallback_chunks"] == report["frames"]
        finally:
            cluster.close()
        assert vectors
        assert vectors_checksum(vectors) \
            == vectors_checksum(serial.finalize())

    def test_fail_guard_messages(self):
        cluster = make_cluster(n_nics=2)
        try:
            with pytest.raises(ValueError, match="no NIC 7"):
                cluster.fail_nic(7)
            cluster.fail_nic(0)
            with pytest.raises(ValueError, match="already dead"):
                cluster.fail_nic(0)
            with pytest.raises(ValueError, match="last live NIC"):
                cluster.fail_nic(1)
        finally:
            cluster.close()

    def test_close_is_terminal_but_readable(self):
        cluster = make_cluster()
        cluster.finalize()
        cluster.close()
        # Cached state stays readable ...
        assert cluster.counters()["vectors_emitted"] == 0
        assert cluster.finalize() == []
        # ... but the data path is gone.
        from repro.switchsim.mgpv import FGSync
        with pytest.raises(RuntimeError, match="closed"):
            cluster.consume_batch([FGSync(index=0, key=(1,))])

    def test_spawn_only_platforms_rejected(self, monkeypatch):
        import multiprocessing as mp

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(mp, "get_context", no_fork)
        with pytest.raises(RuntimeError, match="fork"):
            make_cluster(backend="process")

    def test_close_idempotent(self):
        cluster = make_cluster()
        cluster.close()
        cluster.close()        # second close is a no-op, not an error
        assert cluster.health()["closed"]

    def test_close_does_not_hang_on_dead_worker(self):
        """Satellite 1: stop() must bound its join and escalate, so a
        SIGKILLed (unsupervised) worker cannot hang close()."""
        import os
        import signal
        import time

        compiled = PolicyCompiler().compile(flow_policy())
        cluster = ShardedCluster(
            compiled, 2,
            ExecutionConfig(workers=2, backend="process",
                            supervise=False))
        try:
            victim = cluster._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim._handle.join(timeout=5.0)
            assert not victim.is_alive()
        finally:
            start = time.monotonic()
            cluster.close()
            assert time.monotonic() - start < 30.0
        cluster.close()        # and stays idempotent afterwards

    def test_health_reports_workers_and_supervision(self):
        cluster = make_cluster(n_nics=3, workers=2)
        try:
            health = cluster.health()
            assert health["backend"] == "serial"
            assert health["n_workers"] == 2
            assert [w["worker"] for w in health["workers"]] == [0, 1]
            assert all(w["alive"] for w in health["workers"])
            # Serial backend: no supervisor.
            assert health["supervision"] is None
        finally:
            cluster.close()
        assert not any(w["alive"] for w in cluster.health()["workers"])


def switch_events():
    """A switch run's events over 4 NICs' worth of flows (many syncs)."""
    from repro.net.packet import PacketBatch
    from repro.switchsim.mgpv import MGPVCache
    compiled = PolicyCompiler().compile(flow_policy())
    cache = MGPVCache(compiled.cg, compiled.fg,
                      metadata_fields=compiled.metadata_fields)
    packets = generate_trace("ENTERPRISE", n_flows=120, seed=5)
    return compiled, (cache.insert_batch(PacketBatch.from_packets(packets))
                      + cache.flush())


def capture_replays(cluster) -> list:
    """Record every mirror ``cluster`` replays on failover."""
    replays = []
    replay = cluster._replay_mirror

    def spy(mirror):
        replays.append(list(mirror))
        replay(replays[-1])
    cluster._replay_mirror = spy
    return replays


@pytest.mark.parametrize("kind", ["serial", "inline", "process"])
def test_failover_replays_the_dead_engines_own_mirror(kind):
    """``fail_nic`` replays exactly what the dead engine held — its
    ``fg_mirror_items()``, in FG-index order — on every cluster, and the
    drains agree."""
    from repro.bench.parallel import vectors_checksum
    from repro.nicsim.loadbalance import NICCluster
    compiled, events = switch_events()
    reference = NICCluster(compiled, 4)
    reference.consume_batch(events)
    want = list(reference.engines[1].fg_mirror_items())
    assert len(want) > 1
    assert [index for index, _ in want] == sorted(i for i, _ in want)
    reference.fail_nic(1)
    if kind == "serial":
        cluster = NICCluster(compiled, 4)
    else:
        backend = "process" if kind == "process" else "serial"
        cluster = ShardedCluster(compiled, 4, ExecutionConfig(
            workers=2, backend=backend))
    try:
        replays = capture_replays(cluster)
        cluster.consume_batch(events)
        cluster.fail_nic(1)
        assert replays == [want]
        assert cluster.counters() == reference.counters()
        assert (vectors_checksum(cluster.finalize())
                == vectors_checksum(reference.finalize()))
    finally:
        if kind != "serial":
            cluster.close()


def test_failover_after_quarantine_replays_what_the_engine_holds(tuned):
    """A quarantined batch's sync never reaches the engine (replay skips
    the batch), so a later ``nic_kill`` on its shard replays only the
    syncs of the batches the engine applied."""
    from repro.switchsim.mgpv import FGSync, MGPVRecord
    # f_mean fails on the poison cell at consume time, inside its batch.
    policy = (pktstream().groupby("flow")
              .reduce("size", ["f_mean"]).collect("flow"))
    compiled = PolicyCompiler().compile(policy)
    tuned(POISON_THRESHOLD=2)
    cluster = ShardedCluster(compiled, 2, ExecutionConfig(
        workers=2, backend="process", request_timeout_s=5.0))
    try:
        replays = capture_replays(cluster)
        kept = FGSync(3, (10, 20, 1, 2, 6), owner_hash=0)
        lost = FGSync(5, (11, 21, 1, 2, 6), owner_hash=0)
        cluster.consume_batch([kept, MGPVRecord(
            cg_key=(7,), cg_hash32=0, cells=((0, (1.0,)),),
            reason="evict")])
        cluster.consume_batch([lost, MGPVRecord(
            cg_key=("poison",), cg_hash32=0, cells=((0, ("boom",)),),
            reason="evict")])
        cluster.fail_nic(0)
        assert replays == [[(3, kept.key)]]
        supervision = cluster.health()["supervision"]
        assert [p["events"] for p in supervision["poison_batches"]] == [2]
        assert cluster.counters()["fg_resyncs"] == 1
    finally:
        cluster.close()
