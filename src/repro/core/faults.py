"""Scripted fault injection for the dataplane graph (chaos schedules).

Production deployments of the split pipeline face faults the functional
simulators can script deterministically: loss bursts on the switch→NIC
record channel, SmartNIC death and restart, MGPV long-buffer pressure,
and queue-capacity clamps.  A :class:`FaultPlan` is an ordered, seeded
schedule of :class:`FaultAction` entries keyed by packet index; a
:class:`FaultInjector` attaches the plan to one
:class:`~repro.core.dataplane.Dataplane` and applies/reverts each action
as the packet stream crosses its window.

The faults exercise the recovery machinery that lives in the stages
themselves: link sequence gaps trigger the bounded retransmit loop of
:class:`~repro.core.dataplane.SwitchNICLink`, NIC death triggers
consistent-hash failover in :class:`~repro.nicsim.loadbalance.NICCluster`
(FG-mirror resync + residual-state demotion), and unrecoverable sync
loss demotes cells to degraded coarse-granularity vectors in
:class:`~repro.nicsim.engine.FeatureEngine`.  Everything is seeded: the
same plan over the same trace faults the identical set of messages.

The ``worker_*`` kinds are different in nature: they hit the *real*
executor processes (SIGKILL, FIFO stall, compute slowdown) rather than a
simulated component, and exercise the
:class:`~repro.core.parallel.ShardSupervisor` deadline → restart →
replay path deterministically from a chaos schedule.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.core import flightrec

#: Action kinds that may carry an ``until_packet`` window (reverted when
#: the stream reaches it); the rest are one-shot.
WINDOWED_KINDS = ("link_loss", "mgpv_squeeze", "queue_clamp",
                  "worker_slow")
ONESHOT_KINDS = ("nic_kill", "nic_restart", "worker_crash",
                 "worker_stall")
FAULT_KINDS = WINDOWED_KINDS + ONESHOT_KINDS

#: Kinds that target a real executor worker (SIGKILL / FIFO stall /
#: compute slowdown) rather than a simulated dataplane component.
WORKER_KINDS = ("worker_crash", "worker_stall", "worker_slow")


class FaultPlanError(ValueError):
    """A fault plan is malformed or incompatible with the dataplane."""


@dataclass(frozen=True)
class FaultAction:
    """One scripted fault.

    ``at_packet`` is the 0-based packet index the fault applies before;
    windowed kinds revert before packet ``until_packet`` (``None`` keeps
    them applied to end of stream).

    Kinds and their knobs:

    - ``link_loss`` — loss burst on the switch→NIC channel: ``rate`` in
      [0, 1], ``drop_kind`` in ``any | sync | record``;
    - ``nic_kill`` / ``nic_restart`` — kill or restart cluster NIC
      ``nic`` (requires ``n_nics > 1``);
    - ``mgpv_squeeze`` — clamp the cache's usable long buffers to
      ``keep_fraction`` of the configured pool (buffer pressure);
    - ``queue_clamp`` — clamp the link queue to ``capacity`` records
      (backpressure drops);
    - ``worker_crash`` — SIGKILL executor worker ``worker`` (requires
      the supervised process backend; recovery = restart + replay);
    - ``worker_stall`` — make worker ``worker`` sleep ``seconds`` on
      its FIFO (trips the request deadline; supervised process backend);
    - ``worker_slow`` — multiply worker ``worker``'s per-batch compute
      time by ``factor`` (windowed: reverts to full speed).
    """

    kind: str
    at_packet: int
    until_packet: int | None = None
    rate: float = 0.0
    drop_kind: str = "any"
    nic: int = 0
    keep_fraction: float = 0.0
    capacity: int = 1
    worker: int = 0
    seconds: float = 1.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; have "
                f"{sorted(FAULT_KINDS)}")
        if self.at_packet < 0:
            raise FaultPlanError(
                f"at_packet must be >= 0, got {self.at_packet}")
        if self.until_packet is not None:
            if self.kind in ONESHOT_KINDS:
                raise FaultPlanError(
                    f"{self.kind} is one-shot; until_packet is invalid")
            if self.until_packet <= self.at_packet:
                raise FaultPlanError(
                    f"until_packet ({self.until_packet}) must be > "
                    f"at_packet ({self.at_packet})")
        if self.kind == "link_loss":
            if not 0.0 <= self.rate <= 1.0:
                raise FaultPlanError(
                    f"link_loss rate must be in [0, 1], got {self.rate}")
            if self.drop_kind not in ("any", "sync", "record"):
                raise FaultPlanError(
                    f"unknown drop_kind {self.drop_kind!r}")
        if self.kind in ("nic_kill", "nic_restart") and self.nic < 0:
            raise FaultPlanError(f"nic must be >= 0, got {self.nic}")
        if self.kind == "mgpv_squeeze" \
                and not 0.0 <= self.keep_fraction <= 1.0:
            raise FaultPlanError(
                f"keep_fraction must be in [0, 1], "
                f"got {self.keep_fraction}")
        if self.kind == "queue_clamp" and self.capacity < 1:
            raise FaultPlanError(
                f"queue_clamp capacity must be >= 1, got {self.capacity}")
        if self.kind in WORKER_KINDS and self.worker < 0:
            raise FaultPlanError(f"worker must be >= 0, got {self.worker}")
        if self.kind == "worker_stall" and self.seconds <= 0:
            raise FaultPlanError(
                f"worker_stall seconds must be > 0, got {self.seconds}")
        if self.kind == "worker_slow" and self.factor < 1.0:
            raise FaultPlanError(
                f"worker_slow factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered chaos schedule."""

    actions: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        if self.seed < 0:
            raise FaultPlanError(f"seed must be >= 0, got {self.seed}")
        for action in self.actions:
            if not isinstance(action, FaultAction):
                raise FaultPlanError(
                    f"actions must be FaultAction, got {action!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, "
                                 f"got {type(data).__name__}")
        raw_actions = data.get("actions", [])
        if not isinstance(raw_actions, list):
            raise FaultPlanError("'actions' must be a list")
        known = {f for f in FaultAction.__dataclass_fields__}
        actions = []
        for i, raw in enumerate(raw_actions):
            if not isinstance(raw, dict):
                raise FaultPlanError(f"actions[{i}] must be an object")
            unknown = set(raw) - known
            if unknown:
                raise FaultPlanError(
                    f"actions[{i}] has unknown keys {sorted(unknown)}")
            try:
                actions.append(FaultAction(**raw))
            except TypeError as exc:
                raise FaultPlanError(f"actions[{i}]: {exc}") from None
        return cls(actions=tuple(actions), seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FaultPlanError(f"{path}: invalid JSON "
                                     f"({exc})") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "actions": [asdict(a) for a in self.actions]}


class FaultInjector:
    """Applies one :class:`FaultPlan` to one dataplane graph.

    The injector is itself observable: it exports per-kind applied and
    reverted counts through the uniform ``counters()`` convention, so a
    chaos run's schedule shows up next to the recovery counters it
    provoked.
    """

    name = "faults"

    def __init__(self, plan: FaultPlan, dataplane) -> None:
        self.plan = plan
        self.dataplane = dataplane
        self._validate_targets()
        # Each action gets a stable index so its loss process is seeded
        # independently of schedule order changes elsewhere in the plan.
        indexed = list(enumerate(plan.actions))
        self._starts = sorted(indexed, key=lambda ia: ia[1].at_packet)
        self._ends = sorted(
            ((ia[1].until_packet, ia) for ia in indexed
             if ia[1].until_packet is not None),
            key=lambda e: e[0])
        self._start_i = 0
        self._end_i = 0
        self.applied: dict[str, int] = {}
        self.reverted: dict[str, int] = {}

    def attach_telemetry(self, telemetry) -> None:
        """Count the applied/reverted ledger in the typed registry so
        chaos runs show injections next to the recovery metrics."""
        reg = telemetry.registry
        reg.counter_source("faults.applied",
                           lambda: sum(self.applied.values()))
        reg.counter_source("faults.reverted",
                           lambda: sum(self.reverted.values()))

    def _validate_targets(self) -> None:
        needs_cluster = any(a.kind in ("nic_kill", "nic_restart")
                            for a in self.plan.actions)
        if needs_cluster and self.dataplane.cluster is None:
            raise FaultPlanError(
                "nic_kill/nic_restart need a NIC cluster sink "
                "(build the dataplane with n_nics > 1)")
        needs_cache = any(a.kind == "mgpv_squeeze"
                          for a in self.plan.actions)
        if needs_cache and self.dataplane.cache is None:
            raise FaultPlanError(
                "mgpv_squeeze needs the hardware MGPV path "
                "(not the software baseline)")
        if needs_cluster:
            n = self.dataplane.cluster.n_nics
            for a in self.plan.actions:
                if a.kind in ("nic_kill", "nic_restart") and a.nic >= n:
                    raise FaultPlanError(
                        f"{a.kind} targets NIC {a.nic} but the cluster "
                        f"has {n}")
        worker_actions = [a for a in self.plan.actions
                          if a.kind in WORKER_KINDS]
        if worker_actions:
            cluster = self.dataplane.cluster
            if cluster is None or not hasattr(cluster,
                                              "chaos_crash_worker"):
                raise FaultPlanError(
                    "worker_crash/worker_stall/worker_slow target real "
                    "executor workers — build the dataplane with "
                    "n_nics > 1 and a parallel ExecutionConfig")
            for a in worker_actions:
                if a.worker >= cluster.n_workers:
                    raise FaultPlanError(
                        f"{a.kind} targets worker {a.worker} but the "
                        f"pool has {cluster.n_workers}")
                if (a.kind in ("worker_crash", "worker_stall")
                        and getattr(cluster, "supervisor", None) is None):
                    raise FaultPlanError(
                        f"{a.kind} needs the supervised process backend "
                        f"(backend='process' with supervision on): only "
                        f"a supervised worker can be restarted")

    # -- schedule --------------------------------------------------------------

    def next_index(self) -> int | None:
        """The packet index of the next pending start or revert (None
        once the schedule is spent): where the dataplane cuts a batch."""
        due = []
        if self._start_i < len(self._starts):
            due.append(self._starts[self._start_i][1].at_packet)
        if self._end_i < len(self._ends):
            due.append(self._ends[self._end_i][0])
        return min(due, default=None)

    def on_packet(self, pkt_index: int) -> None:
        """Advance the schedule to ``pkt_index`` (called by the
        dataplane before the batch piece that starts at that packet)."""
        while self._end_i < len(self._ends) \
                and self._ends[self._end_i][0] <= pkt_index:
            _, (idx, action) = self._ends[self._end_i]
            self._end_i += 1
            self._revert(action)
        while self._start_i < len(self._starts) \
                and self._starts[self._start_i][1].at_packet <= pkt_index:
            idx, action = self._starts[self._start_i]
            self._start_i += 1
            self._apply(idx, action)

    def _apply(self, idx: int, action: FaultAction) -> None:
        # Recorded before the action lands so the blame path sees the
        # injected fault even when the action is the thing that kills
        # the process it would have been recorded in.
        flightrec.record("fault.applied", fault=action.kind, index=idx,
                         at_packet=action.at_packet, worker=action.worker,
                         nic=action.nic)
        dp = self.dataplane
        if action.kind == "link_loss":
            dp.link.set_fault_loss(action.rate, action.drop_kind,
                                   seed=(self.plan.seed, idx))
        elif action.kind == "nic_kill":
            dp.cluster.fail_nic(action.nic)
        elif action.kind == "nic_restart":
            dp.cluster.restore_nic(action.nic)
        elif action.kind == "mgpv_squeeze":
            dp.cache.squeeze_long_buffers(action.keep_fraction)
        elif action.kind == "queue_clamp":
            dp.link.clamp_capacity(action.capacity)
        elif action.kind == "worker_crash":
            dp.cluster.chaos_crash_worker(action.worker)
        elif action.kind == "worker_stall":
            dp.cluster.chaos_stall_worker(action.worker, action.seconds)
        elif action.kind == "worker_slow":
            dp.cluster.chaos_slow_worker(action.worker, action.factor)
        self.applied[action.kind] = self.applied.get(action.kind, 0) + 1

    def _revert(self, action: FaultAction) -> None:
        flightrec.record("fault.reverted", fault=action.kind,
                         worker=action.worker, nic=action.nic)
        dp = self.dataplane
        if action.kind == "link_loss":
            dp.link.clear_fault_loss()
        elif action.kind == "mgpv_squeeze":
            dp.cache.release_long_buffers()
        elif action.kind == "queue_clamp":
            dp.link.clamp_capacity(None)
        elif action.kind == "worker_slow":
            dp.cluster.chaos_slow_worker(action.worker, 1.0)
        self.reverted[action.kind] = self.reverted.get(action.kind, 0) + 1

    # -- observability ---------------------------------------------------------

    def counters(self) -> dict:
        return {
            "actions_total": len(self.plan.actions),
            "actions_applied": sum(self.applied.values()),
            "actions_reverted": sum(self.reverted.values()),
            "applied": dict(self.applied),
            "reverted": dict(self.reverted),
        }
