"""Link retransmission: bounded retries with exponential backoff,
recovery accounting, seeded determinism, and the exact orphan oracle."""

import numpy as np
import pytest

import repro.api as api
from repro.core.dataplane import Dataplane, LinkConfig, SwitchNICLink
from repro.core.faults import FaultAction, FaultPlan
from repro.switchsim.mgpv import FGSync, MGPVRecord

pytestmark = pytest.mark.chaos


class _StaticFGTable:
    """Switch-side FG-key table stub for driving a bare link stage."""

    def __init__(self, entries):
        self._entries = dict(entries)

    def fg_entry(self, index):
        return self._entries.get(index)


class TestBoundedRetries:
    def test_retries_respect_max_and_backoff(self):
        """With the channel fully lossy, one lost sync costs exactly
        ``retransmit_retries`` requests and the 1x+2x+4x backoff."""
        from repro.switchsim.mgpv import MGPVConfig
        cfg = LinkConfig(retransmit_retries=3,
                         retransmit_backoff_ns=100.0,
                         retransmit_request_bytes=8)
        link = SwitchNICLink(MGPVConfig(), cfg)
        link.attach_fg_source(_StaticFGTable({0: ("k",)}))
        link.set_fault_loss(1.0, "sync", seed=5)

        busy_before = link.busy_ns
        assert link.consume(FGSync(0, ("k",))) == ()
        assert link.drops_fault == 1
        assert link.retransmit_requests == 3
        assert link.retransmits_exhausted == 1
        assert link.retransmits_ok == 0
        assert link.retransmit_backoff_ns == 100.0 + 200.0 + 400.0
        assert link.busy_ns - busy_before == pytest.approx(700.0)
        assert link.retransmit_bytes == 3 * 8

        # The gap is observed at the next delivery (records pass a
        # sync-only fault).
        record = MGPVRecord(cg_key=("k",), cg_hash32=0,
                            cells=((0, (1, 2)),), reason="test")
        delivered = link.consume(record)
        assert delivered == (record,)
        assert link.gaps_detected == 1
        assert link.seqs_lost == 1

    def test_no_recovery_without_fg_source_match(self):
        from repro.switchsim.mgpv import MGPVConfig
        cfg = LinkConfig(retransmit_retries=3)
        link = SwitchNICLink(MGPVConfig(), cfg)
        link.attach_fg_source(_StaticFGTable({0: ("other",)}))
        link.set_fault_loss(1.0, "sync", seed=5)
        assert link.consume(FGSync(0, ("k",))) == ()
        # Stale slot: the switch table no longer holds this key, so no
        # retransmit request is even issued.
        assert link.retransmit_requests == 0
        assert link.retransmits_exhausted == 0

    def test_batch_walk_checks_the_table_for_hand_fed_lists(self):
        """``consume_batch`` twin of the stale-slot case: a plain event
        list meets the table as it stands (no request), while an
        :class:`EventBatch` is taken as just emitted by the switch,
        whose table held the sync's key at its stream position."""
        from repro.switchsim.mgpv import EventBatch, MGPVConfig

        def link():
            stage = SwitchNICLink(MGPVConfig(),
                                  LinkConfig(retransmit_retries=3))
            stage.attach_fg_source(_StaticFGTable({0: ("other",)}))
            stage.set_fault_loss(1.0, "sync", seed=5)
            return stage

        listed = link()
        assert listed.consume_batch([FGSync(0, ("k",))]) == []
        assert listed.retransmit_requests == 0
        assert listed.retransmits_exhausted == 0
        emitted = link()
        assert emitted.consume_batch(
            EventBatch.of([FGSync(0, ("k",))])) == []
        assert emitted.retransmit_requests == 3
        assert emitted.retransmits_exhausted == 1

    def test_records_are_never_retransmitted(self):
        from repro.switchsim.mgpv import MGPVConfig
        link = SwitchNICLink(MGPVConfig(),
                             LinkConfig(retransmit_retries=3))
        link.attach_fg_source(_StaticFGTable({}))
        link.set_fault_loss(1.0, "record", seed=5)
        record = MGPVRecord(cg_key=("k",), cg_hash32=0,
                            cells=((0, (1, 2)),), reason="test")
        assert link.consume(record) == ()
        assert link.drops_fault == 1
        assert link.retransmit_requests == 0


class TestRecoveryEndToEnd:
    CFG = LinkConfig(drop_rate=0.3, drop_kind="sync", seed=3,
                     retransmit_retries=10,
                     retransmit_backoff_ns=50.0)

    def test_recovered_syncs_leave_no_orphans(self, flow_policy,
                                              enterprise_trace,
                                              chaos_dump):
        result = api.compile(flow_policy,
                         link_config=self.CFG).run(enterprise_trace)
        chaos_dump(result.dataplane.counters())
        link = result.dataplane.link
        assert link.drops_injected > 0
        assert link.retransmits_ok > 0
        # Every sync drop enters the bounded retry loop exactly once.
        assert (link.retransmits_ok + link.retransmits_exhausted
                == link.drops_injected)
        assert link.retransmit_requests <= link.drops_injected * 10
        # p(all 10 retries lost) = 0.3^10: this seed recovers them all,
        # so the run is loss-free end to end.
        assert link.retransmits_exhausted == 0
        assert link.seqs_lost == 0
        assert result.dataplane.engine.stats.orphan_cells == 0

        clean = api.compile(flow_policy).run(enterprise_trace)
        assert result.by_key().keys() == clean.by_key().keys()
        for key, values in clean.by_key().items():
            np.testing.assert_allclose(result.by_key()[key], values)
        assert not any(v.degraded for v in result.vectors)

    def test_exhausted_syncs_demote_not_drop(self, flow_policy,
                                             enterprise_trace,
                                             chaos_dump):
        """retransmit_retries=0 disables recovery: every lost sync
        orphans its cells, and every orphan is demoted (zero silently
        lost), flagged on the emitted vector."""
        cfg = LinkConfig(drop_rate=0.3, drop_kind="sync", seed=3)
        result = api.compile(flow_policy, link_config=cfg) \
            .run(enterprise_trace)
        chaos_dump(result.dataplane.counters())
        link = result.dataplane.link
        stats = result.dataplane.engine.stats
        assert link.drops_injected > 0
        assert link.retransmit_requests == 0
        assert link.seqs_lost == link.drops_injected
        assert stats.orphan_cells > 0
        assert stats.orphan_cells == (stats.degraded_cells
                                      + stats.unrecoverable_cells)
        assert any(v.degraded for v in result.vectors)
        # No flow disappears: sync loss costs granularity, not groups.
        clean = api.compile(flow_policy).run(enterprise_trace)
        assert result.by_key().keys() == clean.by_key().keys()

    def test_orphan_accounting_exact(self, flow_policy,
                                     enterprise_trace,
                                     compiled_flow_policy):
        """Oracle: replay the events the sink actually received and
        count cells whose FG slot had no delivered sync — the engine's
        orphan_cells must match exactly."""
        delivered = []

        def tap(stage, event):
            if stage == "engine":
                delivered.append(event)

        cfg = LinkConfig(drop_rate=0.2, drop_kind="sync", seed=11)
        dp = Dataplane.build(compiled_flow_policy, link_config=cfg,
                             trace=tap)
        dp.process(enterprise_trace)
        dp.flush()

        mirror = {}
        expected_orphans = 0
        for event in delivered:
            if isinstance(event, FGSync):
                mirror[event.index] = event.key
            else:
                for fg_idx, _meta in event.cells:
                    if fg_idx not in mirror:
                        expected_orphans += 1
        assert expected_orphans > 0
        assert dp.engine.stats.orphan_cells == expected_orphans


class TestDeterminism:
    def test_same_seeds_identical_run(self, flow_policy,
                                      enterprise_trace):
        cfg = LinkConfig(drop_rate=0.1, drop_kind="any", seed=7,
                         retransmit_retries=4)
        plan = FaultPlan(seed=9, actions=(
            FaultAction(kind="link_loss", at_packet=100,
                        until_packet=600, rate=0.3, drop_kind="sync"),))

        def run():
            return api.compile(flow_policy, link_config=cfg,
                           fault_plan=plan).run(enterprise_trace)

        a, b = run(), run()
        assert a.dataplane.link.counters() == b.dataplane.link.counters()
        assert a.by_key().keys() == b.by_key().keys()
        for key, values in a.by_key().items():
            np.testing.assert_array_equal(values, b.by_key()[key])
        assert ([v.degraded for v in a.vectors]
                == [v.degraded for v in b.vectors])

    def test_different_plan_seed_different_drops(self, flow_policy,
                                                 enterprise_trace):
        def run(seed):
            plan = FaultPlan(seed=seed, actions=(
                FaultAction(kind="link_loss", at_packet=0, rate=0.2,
                            drop_kind="any"),))
            fe = api.compile(flow_policy, fault_plan=plan)
            return fe.run(enterprise_trace).dataplane.link.drops_fault

        assert run(1) != run(2)
