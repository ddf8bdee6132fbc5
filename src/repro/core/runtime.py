"""Operational runtime — the control plane of the deployment (§7).

The prototype pairs its data-plane programs with a control plane (~4K
lines of C) that installs rules, synchronizes the FG table, polls
counters, and manages aging.  :class:`SuperFERuntime` is that layer for
the simulated deployment: unlike the one-shot :meth:`Extractor.run
<repro.api.Extractor.run>`, it runs *continuously* —

- :meth:`process` feeds packet batches as they arrive and returns
  feature vectors for groups completed so far (per-packet policies) or
  on demand via :meth:`snapshot`;
- :meth:`poll_counters` returns the since-last-poll deltas of every
  switch/link/NIC counter, the way a control plane samples data-plane
  state (delta arithmetic via :class:`~repro.core.observe.DeltaPoller`);
- :meth:`set_aging_timeout` retunes the aging mechanism live (the T
  knob of Fig 14);
- :meth:`install_filter` adds a match-action rule at runtime;
- :meth:`hot_swap` replaces the whole policy: the cache is drained into
  the NIC (no metadata loss), final vectors are emitted, and the new
  program is installed.

The data path itself is one :class:`~repro.core.dataplane.Dataplane`
wired by the :class:`~repro.api.Extractor` the runtime was deployed
from (:meth:`Extractor.deploy <repro.api.Extractor.deploy>` is the only
constructor); the runtime only adds the control-plane verbs around it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.core.compiler import FILTERABLE_FIELDS, PolicyError
from repro.core.observe import DeltaPoller
from repro.core.pipeline import ExtractionResult
from repro.core.policy import Policy, Predicate
from repro.nicsim.engine import FeatureVector

#: hot_swap sentinel: "keep the currently installed fault plan".
_KEEP = object()


@dataclass(frozen=True)
class CounterSnapshot:
    """Since-last-poll deltas of the deployment's counters."""

    pkts_in: int
    bytes_in: int
    records_to_nic: int
    bytes_to_nic: int
    fg_syncs: int
    evictions: dict
    cells_processed: int
    vectors_emitted: int
    filter_misses: int
    orphan_cells: int
    degraded_cells: int
    link_retransmits: int


class SuperFERuntime:
    """A continuously running SuperFE deployment."""

    def __init__(self, extractor) -> None:
        self.dataplane = None
        self._poller = DeltaPoller(self._absolute_counters)
        self._install(extractor)

    # -- installation --------------------------------------------------------

    def _install(self, extractor) -> None:
        """Make ``extractor`` (a privately owned
        :class:`~repro.api.Extractor`) the running deployment."""
        if extractor.telemetry is not None:
            # The gauge sources of the outgoing graph reference stages
            # about to be replaced; the new graph re-registers its own.
            # Counters/histograms persist across swaps (monotonic, as a
            # control plane expects).
            extractor.telemetry.registry.clear_gauge_sources()
        # Release the outgoing graph's workers before forking the
        # replacement; the incoming policy is already compiled, so a
        # rejected policy never reaches this point and a failed build
        # leaves no half-dead pool behind.
        if self.dataplane is not None:
            self.dataplane.close()
            self._extractor.close()
        self._extractor = extractor
        self.policy = extractor.policy
        self.compiled = extractor.compiled
        self.mgpv_config = extractor.mgpv_config
        self.dataplane = extractor.dataplane()

    # -- dataplane views ------------------------------------------------------

    @property
    def filter_stage(self):
        return self.dataplane.filter

    @property
    def cache(self):
        return self.dataplane.switch

    @property
    def link(self):
        return self.dataplane.link

    @property
    def engine(self):
        return self.dataplane.engine

    @property
    def cluster(self):
        return self.dataplane.cluster

    # -- data path ------------------------------------------------------------

    def process(self, packets) -> list[FeatureVector]:
        """Feed a batch of packets; returns the per-packet vectors the
        batch produced (empty for per-group policies, which emit at
        :meth:`snapshot` / :meth:`hot_swap` / :meth:`drain`)."""
        return self.dataplane.process(packets)

    def snapshot(self) -> list[FeatureVector]:
        """Current feature vectors of all resident groups (per-group
        policies); does not disturb the data path."""
        return self.dataplane.snapshot()

    def drain(self) -> list[FeatureVector]:
        """Flush the switch cache into the NIC and emit final vectors."""
        return self.dataplane.flush()

    def collect_idle(self, timeout_ns: int) -> list[FeatureVector]:
        """Emit and free NIC-side groups idle longer than ``timeout_ns``
        (the continuous-deployment vector eviction path); per-group
        policies return the emitted vectors."""
        if self.engine is None:
            raise ValueError(
                "collect_idle needs a single-engine deployment; cluster "
                "deployments age groups inside their shard workers")
        return self.engine.evict_idle(self.cache.now_ns, timeout_ns)

    # -- control plane ---------------------------------------------------------

    def _absolute_counters(self) -> dict:
        """Absolute counter values, mapped from the dataplane's uniform
        per-stage counters onto the control plane's snapshot schema."""
        switch = self.cache.counters()
        link = self.link.counters()
        # Cluster deployments expose the same counter schema through
        # the sink; single-engine ones through the engine itself.
        sink = self.engine if self.engine is not None else self.cluster
        engine = sink.counters()
        return {
            "pkts_in": switch["pkts_in"],
            "bytes_in": switch["bytes_in"],
            "records_to_nic": link["records_out"],
            "bytes_to_nic": link["bytes_out"],
            "fg_syncs": link["syncs_out"],
            "evictions": switch["evictions"],
            "cells_processed": engine["cells"],
            "vectors_emitted": engine["vectors_emitted"],
            "filter_misses": self.filter_stage.misses,
            "orphan_cells": engine["orphan_cells"],
            "degraded_cells": engine["degraded_cells"],
            "link_retransmits": link["retransmits_ok"],
        }

    def poll_counters(self) -> CounterSnapshot:
        """Since-last-poll deltas (control planes sample, not reset)."""
        return CounterSnapshot(**self._poller.poll())

    def set_aging_timeout(self, timeout_ns: int | None) -> None:
        """Retune the aging T live (Fig 14's knob); ``MGPVConfig``
        rejects a timeout that is not positive or None."""
        self.mgpv_config = dc_replace(self.mgpv_config,
                                      aging_timeout_ns=timeout_ns)
        self.cache.config = self.mgpv_config

    def install_filter(self, predicate: str) -> None:
        """Add a match-action rule at runtime; applies to subsequent
        packets only (as a table write would)."""
        pred = Predicate.parse(predicate)
        for cond in pred.conditions:
            if cond.field not in FILTERABLE_FIELDS:
                raise PolicyError(
                    f"filter field {cond.field!r} is not parseable by "
                    f"the switch")
        self.filter_stage.predicates.append(pred)

    def hot_swap(self, new_policy: Policy,
                 fault_plan=_KEEP) -> list[FeatureVector]:
        """Replace the running policy: drain the old deployment (no
        metadata is lost), emit its final vectors, install the new
        programs, and reset counters.

        ``fault_plan`` defaults to keeping the current chaos schedule;
        pass a new plan (or ``None`` to detach faults entirely — an
        external poller over ``dataplane.counters()`` then sees the
        ``faults`` stage disappear, surfaced by ``counter_delta`` as a
        ``faults.removed`` marker)."""
        final = self.drain()
        # The live cache config carries over (a retuned aging T
        # survives the swap); everything else is the deployment's own.
        changes = {"mgpv_config": self.mgpv_config}
        if fault_plan is not _KEEP:
            changes["fault_plan"] = fault_plan
        self._install(self._extractor._twin(new_policy, **changes))
        self._poller.reset()
        return final

    # -- reporting --------------------------------------------------------------

    def result(self) -> ExtractionResult:
        """A one-shot style result view of the current deployment."""
        return ExtractionResult(
            vectors=self.snapshot(),
            feature_names=self.compiled.feature_names,
            switch_stats=self.cache.stats,
            engine=(self.engine if self.engine is not None
                    else self.cluster),
            compiled=self.compiled,
            dataplane=self.dataplane,
        )
