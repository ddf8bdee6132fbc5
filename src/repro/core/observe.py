"""Uniform per-stage observability for the dataplane (§7's counters).

Every dataplane stage exports its state through one convention — a
``counters()`` method returning a flat ``{name: int}`` dict (nested one
level for keyed counters such as per-reason eviction counts).  This
module provides the control-plane side of that convention:

- :func:`counter_delta` — the since-last-sample arithmetic control
  planes use (sample, don't reset);
- :class:`DeltaPoller` — a stateful poller over any counter source,
  the building block of :meth:`SuperFERuntime.poll_counters`;
- :func:`render_counters` — a human-readable table for CLIs;
- ``Trace`` — the signature of the per-event trace hook a
  :class:`~repro.core.dataplane.Dataplane` accepts.
"""

from __future__ import annotations

from typing import Callable, Mapping

#: Per-event trace hook: called as ``trace(stage_name, event)`` for every
#: event a stage consumes — per ``Dataplane.process`` call (or fault-cut
#: piece of one), stage by stage, each stage's input in stream order.
#: Install via ``Dataplane(..., trace=fn)``.
Trace = Callable[[str, object], None]

Counters = Mapping[str, object]


def counter_delta(now: Counters, last: Counters) -> dict:
    """``now - last``, element-wise, recursing into nested dicts.

    Keys present only in ``now`` are treated as starting from zero (a
    counter that appeared since the last sample); keys present only in
    ``last`` — their source was torn down mid-poll — are surfaced as a
    ``<key>.removed: True`` marker rather than silently dropped, so a
    control plane polling across a hot swap or a fault revert can tell
    "stage went away" from "stage went quiet".
    """
    delta: dict = {}
    for key, value in now.items():
        prev = last.get(key)
        if isinstance(value, Mapping):
            delta[key] = counter_delta(
                value, prev if isinstance(prev, Mapping) else {})
        elif isinstance(value, (int, float)):
            delta[key] = value - (prev if isinstance(prev, (int, float))
                                  else 0)
        else:
            delta[key] = value
    for key in last:
        if key not in now:
            delta[f"{key}.removed"] = True
    return delta


class DeltaPoller:
    """Since-last-poll deltas over an absolute counter source.

    The source is any zero-argument callable returning a counter dict
    (e.g. ``dataplane.counters``).  Control planes *sample* data-plane
    counters rather than resetting them; the poller keeps the last
    sample and differences against it.
    """

    def __init__(self, source: Callable[[], Counters]) -> None:
        self._source = source
        self._last: Counters = {}

    def poll(self) -> dict:
        """Deltas accumulated since the previous :meth:`poll` (or since
        construction / the last :meth:`reset`)."""
        now = self._source()
        delta = counter_delta(now, self._last)
        self._last = now
        return delta

    def peek(self) -> dict:
        """The delta :meth:`poll` would return, without consuming it."""
        return counter_delta(self._source(), self._last)

    def reset(self) -> None:
        """Forget the last sample — the next poll returns absolutes
        (used after a hot swap tears the counters down to zero)."""
        self._last = {}


def degradation_report(counters: Mapping[str, Counters]) -> dict:
    """Collapse ``Dataplane.counters()`` into the chaos ledger: what was
    injected, what the recovery machinery got back, and what degraded —
    keyed by cause, ready for :func:`render_counters`.

    Every fault taxonomy entry maps to one recovery path and one counter
    group here: link loss → retransmission (``recovered``), NIC death →
    failover/resync (``recovered`` + ``degraded.demoted_vectors``),
    unrecovered sync loss → coarse demotion (``degraded``).
    """
    def pick(stage: Counters, names: tuple[str, ...]) -> dict:
        return {n: stage[n] for n in names if n in stage}

    link = counters.get("link", {})
    # Explicit key-presence order: an "engine" stage whose counters are
    # all zero must still win over "cluster" — `get(...) or get(...)`
    # would fall through on the empty-dict (falsy) layout.
    if "engine" in counters:
        sink = counters["engine"]
    elif "cluster" in counters:
        sink = counters["cluster"]
    else:
        sink = {}
    report: dict = {
        "injected": pick(link, ("drops_injected", "drops_fault",
                                "drops_backpressure", "gaps_detected",
                                "seqs_lost")),
        "recovered": {
            **pick(link, ("retransmit_requests", "retransmits_ok",
                          "retransmits_exhausted")),
            **pick(sink, ("fg_resyncs", "rerouted_events", "failovers",
                          "restarts")),
        },
        "degraded": pick(sink, ("orphan_cells", "degraded_cells",
                                "unrecoverable_cells", "degraded_groups",
                                "demoted_vectors", "residual_vectors")),
    }
    if "faults" in counters:
        report["faults"] = dict(counters["faults"])
    return report


def render_counters(counters: Mapping[str, Counters],
                    title: str = "dataplane counters") -> str:
    """Render per-stage counters as an indented text block."""
    lines = [f"# {title}"]
    for stage, values in counters.items():
        if not isinstance(values, Mapping):
            # e.g. the "<stage>.removed: True" marker from counter_delta
            lines.append(f"{stage}: {values}")
            continue
        lines.append(f"{stage}:")
        for name, value in sorted(values.items()):
            if isinstance(value, Mapping):
                inner = ", ".join(f"{k}={v}" for k, v in sorted(
                    value.items()))
                lines.append(f"  {name}: {{{inner}}}")
            else:
                lines.append(f"  {name}: {value}")
    return "\n".join(lines)
