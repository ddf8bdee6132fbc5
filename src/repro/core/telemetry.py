"""Typed telemetry for the dataplane: instruments, spans, exporters.

:mod:`repro.core.observe` gives every stage a flat ``counters()`` dict
and a per-event ``trace`` hook — enough for the §7 tables, blind to
distributions (how big are evicted records? how long does a retransmit
loop spin?) and to anything that happens inside a forked shard worker.
This module is the full observability layer on top of that convention:

- **Typed instruments** — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` (fixed bucket bounds, p50/p90/p99 estimates) and a
  windowed :class:`Rate`, registered by dotted name in one
  :class:`MetricsRegistry` per process.
- **Spans** — :class:`Tracer` stamps ``perf_counter_ns`` intervals for
  sampled packets and amortized stage work (MGPV evictions, link
  retransmits, engine reduces, shard dispatch/merge), feeding per-stage
  latency histograms named ``span.<name>``.  With ``sample_rate=0`` the
  tracer is inert and the dataplane keeps its PR-4 inlined hot loop —
  the overhead budget for enabled-but-unsampled telemetry is <3%.
- **Merge** — :func:`merge_snapshots` combines registry snapshots
  associatively (counters/gauges sum, histograms add bucket-wise, rates
  union), which is what lets forked shard workers ship their snapshots
  back over the result protocol and the coordinator report
  cluster-wide truth.
- **Exporters** — :func:`write_jsonl`, :func:`prometheus_text`, and
  :func:`render_dashboard` (the ``superfe telemetry`` view).

The registry coexists with the ``counters()`` convention rather than
replacing it wholesale: :meth:`MetricsRegistry.as_counters` renders a
snapshot in the nested per-stage shape ``DeltaPoller`` /
``degradation_report`` / ``render_counters`` already consume.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "TelemetryError", "Counter", "Gauge", "Histogram", "Rate",
    "MetricsRegistry", "merge_snapshots", "histogram_percentiles",
    "Tracer", "TelemetryConfig", "Telemetry",
    "write_jsonl", "prometheus_text", "render_dashboard",
    "SLORule", "parse_slo_rules", "evaluate_slo",
    "DEFAULT_LATENCY_BOUNDS_NS",
]


class TelemetryError(ValueError):
    """Misuse of the telemetry layer (name/type conflicts, bad config)."""


#: Default bucket upper bounds for nanosecond latency histograms:
#: roughly geometric from 250ns to 100ms, matching the range between a
#: single dict hit and a worker-pool round trip.
DEFAULT_LATENCY_BOUNDS_NS = (
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 5_000_000, 25_000_000, 100_000_000)

#: Default bounds for small cardinality histograms (cells per record,
#: retransmit attempts, dispatch chunk sizes).
DEFAULT_COUNT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

class Counter:
    """A monotonically increasing count.  Merge: sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time level (queue depth, resident groups).

    Merge semantics are *additive across shards*: two workers each
    holding 100 resident groups merge to a cluster holding 200 — the
    convention every gauge registered here must be meaningful under.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def add(self, delta) -> None:
        self.value += delta

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with streaming count/total/min/max.

    ``bounds`` are inclusive upper edges in ascending order; bucket ``i``
    counts observations ``v`` with ``bounds[i-1] < v <= bounds[i]`` and a
    final overflow bucket takes ``v > bounds[-1]`` — exactly
    ``numpy.searchsorted(bounds, v, side="left")`` bucketing, which the
    unit suite uses as its oracle.  Merge: bucket-wise count addition
    (bounds must match), total/count sums, min/max extremes.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str, bounds: Iterable = DEFAULT_LATENCY_BOUNDS_NS
                 ) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs >= 1 bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} bounds must be strictly increasing, "
                f"got {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` each value of a numeric array, in bulk."""
        if len(values):
            for i, k in enumerate(np.bincount(np.searchsorted(
                    self.bounds, values), minlength=len(self.counts))):
                self.counts[i] += int(k)
            self.count += len(values)
            self.total += values.sum().item()
            low, high = values.min().item(), values.max().item()
            self.min = low if self.min is None else min(self.min, low)
            self.max = high if self.max is None else max(self.max, high)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100) by linear
        interpolation inside the containing bucket.  The first bucket's
        lower edge is the observed minimum, the overflow bucket's upper
        edge the observed maximum."""
        return histogram_percentiles(self.snapshot(), (q,))[f"p{q:g}"]

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class Rate:
    """A windowed event rate (events/second over the trailing window).

    Timestamps are explicit nanoseconds (the caller's clock — packet
    time or ``perf_counter_ns``), never wall-clock reads, so replays are
    deterministic.  The live window is a bounded deque; the mergeable
    snapshot carries only associative aggregates (count, first/last).
    """

    __slots__ = ("name", "window_ns", "count", "first_ns", "last_ns",
                 "_events")

    def __init__(self, name: str, window_ns: int = 1_000_000_000,
                 max_events: int = 4096) -> None:
        if window_ns <= 0:
            raise TelemetryError(f"rate {name!r} window must be positive")
        self.name = name
        self.window_ns = window_ns
        self.count = 0
        self.first_ns = None
        self.last_ns = None
        self._events: deque = deque(maxlen=max_events)

    def record(self, now_ns: int, n: int = 1) -> None:
        self.count += n
        if self.first_ns is None or now_ns < self.first_ns:
            self.first_ns = now_ns
        if self.last_ns is None or now_ns > self.last_ns:
            self.last_ns = now_ns
        self._events.append((now_ns, n))

    def per_second(self, now_ns: int | None = None) -> float:
        """Events/sec over the window ending at ``now_ns`` (defaults to
        the last recorded timestamp)."""
        if now_ns is None:
            now_ns = self.last_ns
        if now_ns is None:
            return 0.0
        cutoff = now_ns - self.window_ns
        while self._events and self._events[0][0] <= cutoff:
            self._events.popleft()
        in_window = sum(n for ts, n in self._events if ts <= now_ns)
        return in_window * 1e9 / self.window_ns

    @property
    def lifetime_per_second(self) -> float:
        """Events/sec over the whole observed interval."""
        if self.first_ns is None or self.last_ns == self.first_ns:
            return 0.0
        return self.count * 1e9 / (self.last_ns - self.first_ns)

    def snapshot(self) -> dict:
        return {
            "window_ns": self.window_ns,
            "count": self.count,
            "first_ns": self.first_ns,
            "last_ns": self.last_ns,
        }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_KINDS = ("counters", "gauges", "histograms", "rates")


class MetricsRegistry:
    """Typed instruments registered by dotted name.

    ``counter`` / ``gauge`` / ``histogram`` / ``rate`` are get-or-create;
    registering one name under two kinds (or one histogram name with
    different bounds) raises :class:`TelemetryError`.  ``gauge_source``
    registers a zero-argument callable evaluated at snapshot time —
    how stages export levels (resident groups, table occupancy) without
    pushing updates on the hot path.  Multiple sources may share a name;
    their values sum (the additive-across-shards gauge convention).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._rates: dict[str, Rate] = {}
        self._gauge_sources: list[tuple[str, Callable[[], float]]] = []

    def _check_name(self, name: str, own: dict) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms),
                            ("rate", self._rates)):
            if table is not own and name in table:
                raise TelemetryError(
                    f"{name!r} is already registered as a {kind}")

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._check_name(name, self._counters)
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            self._check_name(name, self._gauges)
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str,
                  bounds: Iterable = DEFAULT_LATENCY_BOUNDS_NS
                  ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            self._check_name(name, self._histograms)
            inst = self._histograms[name] = Histogram(name, bounds)
        elif inst.bounds != tuple(bounds):
            raise TelemetryError(
                f"histogram {name!r} re-registered with different bounds")
        return inst

    def rate(self, name: str, window_ns: int = 1_000_000_000) -> Rate:
        inst = self._rates.get(name)
        if inst is None:
            self._check_name(name, self._rates)
            inst = self._rates[name] = Rate(name, window_ns)
        return inst

    def gauge_source(self, name: str, fn: Callable[[], float]) -> None:
        self._check_name(name, self._gauges)
        self._gauge_sources.append((name, fn))

    def clear_gauge_sources(self) -> None:
        """Drop registered gauge sources.  Hot swap replaces the graph;
        the callables close over stages that no longer exist, while
        counters/histograms stay (monotonic across swaps)."""
        self._gauge_sources.clear()

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data (JSON-able, picklable) view of every instrument;
        the unit :func:`merge_snapshots` operates on."""
        gauges = {name: g.snapshot() for name, g in self._gauges.items()}
        for name, fn in self._gauge_sources:
            gauges[name] = gauges.get(name, 0) + fn()
        return {
            "counters": {n: c.snapshot()
                         for n, c in self._counters.items()},
            "gauges": gauges,
            "histograms": {n: h.snapshot()
                           for n, h in self._histograms.items()},
            "rates": {n: r.snapshot() for n, r in self._rates.items()},
        }

    def as_counters(self) -> dict:
        """Compatibility shim: the snapshot rendered in the nested
        per-stage shape of the ``counters()`` convention, so registry
        metrics feed :class:`~repro.core.observe.DeltaPoller` /
        :func:`~repro.core.observe.render_counters` unchanged.  Names
        split on the first dot: ``mgpv.evictions`` lands under stage
        ``mgpv`` as ``evictions``; histograms/rates export their scalar
        summaries."""
        return snapshot_as_counters(self.snapshot())


def snapshot_as_counters(snap: Mapping) -> dict:
    """See :meth:`MetricsRegistry.as_counters`; usable on merged
    snapshots too."""
    out: dict = {}

    def put(name: str, value) -> None:
        stage, _, metric = name.partition(".")
        if not metric:
            stage, metric = "metrics", name
        out.setdefault(stage, {})[metric] = value

    for name, value in snap.get("counters", {}).items():
        put(name, value)
    for name, value in snap.get("gauges", {}).items():
        put(name, value)
    for name, h in snap.get("histograms", {}).items():
        put(name, {"count": h["count"], "total": h["total"],
                   "min": h["min"] if h["min"] is not None else 0,
                   "max": h["max"] if h["max"] is not None else 0})
    for name, r in snap.get("rates", {}).items():
        put(name, r["count"])
    return out


def _merge_two(a: Mapping, b: Mapping) -> dict:
    out = {kind: dict(a.get(kind, {})) for kind in _KINDS}
    for name, value in b.get("counters", {}).items():
        out["counters"][name] = out["counters"].get(name, 0) + value
    for name, value in b.get("gauges", {}).items():
        out["gauges"][name] = out["gauges"].get(name, 0) + value
    for name, h in b.get("histograms", {}).items():
        mine = out["histograms"].get(name)
        if mine is None:
            out["histograms"][name] = {**h, "bounds": list(h["bounds"]),
                                       "counts": list(h["counts"])}
            continue
        if list(mine["bounds"]) != list(h["bounds"]):
            raise TelemetryError(
                f"cannot merge histogram {name!r}: bucket bounds differ")
        out["histograms"][name] = {
            "bounds": list(mine["bounds"]),
            "counts": [x + y for x, y in zip(mine["counts"],
                                             h["counts"])],
            "count": mine["count"] + h["count"],
            "total": mine["total"] + h["total"],
            "min": (h["min"] if mine["min"] is None
                    else mine["min"] if h["min"] is None
                    else min(mine["min"], h["min"])),
            "max": (h["max"] if mine["max"] is None
                    else mine["max"] if h["max"] is None
                    else max(mine["max"], h["max"])),
        }
    for name, r in b.get("rates", {}).items():
        mine = out["rates"].get(name)
        if mine is None:
            out["rates"][name] = dict(r)
            continue
        out["rates"][name] = {
            "window_ns": mine["window_ns"],
            "count": mine["count"] + r["count"],
            "first_ns": (r["first_ns"] if mine["first_ns"] is None
                         else mine["first_ns"] if r["first_ns"] is None
                         else min(mine["first_ns"], r["first_ns"])),
            "last_ns": (r["last_ns"] if mine["last_ns"] is None
                        else mine["last_ns"] if r["last_ns"] is None
                        else max(mine["last_ns"], r["last_ns"])),
        }
    return out


def merge_snapshots(*snapshots: Mapping) -> dict:
    """Combine registry snapshots into one cluster-wide snapshot.

    The per-instrument operations (sum, bucket-wise add, min/max) are
    associative and commutative with the empty snapshot as identity —
    the shard coordinator may fold worker snapshots in any grouping and
    get the same totals (property-tested in ``test_telemetry.py``).
    """
    out: dict = {kind: {} for kind in _KINDS}
    for snap in snapshots:
        if snap:
            out = _merge_two(out, snap)
    return out


def histogram_percentiles(h: Mapping, qs=(50, 90, 99)) -> dict:
    """Percentile estimates from a histogram snapshot, by linear
    interpolation inside the containing bucket.  Keys ``p50``-style."""
    out = {}
    count = h["count"]
    bounds = list(h["bounds"])
    counts = list(h["counts"])
    lo = h["min"] if h["min"] is not None else 0
    hi = h["max"] if h["max"] is not None else (bounds[-1] if bounds else 0)
    for q in qs:
        key = f"p{q:g}"
        if not count:
            out[key] = 0.0
            continue
        rank = q / 100.0 * count
        cum = 0
        value = float(hi)
        for i, c in enumerate(counts):
            if not c:
                continue
            lower = lo if cum == 0 else (
                bounds[i - 1] if i > 0 else lo)
            cum += c
            upper = bounds[i] if i < len(bounds) else hi
            upper = min(upper, hi) if i == len(bounds) else upper
            if cum >= rank:
                frac = 1.0 - (cum - rank) / c
                lower = max(min(lower, upper), lo)
                value = lower + (upper - lower) * frac
                break
        out[key] = round(float(min(max(value, lo), hi)), 1)
    return out


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """Low-overhead span recorder.

    ``sample_rate`` in (0, 1] turns a fraction of per-packet work into
    spans via a deterministic stride (rate 1/64 → every 64th packet);
    rate 0 disables the tracer entirely — :attr:`active` is False and
    instrumented code must skip its ``perf_counter_ns`` calls, which is
    what keeps the enabled-but-unsampled dataplane on its inlined hot
    loop.  Amortized one-per-batch work (MGPV evictions, retransmit
    loops, shard merges) records unconditionally while active.

    Spans are ``(name, start_ns, dur_ns)`` rows capped at ``max_spans``
    (then dropped and counted); every recorded span also feeds the
    ``span.<name>`` duration histogram in the registry, which is where
    the per-stage latency percentiles come from.
    """

    def __init__(self, registry: MetricsRegistry,
                 sample_rate: float = 0.0,
                 max_spans: int = 10_000) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise TelemetryError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        if max_spans < 0:
            raise TelemetryError(
                f"max_spans must be >= 0, got {max_spans}")
        self.registry = registry
        self.sample_rate = sample_rate
        self.stride = (0 if sample_rate <= 0.0
                       else max(1, round(1.0 / sample_rate)))
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        #: Causal (ctx-tagged) trace events — dicts built by
        #: :func:`repro.core.tracecontext.make_event`, bounded by the
        #: same ``max_spans`` cap as anonymous spans.
        self.events: list[dict] = []
        self.events_dropped = 0
        self._tick = 0
        self._span_hists: dict[str, Histogram] = {}

    @property
    def active(self) -> bool:
        """True when spans are being collected at all."""
        return self.stride >= 1

    def should_sample(self, n: int = 1) -> bool:
        """Deterministic stride sampler: True when the next ``n``
        packets include a stride boundary.  Per-packet call sites ask
        with ``n=1`` (every ``stride``-th packet is sampled); columnar
        call sites ask once per batch with its length, so a batch is
        sampled exactly when a per-packet sampler would have picked
        one of its packets."""
        if not self.stride:
            return False
        self._tick += n
        if self._tick >= self.stride:
            self._tick %= self.stride
            return True
        return False

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record one finished span (caller already decided to sample)."""
        dur = end_ns - start_ns
        hist = self._span_hists.get(name)
        if hist is None:
            hist = self.registry.histogram(f"span.{name}")
            self._span_hists[name] = hist
        hist.observe(dur)
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start_ns, dur))
        else:
            self.spans_dropped += 1

    def record_event(self, event: dict) -> None:
        """Record one ctx-tagged trace event (a
        :func:`repro.core.tracecontext.make_event` dict).  The span
        duration also feeds the ``span.<name>`` histogram so causal
        events show up in the same percentile tables."""
        hist = self._span_hists.get(event["name"])
        if hist is None:
            hist = self.registry.histogram(f"span.{event['name']}")
            self._span_hists[event["name"]] = hist
        hist.observe(event["dur_ns"])
        if len(self.events) < self.max_spans:
            self.events.append(event)
        else:
            self.events_dropped += 1

    @contextmanager
    def span(self, name: str):
        """Context manager for cold-path spans (flush, merge, swap);
        records whenever the tracer is active."""
        if not self.stride:
            yield
            return
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.record(name, start, perf_counter_ns())


# ---------------------------------------------------------------------------
# The bundle stages attach to
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of one telemetry attachment.

    ``sample_rate=0`` keeps metrics (counters/gauges/histograms on
    amortized paths) but collects no spans and adds no timing calls to
    the per-packet path; any positive rate turns on stride-sampled
    spans.  ``trace=True`` additionally turns on *causal* trace
    propagation: every dispatched shard batch carries a ``(trace_id,
    parent_span_id, seq)`` context across the transport and both sides
    record ctx-tagged events that stitch into one cross-process span
    tree (see :mod:`repro.core.tracecontext`).  Tracing is per-batch
    (amortized), never per-packet, so it rides the same overhead budget
    as the sampled spans.  The config is a plain frozen dataclass so
    the shard coordinator can ship it to forked workers over the
    message queue.
    """

    sample_rate: float = 0.0
    max_spans: int = 10_000
    trace: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise TelemetryError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.max_spans < 0:
            raise TelemetryError(
                f"max_spans must be >= 0, got {self.max_spans}")


class Telemetry:
    """One registry + tracer pair, the unit a dataplane (or a shard
    worker) carries.  Stages attach via their ``attach_telemetry``
    methods; the coordinator merges worker snapshots with
    :func:`merge_snapshots`."""

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry,
                             sample_rate=self.config.sample_rate,
                             max_spans=self.config.max_spans)

    @property
    def sampling(self) -> bool:
        return self.tracer.active

    @property
    def tracing(self) -> bool:
        """True when causal trace propagation is on."""
        return self.config.trace

    def snapshot(self) -> dict:
        return self.registry.snapshot()


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def write_jsonl(path, snapshot: Mapping, spans: Iterable[tuple] = (),
                meta: Mapping | None = None,
                tevents: Iterable[Mapping] = ()) -> int:
    """Dump one metric snapshot plus spans as JSON Lines.

    Line 1 is ``{"kind": "meta", ...}``, line 2 ``{"kind": "metrics",
    "snapshot": ...}``, then one ``{"kind": "span", ...}`` per span and
    one ``{"kind": "tevent", ...}`` per causal trace event.  Returns
    the number of lines written.  ``path`` may be a str/Path or an open
    text file."""
    close = False
    if hasattr(path, "write"):
        fh = path
    else:
        fh = open(path, "w", encoding="utf-8")
        close = True
    lines = 0
    try:
        header = {"kind": "meta", "format": "superfe-telemetry-v1"}
        if meta:
            header.update(meta)
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({"kind": "metrics", "snapshot": dict(snapshot)})
                 + "\n")
        lines = 2
        for name, start_ns, dur_ns in spans:
            fh.write(json.dumps({"kind": "span", "name": name,
                                 "start_ns": start_ns, "dur_ns": dur_ns})
                     + "\n")
            lines += 1
        for event in tevents:
            fh.write(json.dumps({"kind": "tevent", **event}) + "\n")
            lines += 1
    finally:
        if close:
            fh.close()
    return lines


def read_jsonl(path) -> dict:
    """Inverse of :func:`write_jsonl`: returns ``{"meta": ...,
    "snapshot": ..., "spans": [...], "tevents": [...]}``."""
    out = {"meta": None, "snapshot": None, "spans": [], "tevents": []}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            kind = row.get("kind")
            if kind == "meta":
                out["meta"] = row
            elif kind == "metrics":
                out["snapshot"] = row["snapshot"]
            elif kind == "span":
                out["spans"].append(row)
            elif kind == "tevent":
                event = dict(row)
                event.pop("kind", None)
                out["tevents"].append(event)
    return out


def _prom_name(name: str) -> str:
    """Escape a dotted metric name to a legal Prometheus identifier
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``).

    Array-column suffixes like ``name[3]`` and chaos-kind segments like
    ``faults.applied.worker-crash`` turn every illegal character into
    ``_``; runs collapse to one underscore and trailing underscores are
    stripped so ``name[3]`` → ``superfe_name_3``, not
    ``superfe_name_3__``.
    """
    cleaned = "".join(c if c.isalnum() or c == "_" else "_"
                      for c in name)
    while "__" in cleaned:
        cleaned = cleaned.replace("__", "_")
    cleaned = cleaned.strip("_")
    return f"superfe_{cleaned}" if cleaned else "superfe_unnamed"


def _prom_label_value(value) -> str:
    """Escape a label value per the exposition format: backslash,
    double-quote, and newline must be backslash-escaped."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def prometheus_text(snapshot: Mapping) -> str:
    """Render a snapshot in the Prometheus text exposition format
    (endpoint-free: write it to a file, point a textfile collector at
    it).  Histograms export cumulative ``le`` buckets plus ``_sum`` and
    ``_count`` series, per the format spec."""
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        h = snapshot["histograms"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cum = 0
        for bound, c in zip(h["bounds"], h["counts"]):
            cum += c
            lines.append(
                f'{prom}_bucket{{le="{_prom_label_value(bound)}"}} {cum}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{prom}_sum {h['total']}")
        lines.append(f"{prom}_count {h['count']}")
    for name in sorted(snapshot.get("rates", {})):
        r = snapshot["rates"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom}_total counter")
        lines.append(f"{prom}_total {r['count']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Declarative SLO watchdogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLORule:
    """One ``metric <= limit`` threshold evaluated against a snapshot.

    ``metric`` addresses the snapshot namespace directly: a counter,
    gauge, or rate name (``supervisor.restarts``,
    ``transport.fallback_chunks``), a percentile of a histogram via a
    ``p50:``/``p90:``/``p99:`` prefix (``p99:span.shard.dispatch``), or
    a caller-supplied derived scalar passed through ``extras``
    (``shed_rate``).  A metric absent from the snapshot is *not* a
    breach — a rule about restarts shouldn't fire on a deployment that
    never attached a supervisor.
    """

    metric: str
    limit: float

    def __post_init__(self) -> None:
        if not self.metric:
            raise TelemetryError("SLO rule needs a metric name")

    @property
    def spec(self) -> str:
        return f"{self.metric}<={self.limit:g}"


def parse_slo_rules(spec: str) -> tuple[SLORule, ...]:
    """Parse a comma-separated ``metric<=limit`` rule list, e.g.
    ``"supervisor.restarts<=3,p99:span.shard.dispatch<=5e6,shed_rate<=0.5"``.
    """
    rules = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        metric, sep, limit = part.partition("<=")
        if not sep:
            raise TelemetryError(
                f"SLO rule {part!r} is not of the form metric<=limit")
        try:
            rules.append(SLORule(metric.strip(), float(limit)))
        except ValueError as exc:
            raise TelemetryError(
                f"SLO rule {part!r} has a non-numeric limit") from exc
    if not rules:
        raise TelemetryError("empty SLO rule list")
    return tuple(rules)


def _slo_value(metric: str, snapshot: Mapping,
               extras: Mapping | None):
    if extras and metric in extras:
        return float(extras[metric])
    for prefix in ("p50", "p90", "p99"):
        if metric.startswith(prefix + ":"):
            hist = snapshot.get("histograms", {}).get(
                metric[len(prefix) + 1:])
            if hist is None or not hist.get("count"):
                return None
            return float(histogram_percentiles(hist)[prefix])
    for family in ("counters", "gauges"):
        values = snapshot.get(family, {})
        if metric in values:
            return float(values[metric])
    rates = snapshot.get("rates", {})
    if metric in rates:
        return float(rates[metric]["count"])
    return None


def evaluate_slo(snapshot: Mapping, rules: Iterable[SLORule],
                 extras: Mapping | None = None) -> list[dict]:
    """Evaluate SLO rules against one snapshot; returns the breaches.

    Every breach is also recorded as an ``slo.breach`` event in the
    per-process flight recorder, so the crash/blame paths carry recent
    SLO state automatically.
    """
    from repro.core import flightrec
    breaches = []
    for rule in rules:
        value = _slo_value(rule.metric, snapshot, extras)
        if value is None or value <= rule.limit:
            continue
        breaches.append({"metric": rule.metric, "value": value,
                         "limit": rule.limit, "spec": rule.spec})
        flightrec.record("slo.breach", metric=rule.metric,
                         value=value, limit=rule.limit)
    return breaches


def render_dashboard(snapshot: Mapping, spans: Iterable[tuple] = (),
                     title: str = "superfe telemetry") -> str:
    """Human-oriented text view of a snapshot: counters and gauges per
    stage, latency percentiles per histogram, rate summaries — the
    ``superfe telemetry`` CLI output."""
    lines = [title, "=" * len(title)]

    by_stage = snapshot_as_counters(
        {"counters": snapshot.get("counters", {}),
         "gauges": snapshot.get("gauges", {})})
    if by_stage:
        lines.append("")
        lines.append("counters/gauges")
        lines.append("---------------")
        for stage in sorted(by_stage):
            lines.append(f"[{stage}]")
            for metric in sorted(by_stage[stage]):
                value = by_stage[stage][metric]
                if isinstance(value, float):
                    value = round(value, 3)
                lines.append(f"  {metric:<28} {value}")

    hists = snapshot.get("histograms", {})
    if hists:
        lines.append("")
        lines.append(f"{'histogram':<34} {'count':>8} {'mean':>10} "
                     f"{'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}")
        lines.append("-" * 96)
        for name in sorted(hists):
            h = hists[name]
            pct = histogram_percentiles(h)
            mean = h["total"] / h["count"] if h["count"] else 0.0
            hmax = h["max"] if h["max"] is not None else 0
            lines.append(
                f"{name:<34} {h['count']:>8} {mean:>10.1f} "
                f"{pct['p50']:>10} {pct['p90']:>10} {pct['p99']:>10} "
                f"{hmax:>10}")

    rates = snapshot.get("rates", {})
    if rates:
        lines.append("")
        lines.append("rates")
        lines.append("-----")
        for name in sorted(rates):
            r = rates[name]
            span_ns = ((r["last_ns"] - r["first_ns"])
                       if r["first_ns"] is not None
                       and r["last_ns"] is not None else 0)
            per_s = (r["count"] * 1e9 / span_ns) if span_ns else 0.0
            lines.append(f"  {name:<32} {r['count']:>10} events"
                         f"  ({per_s:,.0f}/s lifetime)")

    spans = list(spans)
    if spans:
        lines.append("")
        lines.append(f"spans collected: {len(spans)}")
    return "\n".join(lines) + "\n"
