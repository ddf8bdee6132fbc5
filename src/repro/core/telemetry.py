"""Typed telemetry for the dataplane: instruments, spans, exporters.

:mod:`repro.core.observe` gives every stage a flat ``counters()`` dict
and a per-event ``trace`` hook — enough for the §7 tables, blind to
distributions (how big are evicted records? how long does a retransmit
loop spin?) and to anything that happens inside a forked shard worker.
This module is the full observability layer on top of that convention:

- **Typed instruments** — :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` (fixed bucket bounds, p50/p90/p99 estimates),
  registered by dotted name in one :class:`MetricsRegistry` per
  process.  Counters and gauges are *sources* reading the stages' own
  counts at snapshot time, released with the graph that registered
  them.
- **Spans** — :class:`Tracer` stamps ``perf_counter_ns`` intervals for
  sampled packets and amortized stage work (MGPV evictions, link
  retransmits, engine reduces, shard dispatch/merge), feeding per-stage
  latency histograms named ``span.<name>``.  With ``sample_rate=0`` the
  tracer is inert and the dataplane keeps its PR-4 inlined hot loop —
  the overhead budget for enabled-but-unsampled telemetry is <3%.
- **Merge** — :func:`merge_snapshots` combines registry snapshots
  associatively (counters/gauges sum, histograms add bucket-wise),
  which is what lets forked shard workers ship their snapshots back
  over the result protocol and the coordinator report cluster-wide
  truth.
- **Exporters** — :func:`write_jsonl`, :func:`prometheus_text`, and
  :func:`render_dashboard` (the ``superfe telemetry`` view).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "TelemetryError", "Counter", "Gauge", "Histogram",
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

#: Spans (and, separately, causal trace events) one tracer keeps; later
#: ones are dropped and counted.
MAX_SPANS = 10_000


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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_KINDS = ("counters", "gauges", "histograms")


class MetricsRegistry:
    """Typed instruments registered by dotted name.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create;
    registering one name under two kinds (or one histogram name with
    different bounds) raises :class:`TelemetryError`.

    ``counter_source`` / ``gauge_source`` register a zero-argument
    callable reading a stage's own count or level at snapshot time, so
    the registry holds no second copy and the data path pushes nothing.
    Same-named sources sum (the additive-across-shards convention).  A
    source belongs to the owner of the enclosing :meth:`owned_by` block
    (a graph, a shard worker's engine set); :meth:`release` retires the
    owner's sources, keeping each counter's final reading in its
    monotonic total.  Registration, release and snapshot hold one lock,
    so an ops thread's snapshot never sees a source both live and in
    its total.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # owner -> [(is_counter, name, fn)]; None owns what is
        # registered outside any owned_by block.
        self._sources: dict[object, list[tuple[bool, str, Callable]]] = {}
        self._owner = None
        self._lock = threading.Lock()

    def _check_name(self, name: str, own: dict) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
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

    # -- sources --------------------------------------------------------------

    @contextmanager
    def owned_by(self, owner):
        """Sources registered inside the block belong to ``owner``."""
        outer, self._owner = self._owner, owner
        try:
            yield
        finally:
            self._owner = outer

    def _add_source(self, is_counter: bool, name: str, fn) -> None:
        with self._lock:
            self._sources.setdefault(self._owner, []).append(
                (is_counter, name, fn))

    def counter_source(self, name: str, fn: Callable[[], int]) -> None:
        """Count ``name`` as ``fn()``, a stage's own monotonic count."""
        self.counter(name)
        self._add_source(True, name, fn)

    def gauge_source(self, name: str, fn: Callable[[], float]) -> None:
        """Read the level ``name`` as ``fn()`` at snapshot time."""
        self._check_name(name, self._gauges)
        self._add_source(False, name, fn)

    def release(self, owner) -> None:
        """Retire ``owner``'s sources: counters keep their final
        readings in their totals, gauges go.  Idempotent."""
        with self._lock:
            for is_counter, name, fn in self._sources.pop(owner, ()):
                if is_counter:
                    self._counters[name].value += fn()

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data (JSON-able, picklable) view of every instrument;
        the unit :func:`merge_snapshots` operates on."""
        with self._lock:
            counters = {n: c.snapshot() for n, c in self._counters.items()}
            gauges = {n: g.snapshot() for n, g in self._gauges.items()}
            for sources in self._sources.values():
                for is_counter, name, fn in sources:
                    values = counters if is_counter else gauges
                    values[name] = values.get(name, 0) + fn()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {n: h.snapshot()
                           for n, h in self._histograms.items()},
        }


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

    Spans are ``(name, start_ns, dur_ns)`` rows capped at
    :data:`MAX_SPANS` (then dropped and counted); every recorded span
    also feeds the ``span.<name>`` duration histogram in the registry,
    which is where the per-stage latency percentiles come from.
    """

    def __init__(self, registry: MetricsRegistry,
                 sample_rate: float = 0.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise TelemetryError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        self.registry = registry
        self.sample_rate = sample_rate
        self.stride = (0 if sample_rate <= 0.0
                       else max(1, round(1.0 / sample_rate)))
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        #: Causal (ctx-tagged) trace events — dicts built by
        #: :func:`repro.core.tracecontext.make_event`, bounded by the
        #: same :data:`MAX_SPANS` cap as anonymous spans.
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
        packets include a stride boundary.  ``Dataplane.process`` asks
        once per batch piece with its length, so a piece is sampled
        exactly when a per-packet sampler (``n=1``: every
        ``stride``-th packet) would have picked one of its packets."""
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
        if len(self.spans) < MAX_SPANS:
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
        if len(self.events) < MAX_SPANS:
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

    ``sample_rate=0`` keeps metrics (counters and gauges read from the
    stages, histograms on amortized paths) but collects no spans and
    adds no timing calls to the data path; any positive rate turns on
    stride-sampled spans.  ``trace=True`` additionally turns on *causal* trace
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
    trace: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise TelemetryError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}")


class Telemetry:
    """One registry + tracer pair, the unit a dataplane (or a shard
    worker) carries.  Stages attach via their ``attach_telemetry``
    methods; the coordinator merges worker snapshots with
    :func:`merge_snapshots`."""

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry,
                             sample_rate=self.config.sample_rate)

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
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Declarative SLO watchdogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLORule:
    """One ``metric <= limit`` threshold evaluated against a snapshot.

    ``metric`` addresses the snapshot namespace directly: a counter or
    gauge name (``supervisor.restarts``, ``transport.fallback_chunks``),
    a percentile of a histogram via a ``p50:``/``p90:``/``p99:`` prefix
    (``p99:span.shard.dispatch``), or a caller-supplied derived scalar
    passed through ``extras`` (``shed_rate``).  A metric absent from the snapshot is *not* a
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
    stage, latency percentiles per histogram — the ``superfe telemetry``
    CLI output."""
    lines = [title, "=" * len(title)]

    # ``mgpv.evictions`` lists under [mgpv] as ``evictions``; a name
    # without a dot under [metrics].
    by_stage: dict = {}
    for family in ("counters", "gauges"):
        for name, value in snapshot.get(family, {}).items():
            stage, _, metric = name.partition(".")
            if not metric:
                stage, metric = "metrics", name
            by_stage.setdefault(stage, {})[metric] = value
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

    spans = list(spans)
    if spans:
        lines.append("")
        lines.append(f"spans collected: {len(spans)}")
    return "\n".join(lines) + "\n"
