"""Spans recorded from outside the program, and the two staged drives.

The traced rep re-drives a workload's input through the stage objects a
``Dataplane`` exposes, one call per layer boundary, in the order
``Extractor.run`` / ``Extractor.stream`` make them — so every span
below is a call into one layer's public function, timed from the
benchmark's own files.  Spans stay in memory until the run ends.

A span is ``(name, start_ns, end_ns, parent, trace_id)``; ``parent`` is
an index into the same list (-1 for a root) and spans of one rep (or
one stream chunk) share a ``trace_id``.  The name's stem before the
first dot is the layer (see :data:`LAYER_MODULE`).
"""

from __future__ import annotations

import json
from time import perf_counter_ns as now

#: Span-name stem -> the repo module that layer is.
LAYER_MODULE = {
    "net": "net",
    "filter": "switchsim.filter",
    "mgpv": "switchsim.mgpv",
    "link": "core.dataplane",
    "engine": "nicsim",
    "parallel": "core.parallel",
    "frame": "core.pipeline",
}


class SpanLog:
    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name: str, start: int, end: int, parent: int,
            trace_id: int) -> int:
        self.spans.append((name, start, end, parent, trace_id))
        return len(self.spans) - 1

    def self_times(self) -> dict[str, int]:
        """Self time per span name: a span's duration minus the
        durations of its direct children (one thread, so children never
        overlap)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            out[name] = out.get(name, 0) + (end - start) - covered
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start_ns", "end_ns", "parent",
                                  "trace_id"],
                       "spans": self.spans}, fh)


def sink_layer(dataplane) -> str:
    """``parallel`` when the sink is the shard-parallel coordinator
    (only that sink has a health report), else ``engine``."""
    return "parallel" if dataplane.health() is not None else "engine"


def _flush_chain(dataplane, log: SpanLog, root: int, trace_id: int,
                 sink_span: str) -> None:
    """``Dataplane.flush`` stage by stage: each stage's residency
    crosses the stages after it (link, then sink) as one slice per
    hop."""
    stages = dataplane.stages
    for i, stage in enumerate(stages):
        t0 = now()
        frontier = list(stage.flush())
        t1 = now()
        # Only the switch holds residency worth a span of its own; the
        # other stages' flushes return an empty tuple.
        if stage is dataplane.switch:
            log.add("mgpv.flush", t0, t1, root, trace_id)
        for nxt in stages[i + 1:]:
            if not frontier:
                break
            t0 = now()
            frontier = list(nxt.consume_batch(frontier))
            log.add("link.consume" if nxt is dataplane.link else sink_span,
                    t0, now(), root, trace_id)


def drive_columnar(extractor, batch, log: SpanLog):
    """One ``Extractor.run(PacketBatch)`` as its stage calls.  Returns
    ``(vectors, dataplane, wall ns)``."""
    dp = extractor.dataplane()
    sink = sink_layer(dp)
    consume = f"{sink}.{'dispatch' if sink == 'parallel' else 'consume'}"
    finalize = f"{sink}.{'merge_wait' if sink == 'parallel' else 'finalize'}"
    trace_id = 0
    root = log.add("run", 0, 0, -1, trace_id)       # patched below
    t_root = now()

    t0 = now()
    mask = dp.filter.admit_batch(batch)
    t1 = now()
    log.add("filter.admit", t0, t1, root, trace_id)
    admitted = batch.compress(mask)
    t2 = now()
    log.add("net.compress", t1, t2, root, trace_id)
    if len(admitted):
        events = dp.switch.insert_batch(admitted)
        t3 = now()
        log.add("mgpv.insert", t2, t3, root, trace_id)
        delivered = dp.link.consume_batch(events)
        t4 = now()
        log.add("link.consume", t3, t4, root, trace_id)
        if delivered:
            dp.sink.consume_batch(delivered)
            log.add(consume, t4, now(), root, trace_id)
    t0 = now()
    dp.sink.advance_clock(dp.switch.now_ns)
    log.add(consume, t0, now(), root, trace_id)
    if dp.compiled.collect_unit == "pkt":
        t0 = now()
        vectors = dp.sink.take_packet_vectors()
        log.add("engine.take_vectors", t0, now(), root, trace_id)
    else:
        vectors = []
    _flush_chain(dp, log, root, trace_id, consume)
    t0 = now()
    vectors = vectors + dp.sink.finalize()
    t1 = now()
    log.add(finalize, t0, t1, root, trace_id)
    dp.close()
    t_end = now()
    log.add(f"{sink}.close", t1, t_end, root, trace_id)
    log.spans[root] = ("run", t_root, t_end, -1, trace_id)
    return vectors, dp, t_end - t_root


def drive_stream(extractor, chunks, log: SpanLog):
    """The per-packet tier ``Extractor.stream`` drives, chunk by chunk:
    ``Dataplane.process``'s inlined loop with each layer's per-packet
    calls summed into one span per layer per chunk (a span's start is
    the chunk's, its length the layer's busy time in that chunk).
    Returns ``(vectors, dataplane, wall ns)``."""
    dp = extractor.dataplane()
    admit = dp.filter.admit
    insert = dp.switch.insert
    link_consume = dp.link.consume
    sink_consume = dp.sink.consume
    per_pkt = dp.compiled.collect_unit == "pkt"
    vectors: list = []
    buf: list = []
    t_begin = now()
    for trace_id, chunk in enumerate(chunks):
        f_ns = m_ns = l_ns = e_ns = 0
        c0 = now()
        for pkt in chunk:
            t0 = now()
            ok = admit(pkt)
            t1 = now()
            f_ns += t1 - t0
            if not ok:
                continue
            buf.clear()
            insert(pkt, buf)
            t2 = now()
            m_ns += t2 - t1
            for event in buf:
                t3 = now()
                delivered = link_consume(event)
                t4 = now()
                l_ns += t4 - t3
                for ev in delivered:
                    sink_consume(ev)
                e_ns += now() - t4
        t0 = now()
        dp.sink.advance_clock(dp.switch.now_ns)
        t1 = now()
        e_ns += t1 - t0
        v_ns = 0
        if per_pkt:
            vectors.extend(dp.sink.take_packet_vectors())
            v_ns = now() - t1
        c1 = now()
        root = log.add("chunk", c0, c1, -1, trace_id)
        for name, ns in (("filter.admit", f_ns), ("mgpv.insert", m_ns),
                         ("link.consume", l_ns), ("engine.consume", e_ns),
                         ("engine.take_vectors", v_ns)):
            log.add(name, c0, c0 + ns, root, trace_id)
    trace_id = len(chunks)
    f0 = now()
    root = log.add("flush", 0, 0, -1, trace_id)
    _flush_chain(dp, log, root, trace_id, "engine.consume")
    t0 = now()
    vectors.extend(dp.sink.finalize())
    t1 = now()
    log.add("engine.finalize", t0, t1, root, trace_id)
    dp.close()
    t_end = now()
    log.add("engine.close", t1, t_end, root, trace_id)
    log.spans[root] = ("flush", f0, t_end, -1, trace_id)
    return vectors, dp, t_end - t_begin
