"""The FE-Switch filter stage (§5): a single match-action table.

The compiler converts each packet-level ``filter(p)`` predicate into a
rule; the stage admits a packet only when every installed rule matches
(predicates in a chain are conjunctive — each filter narrows the stream).
Callable predicates (a software-only convenience for tests) are applied
directly.

Two admission forms share one rule table: the per-packet :meth:`admit`
closure chain, and :meth:`admit_batch`, the dataplane's, which evaluates
the whole conjunction as numpy boolean masks over a
:class:`~repro.net.packet.PacketBatch` — one vector comparison per
condition instead of one closure call per packet.  A callable predicate
or a non-columnar field makes ``admit_batch`` run :meth:`admit` per row
into the same mask.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.policy import _OPS, Predicate
from repro.net.packet import PLAIN_FIELDS, PROTO_TCP, PROTO_UDP, Packet


def _vector_condition(cond) -> Callable | None:
    """A closure evaluating one condition over a PacketBatch as a bool
    mask, or None when the condition has no exact columnar form."""
    name = cond.field
    if name in PLAIN_FIELDS:
        if cond.op is None:
            return lambda batch: batch.column(name) != 0
        if not isinstance(cond.value, (int, float)) \
                or isinstance(cond.value, bool):
            return None     # string/odd literals keep Python semantics
        op = _OPS[cond.op]
        value = cond.value
        return lambda batch: op(batch.column(name), value)
    if name == "tcp.exist" and cond.op is None:
        return lambda batch: batch.column("proto") == PROTO_TCP
    if name == "udp.exist" and cond.op is None:
        return lambda batch: batch.column("proto") == PROTO_UDP
    return None


class FilterStage:
    """Match-action filtering with simple hit/miss counters."""

    name = "filter"

    def __init__(self, predicates: list[Predicate | Callable[[Packet], bool]]
                 ) -> None:
        self.predicates = list(predicates)
        self._recompile()
        self.hits = 0
        self.misses = 0

    def _recompile(self) -> None:
        """Resolve the match-action dispatch once per rule set: a
        Predicate compiles to a closure (and, when every condition has a
        columnar form, a mask evaluator), a callable is used as-is."""
        self._tests = tuple(
            pred.compile() if isinstance(pred, Predicate) else pred
            for pred in self.predicates)
        vector: list | None = []
        for pred in self.predicates:
            if not isinstance(pred, Predicate):
                vector = None
                break
            for cond in pred.conditions:
                fn = _vector_condition(cond)
                if fn is None:
                    vector = None
                    break
                vector.append(fn)
            if vector is None:
                break
        self._vector_tests = tuple(vector) if vector is not None else None

    def _refresh(self) -> None:
        # Rules may be installed at runtime (control-plane table writes
        # append to ``predicates``); recompile when the table grew.
        if len(self._tests) != len(self.predicates):
            self._recompile()

    def admit(self, pkt: Packet) -> bool:
        self._refresh()
        for test in self._tests:
            if not test(pkt):
                self.misses += 1
                return False
        self.hits += 1
        return True

    def admit_batch(self, batch) -> np.ndarray:
        """Admission over a PacketBatch: the boolean keep-mask, with
        hit/miss counters advanced by the same totals :meth:`admit`
        records — vectorized, or :meth:`admit` per row when a rule has
        no columnar form (callable predicates)."""
        self._refresh()
        n = len(batch)
        if self._vector_tests is None:
            return np.fromiter(map(self.admit, batch), bool, n)
        if not self._vector_tests:
            self.hits += n
            return np.ones(n, dtype=bool)
        mask: np.ndarray | None = None
        for test in self._vector_tests:
            m = test(batch)
            mask = m if mask is None else mask & m
        admitted = int(np.count_nonzero(mask))
        self.hits += admitted
        self.misses += n - admitted
        return mask

    def apply(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        return (pkt for pkt in packets if self.admit(pkt))

    # -- dataplane stage protocol ---------------------------------------------

    def flush(self) -> tuple:
        return ()

    def counters(self) -> dict:
        return {"pkts_in": self.hits + self.misses,
                "admitted": self.hits,
                "filtered": self.misses}

    @property
    def n_rules(self) -> int:
        """Match-action rules the table needs (one per condition)."""
        total = 0
        for pred in self.predicates:
            if isinstance(pred, Predicate):
                total += len(pred.conditions)
            else:
                total += 1
        return max(total, 1) if self.predicates else 0
