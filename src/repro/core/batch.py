"""Vectorized offline extraction — the production fast path.

The simulators execute one packet at a time to model the hardware;
analyzing a large capture offline doesn't need that fidelity.
:class:`BatchExtractor` evaluates a supported subset of policies with
numpy group-by kernels (bincount / ufunc.at over group indices), orders
of magnitude faster than the event-driven path, with *identical*
results — the tests cross-check against the software baseline
(``repro.api.compile(policy, software=True)``).

Supported: single-granularity per-group policies whose maps are
``f_one`` / ``f_ipt`` / ``f_direction`` and whose reducers are
``f_sum`` / ``f_min`` / ``f_max`` / ``f_mean`` / ``f_var`` / ``f_std`` /
``ft_hist``.  Anything else raises :class:`UnsupportedPolicy`, and
callers fall back to the exact engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import CompiledPolicy, PolicyCompiler
from repro.core.pipeline import ExtractionResult
from repro.core.policy import Policy
from repro.nicsim.engine import FeatureEngine
from repro.switchsim.filter import FilterStage
from repro.switchsim.mgpv import CacheStats

_SUPPORTED_REDUCERS = {"f_sum", "f_min", "f_max", "f_mean", "f_var",
                       "f_std", "ft_hist"}
_SUPPORTED_MAPS = {"f_one", "f_ipt", "f_direction"}


class UnsupportedPolicy(ValueError):
    """The policy needs the full engine, not the batch fast path."""


class Batcher:
    """Amortizing accumulator: items collect until ``capacity`` and are
    released as one chunk — the same trade the MGPV cache makes for the
    switch→NIC link, applied to any per-item overhead.  The parallel
    execution engine (:mod:`repro.core.parallel`) batches its worker
    dispatch through this: each released chunk becomes one transport
    frame (a shared-memory ring write, or one out-of-band buffer over
    the queue — see :mod:`repro.core.transport`), so chunk size is the
    frame size and the per-chunk cost is one encode + one copy instead
    of per-event pickling.
    """

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list = []

    def add(self, item) -> list | None:
        """Accumulate one item; returns the full chunk when it fills,
        None otherwise."""
        self._items.append(item)
        if len(self._items) >= self.capacity:
            return self.drain()
        return None

    def drain(self) -> list:
        """Release whatever has accumulated (possibly empty)."""
        items, self._items = self._items, []
        return items

    def __len__(self) -> int:
        return len(self._items)


class AdaptiveBatcher(Batcher):
    """Slow-start :class:`Batcher` for auto-sized dispatch: the first
    chunks release quickly (low time-to-first-dispatch on short
    streams), then the capacity doubles per released chunk up to
    ``max_capacity`` so a long stream settles into one queue/pickling
    round per large chunk without anyone picking a batch size."""

    __slots__ = ("max_capacity",)

    def __init__(self, capacity: int = 16,
                 max_capacity: int = 1024) -> None:
        super().__init__(capacity)
        if max_capacity < capacity:
            raise ValueError(f"max_capacity must be >= capacity, got "
                             f"{max_capacity} < {capacity}")
        self.max_capacity = max_capacity

    def add(self, item) -> list | None:
        chunk = super().add(item)
        if chunk is not None and self.capacity < self.max_capacity:
            self.capacity = min(self.capacity * 2, self.max_capacity)
        return chunk


def _check_supported(compiled: CompiledPolicy) -> None:
    if compiled.collect_unit == "pkt":
        raise UnsupportedPolicy("per-packet collection is stateful; use "
                                "the engine")
    if len(compiled.sections) != 1:
        raise UnsupportedPolicy("multi-granularity policies need the "
                                "engine")
    section = compiled.sections[0]
    for m in section.maps:
        if m.fn.name not in _SUPPORTED_MAPS:
            raise UnsupportedPolicy(f"mapping function {m.fn.name!r} is "
                                    f"not vectorized")
    for feat in section.features:
        if feat.reduce_fn.name not in _SUPPORTED_REDUCERS:
            raise UnsupportedPolicy(f"reducing function "
                                    f"{feat.reduce_fn.name!r} is not "
                                    f"vectorized")
        if feat.synth_fns:
            raise UnsupportedPolicy("synthesize chains are not "
                                    "vectorized")


def _key_matrix(packets, granularity) -> np.ndarray:
    keys = np.empty((len(packets), len(granularity.packet_key(
        packets[0]))), dtype=np.int64)
    for i, pkt in enumerate(packets):
        keys[i] = granularity.packet_key(pkt)
    return keys


class _Columns:
    """Per-packet columns, including mapped keys."""

    def __init__(self, packets, section) -> None:
        n = len(packets)
        self.size = np.fromiter((p.size for p in packets), np.float64, n)
        self.tstamp = np.fromiter((p.tstamp for p in packets),
                                  np.float64, n)
        self.direction = np.fromiter((p.direction for p in packets),
                                     np.float64, n)
        self.mapped: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(values, valid-mask) for a source key."""
        if name in self.mapped:
            return self.mapped[name]
        arr = getattr(self, name, None)
        if arr is None:
            raise UnsupportedPolicy(f"source {name!r} is not vectorized")
        return arr, np.ones(len(arr), dtype=bool)


def _apply_maps(cols: _Columns, section, gids: np.ndarray,
                n_groups: int) -> None:
    order = np.argsort(gids, kind="stable")
    for m in section.maps:
        if m.fn.name == "f_one":
            cols.mapped[m.dst] = (np.ones(len(gids)),
                                  np.ones(len(gids), dtype=bool))
        elif m.fn.name == "f_direction":
            src, valid = cols.column(m.src)
            cols.mapped[m.dst] = (src * cols.direction, valid)
        elif m.fn.name == "f_ipt":
            # Per-group previous timestamp: within the stable gid sort,
            # consecutive rows of one group are its packets in time
            # order (the input stream is time-ordered).
            ts_sorted = cols.tstamp[order]
            gid_sorted = gids[order]
            ipt_sorted = np.empty_like(ts_sorted)
            ipt_sorted[1:] = ts_sorted[1:] - ts_sorted[:-1]
            first = np.empty(len(gids), dtype=bool)
            first[0] = True
            first[1:] = gid_sorted[1:] != gid_sorted[:-1]
            ipt = np.empty_like(ipt_sorted)
            ipt[order] = ipt_sorted
            valid = np.empty_like(first)
            valid[order] = ~first
            ipt[~valid] = 0.0
            cols.mapped[m.dst] = (ipt, valid)


def _reduce(feat, values: np.ndarray, valid: np.ndarray,
            gids: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group result column(s) for one feature: shape (n_groups, d)."""
    name = feat.reduce_fn.name
    v = values[valid]
    g = gids[valid]
    counts = np.bincount(g, minlength=n_groups).astype(np.float64)
    safe = np.where(counts > 0, counts, 1.0)
    if name == "f_sum":
        return np.bincount(g, weights=v,
                           minlength=n_groups)[:, None]
    if name in ("f_min", "f_max"):
        fill = np.inf if name == "f_min" else -np.inf
        out = np.full(n_groups, fill)
        ufunc = np.minimum if name == "f_min" else np.maximum
        ufunc.at(out, g, v)
        out[counts == 0] = 0.0
        return out[:, None]
    if name in ("f_mean", "f_var", "f_std"):
        sums = np.bincount(g, weights=v, minlength=n_groups)
        mean = sums / safe
        if name == "f_mean":
            return mean[:, None]
        sq = np.bincount(g, weights=v * v, minlength=n_groups)
        var = np.maximum(sq / safe - mean ** 2, 0.0)
        return (var if name == "f_var" else np.sqrt(var))[:, None]
    if name == "ft_hist":
        width = float(feat.reduce_fn.args[0])
        n_bins = int(feat.reduce_fn.args[1])
        bins = np.clip((v // width).astype(np.int64), 0, n_bins - 1)
        flat = np.bincount(g * n_bins + bins,
                           minlength=n_groups * n_bins)
        return flat.reshape(n_groups, n_bins).astype(np.float64)
    raise UnsupportedPolicy(name)     # pragma: no cover


class BatchExtractor:
    """Vectorized evaluation of a supported policy."""

    def __init__(self, policy: Policy) -> None:
        self.policy = policy
        self.compiled = PolicyCompiler().compile(policy)
        _check_supported(self.compiled)

    def run(self, packets) -> ExtractionResult:
        packets = [p for p in
                   FilterStage(self.compiled.switch_filters)
                   .apply(packets)]
        stats = CacheStats()
        engine = FeatureEngine(self.compiled)   # only for result shape
        section = self.compiled.sections[0]
        if not packets:
            return ExtractionResult([], self.compiled.feature_names,
                                    stats, engine, self.compiled)
        stats.pkts_in = len(packets)
        stats.bytes_in = sum(p.size for p in packets)

        keys = _key_matrix(packets, section.granularity)
        unique_keys, gids = np.unique(keys, axis=0, return_inverse=True)
        n_groups = len(unique_keys)

        cols = _Columns(packets, section)
        _apply_maps(cols, section, gids, n_groups)

        blocks = []
        for feat in section.collected:
            values, valid = cols.column(feat.src)
            blocks.append(_reduce(feat, values, valid, gids, n_groups))
        matrix = np.hstack(blocks)

        from repro.nicsim.engine import FeatureVector
        names = tuple(self.compiled.feature_names)
        vectors = [
            FeatureVector(key=tuple(int(x) for x in unique_keys[i]),
                          names=names, values=matrix[i])
            for i in range(n_groups)
        ]
        return ExtractionResult(vectors, list(names), stats, engine,
                                self.compiled)
