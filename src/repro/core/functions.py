"""Mapping / reducing / synthesizing functions (Table 5) and the
user-extension registry (§4.1).

Functions are referenced by name in policies, optionally with brace
parameters matching the paper's syntax — ``ft_hist{10000, 100}`` — parsed
by :func:`parse_fn_spec`.  Each registry entry is a factory: the FE-NIC
engine instantiates one function object *per group* (mapping and reducing
functions are stateful within a group).

Users extend SuperFE by registering new factories with
:func:`register_map_fn` / :func:`register_reduce_fn` /
:func:`register_synth_fn`; the CUMUL and Kitsune applications in
:mod:`repro.apps` use exactly this path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.streaming import folds
from repro.streaming.bidirectional import BidirectionalStats
from repro.streaming.histogram import FixedWidthHistogram
from repro.streaming.hyperloglog import HyperLogLog
from repro.streaming.moments import StreamingMoments
from repro.streaming.welford import Welford, WelfordDivisionFree


@dataclass(frozen=True)
class FnSpec:
    """A parsed function reference: name plus brace parameters."""

    name: str
    args: tuple = ()
    kwargs: tuple = ()          # sorted (key, value) pairs, hashable

    @property
    def kwargs_dict(self) -> dict:
        return dict(self.kwargs)

    def __str__(self) -> str:
        if not self.args and not self.kwargs:
            return self.name
        parts = [repr(a) if isinstance(a, str) else str(a)
                 for a in self.args]
        parts += [f"{k}={v}" for k, v in self.kwargs]
        return f"{self.name}{{{', '.join(parts)}}}"


_SPEC_RE = re.compile(r"^\s*([A-Za-z_][\w.]*)\s*(?:\{(.*)\})?\s*$")


def _parse_literal(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_fn_spec(spec) -> FnSpec:
    """Parse ``"name"`` / ``"name{a, b}"`` / ``"name{k=v}"`` into a
    :class:`FnSpec`.  Already-parsed specs pass through."""
    if isinstance(spec, FnSpec):
        return spec
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"malformed function spec: {spec!r}")
    name, params = match.group(1), match.group(2)
    args: list = []
    kwargs: dict = {}
    if params:
        for token in params.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, value = token.split("=", 1)
                kwargs[key.strip()] = _parse_literal(value)
            else:
                args.append(_parse_literal(token))
    return FnSpec(name, tuple(args), tuple(sorted(kwargs.items())))


@dataclass
class ExecContext:
    """Execution context the FE-NIC engine instantiates functions with.

    ``division_free`` selects the NFP integer arithmetic path (§6.2);
    the software baseline runs with full floating point.
    """

    division_free: bool = False
    extra: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Mapping functions — stateful per group; apply(member, src_value) returns
# the mapped value or None (no emission, e.g. the first packet has no
# inter-packet time).
# --------------------------------------------------------------------------

class _FOne:
    __slots__ = ()
    def apply(self, member, src_value):
        return 1


class _FIpt:
    """Inter-packet time within the group (ns); None for the first packet."""

    __slots__ = ("_prev",)

    def __init__(self) -> None:
        self._prev = None

    def apply(self, member, src_value):
        tstamp = member.get("tstamp")
        prev, self._prev = self._prev, tstamp
        if prev is None:
            return None
        return tstamp - prev


class _FSpeed:
    """Instantaneous throughput: src value (bytes) over the inter-packet
    gap, in bytes/second; None for the first packet."""

    __slots__ = ("_prev",)

    def __init__(self) -> None:
        self._prev = None

    def apply(self, member, src_value):
        tstamp = member.get("tstamp")
        prev, self._prev = self._prev, tstamp
        if prev is None or tstamp <= prev:
            return None
        return src_value / ((tstamp - prev) / 1e9)


class _FDirection:
    """Multiply the source value by the packet direction (+1/-1)."""

    __slots__ = ()

    def apply(self, member, src_value):
        return src_value * member.get("direction")


class _FBurst:
    """Burst identification: emits the ordinal of the burst (a maximal run
    of same-direction packets) the member belongs to."""

    __slots__ = ("_prev_dir", "_burst")

    def __init__(self) -> None:
        self._prev_dir = None
        self._burst = 0

    def apply(self, member, src_value):
        direction = member.get("direction")
        if self._prev_dir is not None and direction != self._prev_dir:
            self._burst += 1
        self._prev_dir = direction
        return self._burst


class _FIdentity:
    __slots__ = ()
    def apply(self, member, src_value):
        return src_value


MAP_FNS: dict[str, type] = {}

#: Packet metadata fields a function reads beyond its declared source key
#: (e.g. f_ipt needs the timestamp).  The compiler consults this to decide
#: which fields the switch must batch into MGPV cells.
FN_IMPLICIT_FIELDS: dict[str, tuple[str, ...]] = {}


def register_map_fn(name: str, factory, override: bool = False,
                    implicit_fields: tuple[str, ...] = ()) -> None:
    """Register a mapping-function factory: ``factory(spec, ctx)`` must
    return a fresh per-group object with ``apply(member, src_value)``.
    ``implicit_fields`` names packet fields the function reads from the
    member beyond its source key."""
    if name in MAP_FNS and not override:
        raise ValueError(f"mapping function {name!r} already registered")
    MAP_FNS[name] = factory
    if implicit_fields:
        FN_IMPLICIT_FIELDS[name] = tuple(implicit_fields)


#: Registered builtin factory -> ``(cls, bind)``: the builtin factories
#: only forward ``bind(spec, ctx)`` (constructor arguments; None = no
#: arguments) to ``cls``, so ``make_*_factory`` hands groups the class
#: or ``partial(cls, *args)`` with the spec parsed once, instead of two
#: nested lambda frames per group.  Keyed by factory identity, so user
#: re-registrations never match.
_BUILTIN_FACTORIES: dict = {}


def _register_builtin(register, name: str, cls: type, bind=None,
                      implicit_fields: tuple[str, ...] = ()) -> None:
    if bind is None:
        def factory(spec, ctx):
            return cls()
    else:
        def factory(spec, ctx):
            return cls(*bind(spec, ctx))
    register(name, factory, implicit_fields=implicit_fields)
    _BUILTIN_FACTORIES[factory] = (cls, bind)


def _lookup(table: dict, kind: str, spec) -> tuple:
    """``(parsed spec, registered factory)`` for a function reference."""
    spec = parse_fn_spec(spec)
    try:
        return spec, table[spec.name]
    except KeyError:
        raise KeyError(f"unknown {kind} function {spec.name!r} "
                       f"(have {sorted(table)})") from None


def _make_factory(table: dict, kind: str, spec, ctx):
    """Resolve a fn spec once and return a zero-arg constructor of fresh
    instances — the per-new-group path skips re-parsing."""
    spec, factory = _lookup(table, kind, spec)
    ctx = ctx or ExecContext()
    entry = _BUILTIN_FACTORIES.get(factory)
    if entry is None:
        return partial(factory, spec, ctx)
    cls, bind = entry
    return cls if bind is None else partial(cls, *bind(spec, ctx))


for _name, _cls, _fields in [
        ("f_one", _FOne, ()),
        ("f_ipt", _FIpt, ("tstamp",)),
        ("f_speed", _FSpeed, ("tstamp",)),
        ("f_direction", _FDirection, ("direction",)),
        ("f_burst", _FBurst, ("direction",)),
        ("f_identity", _FIdentity, ())]:
    _register_builtin(register_map_fn, _name, _cls,
                      implicit_fields=_fields)


def make_map_fn(spec, ctx: ExecContext | None = None):
    spec, factory = _lookup(MAP_FNS, "mapping", spec)
    return factory(spec, ctx or ExecContext())


def make_map_factory(spec, ctx: ExecContext | None = None):
    """A zero-arg constructor of fresh instances (see ``_make_factory``)."""
    return _make_factory(MAP_FNS, "mapping", spec, ctx)


# --------------------------------------------------------------------------
# Reducing functions — stateful per group; update(value, member), then
# finalize() returns a float or ndarray.  state_bytes reports retained
# state for the memory accounting.
# --------------------------------------------------------------------------

class _ScalarReduce:
    """Base for sum/max/min: one state word, one op per update."""

    __slots__ = ("value",)

    state_bytes = 8

    def __init__(self) -> None:
        self.value = None

    def finalize(self):
        return float(self.value) if self.value is not None else 0.0


class _FSum(_ScalarReduce):
    __slots__ = ()
    def update(self, value, member) -> None:
        self.value = value if self.value is None else self.value + value

    def update_many(self, values, directions=None) -> None:
        # builtins.sum is a strict left fold, so this is bit-identical
        # to the per-value loop for ints (associative anyway) and floats
        # (same IEEE addition order).  Seeding with values[0] rather than
        # 0 preserves the first update's "assign, don't add" semantics.
        if not values:
            return
        if self.value is None:
            self.value = (sum(values[1:], values[0]) if len(values) > 1
                          else values[0])
        else:
            self.value = sum(values, self.value)


class _FMax(_ScalarReduce):
    __slots__ = ()
    def update(self, value, member) -> None:
        self.value = value if self.value is None else max(self.value, value)

    def update_many(self, values, directions=None) -> None:
        # max() over (state, *values) is the sequential fold itself: it
        # keeps the earliest maximal element (ties, the -0.0/0.0 float
        # tie and NaN resolve as per-value updates would).
        if values:
            self.value = max(values if self.value is None
                             else (self.value, *values))


class _FMin(_ScalarReduce):
    __slots__ = ()
    def update(self, value, member) -> None:
        self.value = value if self.value is None else min(self.value, value)

    def update_many(self, values, directions=None) -> None:
        if values:
            self.value = min(values if self.value is None
                             else (self.value, *values))


class _WelfordReduce:
    """Shared base for mean/var/std over a Welford state; the context
    selects the division-free NFP variant."""

    __slots__ = ("_w",)

    def __init__(self, ctx: ExecContext) -> None:
        self._w = WelfordDivisionFree() if ctx.division_free else Welford()

    @property
    def state_bytes(self) -> int:
        return self._w.state_bytes

    def update(self, value, member) -> None:
        self._w.update(value)

    def update_many(self, values, directions=None) -> None:
        self._w.update_many(values)


class _FMean(_WelfordReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return float(self._w.mean)


class _FVar(_WelfordReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return float(self._w.variance)


class _FStd(_WelfordReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return float(self._w.std)


class _MomentsReduce:
    __slots__ = ("_m",)
    state_bytes = StreamingMoments.state_bytes

    def __init__(self) -> None:
        self._m = StreamingMoments()

    def update(self, value, member) -> None:
        self._m.update(value)

    def update_many(self, values, directions=None) -> None:
        self._m.update_many(values)


class _FSkew(_MomentsReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return self._m.skewness


class _FKur(_MomentsReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return self._m.kurtosis


class _BidirReduce:
    """Base for the 2D statistics: routes values into the two directional
    streams using the member's direction metadata."""

    __slots__ = ("_b",)

    def __init__(self) -> None:
        self._b = BidirectionalStats()

    @property
    def state_bytes(self) -> int:
        return self._b.state_bytes

    def update(self, value, member) -> None:
        self._b.update(value, member.get("direction"))

    def update_many(self, values, directions=None) -> None:
        update = self._b.update
        for value, direction in zip(values, directions):
            update(value, direction)


class _FMag(_BidirReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return self._b.magnitude


class _FRadius(_BidirReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return self._b.radius


class _FCov(_BidirReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return self._b.covariance


class _FPcc(_BidirReduce):
    __slots__ = ()
    def finalize(self) -> float:
        return self._b.pcc


class _FCard:
    __slots__ = ("_hll",)
    def __init__(self, k: int = 6) -> None:
        self._hll = HyperLogLog(k)

    @property
    def state_bytes(self) -> int:
        return self._hll.state_bytes

    def update(self, value, member) -> None:
        self._hll.update(value)

    def update_many(self, values, directions=None) -> None:
        update = self._hll.update
        for value in values:
            update(value)

    def finalize(self) -> float:
        return self._hll.estimate()


class _FArray:
    """Pack values into an array (the WF direction-sequence reducer).

    State grows with the group — policies using it should bound the
    output with ``synthesize(ft_sample{n})``.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list = []

    @property
    def state_bytes(self) -> int:
        return 8 * len(self.values)

    def update(self, value, member) -> None:
        self.values.append(value)

    def update_many(self, values, directions=None) -> None:
        self.values.extend(values)

    def finalize(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


class _HistReduce:
    __slots__ = ("_h",)
    def __init__(self, width: float, n_bins: int, origin: float = 0.0
                 ) -> None:
        self._h = FixedWidthHistogram(width, n_bins, origin)

    @property
    def state_bytes(self) -> int:
        return self._h.state_bytes

    def update(self, value, member) -> None:
        self._h.update(value)

    def update_many(self, values, directions=None) -> None:
        self._h.update_many(values)


class _FtHist(_HistReduce):
    __slots__ = ()
    def finalize(self) -> np.ndarray:
        return self._h.result().astype(np.float64)


class _FPdf(_HistReduce):
    __slots__ = ()
    def finalize(self) -> np.ndarray:
        return self._h.pdf()


class _FCdf(_HistReduce):
    __slots__ = ()
    def finalize(self) -> np.ndarray:
        return self._h.cdf()


class _FtPercent(_HistReduce):
    __slots__ = ("q",)
    def __init__(self, q: float, width: float, n_bins: int) -> None:
        super().__init__(width, n_bins)
        self.q = q

    def finalize(self) -> float:
        return self._h.percentile(self.q)


REDUCE_FNS: dict[str, object] = {}


def register_reduce_fn(name: str, factory, override: bool = False,
                       implicit_fields: tuple[str, ...] = ()) -> None:
    """Register a reducing-function factory: ``factory(spec, ctx)`` must
    return a fresh per-group object with ``update(value, member)``,
    ``finalize()`` and ``state_bytes``.  ``implicit_fields`` names packet
    fields the function reads from the member beyond the reduced value."""
    if name in REDUCE_FNS and not override:
        raise ValueError(f"reducing function {name!r} already registered")
    REDUCE_FNS[name] = factory
    if implicit_fields:
        FN_IMPLICIT_FIELDS[name] = tuple(implicit_fields)


_DEFAULT_HIST = (1000.0, 32)    # width, bins when f_pdf/f_cdf omit params


def _hist_params(args: tuple) -> tuple[float, int]:
    if len(args) >= 2:
        return float(args[0]), int(args[1])
    return _DEFAULT_HIST


_DIRECTION = ("direction",)
for _name, _cls, _bind, _fields in [
        ("f_sum", _FSum, None, ()),
        ("f_max", _FMax, None, ()),
        ("f_min", _FMin, None, ()),
        ("f_mean", _FMean, lambda spec, ctx: (ctx,), ()),
        ("f_var", _FVar, lambda spec, ctx: (ctx,), ()),
        ("f_std", _FStd, lambda spec, ctx: (ctx,), ()),
        ("f_skew", _FSkew, None, ()),
        ("f_kur", _FKur, None, ()),
        ("f_mag", _FMag, None, _DIRECTION),
        ("f_radius", _FRadius, None, _DIRECTION),
        ("f_cov", _FCov, None, _DIRECTION),
        ("f_pcc", _FPcc, None, _DIRECTION),
        ("f_card", _FCard,
         lambda spec, ctx: (int(spec.kwargs_dict.get("k", 6)),), ()),
        ("f_array", _FArray, None, ()),
        ("ft_hist", _FtHist,
         lambda spec, ctx: (float(spec.args[0]), int(spec.args[1])), ()),
        ("f_pdf", _FPdf, lambda spec, ctx: _hist_params(spec.args), ()),
        ("f_cdf", _FCdf, lambda spec, ctx: _hist_params(spec.args), ()),
        ("ft_percent", _FtPercent,
         lambda spec, ctx: (float(spec.args[0]),
                            *_hist_params(spec.args[1:])), ())]:
    _register_builtin(register_reduce_fn, _name, _cls, _bind, _fields)


def make_reduce_fn(spec, ctx: ExecContext | None = None):
    spec, factory = _lookup(REDUCE_FNS, "reducing", spec)
    return factory(spec, ctx or ExecContext())


def make_reduce_factory(spec, ctx: ExecContext | None = None):
    """A zero-arg constructor of fresh instances (see ``_make_factory``)."""
    return _make_factory(REDUCE_FNS, "reducing", spec, ctx)


#: Reducer class -> attribute holding its one streaming accumulator;
#: filled only through :func:`declare_shared_accumulator`.
SHARED_ACCUMULATORS: dict[type, str] = {}


def declare_shared_accumulator(cls: type, attr: str) -> None:
    """Declare that ``cls``'s whole per-group state is the streaming
    accumulator it stores at ``attr``, fed only by ``cls.update``.
    Declared reducers over one source key whose accumulators have the
    same type and the same ``params`` tuple (the accumulator must expose
    one) maintain bit-identical copies, so the engine keeps a single
    accumulator for them.  Opt-in is per exact class and never
    inherited: a subclass (which may override ``update``) keeps a
    private state unless it is declared itself."""
    SHARED_ACCUMULATORS[cls] = attr


for _cls in (_FMean, _FVar, _FStd):
    declare_shared_accumulator(_cls, "_w")
for _cls in (_FSkew, _FKur):
    declare_shared_accumulator(_cls, "_m")
for _cls in (_FMag, _FRadius, _FCov, _FPcc):
    declare_shared_accumulator(_cls, "_b")
for _cls in (_FtHist, _FPdf, _FCdf, _FtPercent):
    declare_shared_accumulator(_cls, "_h")


def reducer_share_plan(reducers) -> tuple:
    """Probe one section's ``(src_key, reducer)`` instance list and
    return ``((follower_idx, leader_idx, attr), ...)``: every declared
    reducer after the first with the same ``(source, attr, accumulator
    type, accumulator params)`` is a follower of that first one.  The
    plan holds for every group built from the same factories; callers
    rewire each follower's ``attr`` onto its leader's accumulator and
    must then drive ``update`` only on the leaders — the followers'
    ``finalize`` reads the shared state."""
    pools: dict = {}
    plan = []
    for i, (src, reducer) in enumerate(reducers):
        attr = SHARED_ACCUMULATORS.get(type(reducer))
        if attr is None:
            continue
        inner = getattr(reducer, attr)
        leader = pools.setdefault((src, attr, type(inner), inner.params), i)
        if leader != i:
            plan.append((i, leader, attr))
    return tuple(plan)


# --------------------------------------------------------------------------
# Columnar kernels — batch twins of the map/reduce functions for the
# vectorized engine path (:meth:`FeatureEngine.consume_batch`).  A
# function class is batch-eligible only when it is *declared* so through
# :func:`declare_columnar_kernel`; every kernel replicates its scalar
# function's arithmetic and None-emission semantics exactly — the
# engine's equivalence gate depends on it.
# --------------------------------------------------------------------------

#: Function class -> ``(kernel, reads, maybe_none, run_stat, fold)``;
#: filled only through :func:`declare_columnar_kernel`.
COLUMNAR_KERNELS: dict[type, tuple] = {}

_KERNEL_READS = frozenset(("src", "tstamp", "direction"))


def declare_columnar_kernel(cls: type, kernel=None,
                            reads: tuple[str, ...] = (),
                            maybe_none: bool = False,
                            run_stat: str | None = None,
                            fold=None) -> None:
    """Declare that ``cls`` has an exact batch twin, so sections using
    it can take the engine's columnar path.

    For a *mapping* class pass ``kernel(fn, src_values, tstamps,
    directions, n)``: it returns the list ``fn.apply`` would have
    produced over a group's ``n`` cells in order (None marks "no
    emission") and leaves ``fn``'s state as those calls would.  For a
    *reducing* class pass no kernel: its ``update_many(values,
    directions=None)`` must equal ``update`` per value in order.
    ``reads`` names what the twin reads beyond that — ``"src"`` (the
    source-value column; maps only), ``"tstamp"`` / ``"direction"``
    (the member's metadata, which ``apply`` / ``update`` read through
    ``member.get``; a column the function does not declare may arrive
    as None).  ``maybe_none`` says a map's ``apply`` can return None.

    ``fold`` gives the function *columnar state*: no object per group,
    only the fold's numpy columns indexed by group row, every group of
    a block updated in one call (:mod:`repro.streaming.folds` has the
    contract and the builtin folds).  A mapping class passes a
    :class:`~repro.streaming.folds.Fold` subclass with ``apply(seg,
    src, tstamps, directions)``; a reducing class ``(factory, stat)``:
    ``factory(accumulator)`` builds the fold from a fresh instance's
    accumulator (the instance itself unless the class is a
    :func:`declare_shared_accumulator` one — every member of a sharing
    family must name the same factory) and ``fold.stat(stat, rows,
    probe)`` is what ``finalize()`` returns.  Without a fold the
    function rides an object column: one instance per group row, driven
    segment by segment through ``kernel`` / ``update_many``.

    ``run_stat`` makes a reducing class eligible under ``collect(pkt)``,
    where a vector is snapshotted after every cell: it names the scalar
    statistic ``finalize()`` returns.  Its object column then runs
    ``update`` and ``finalize()`` per cell, unless the fold is a
    *per-packet* one (``factory`` a class with ``trace``, e.g.
    :class:`~repro.streaming.folds.DampedWelfordFold`), built once from
    the accumulators of every leader in the section that declares it.

    Like :func:`declare_shared_accumulator`, the declaration is per
    exact class and never inherited: a subclass (which may override
    ``apply``/``update``) and any undeclared registration run as the
    engine's *member columns*: one instance per group row, handed each
    cell's member view."""
    unknown = set(reads) - _KERNEL_READS
    if unknown:
        raise ValueError(f"unknown kernel reads {sorted(unknown)} "
                         f"(have {sorted(_KERNEL_READS)})")
    COLUMNAR_KERNELS[cls] = (kernel, frozenset(reads), maybe_none, run_stat,
                             fold)


def _map_one_batch(fn, src, ts, dirs, n):
    return [1] * n


def _map_identity_batch(fn, src, ts, dirs, n):
    return src


def _map_direction_batch(fn, src, ts, dirs, n):
    return [v * d for v, d in zip(src, dirs)]


def _map_ipt_batch(fn, src, ts, dirs, n):
    prev = fn._prev
    out = []
    append = out.append
    for tstamp in ts:
        append(None if prev is None else tstamp - prev)
        prev = tstamp
    fn._prev = prev
    return out


def _map_speed_batch(fn, src, ts, dirs, n):
    prev = fn._prev
    out = []
    append = out.append
    for value, tstamp in zip(src, ts):
        if prev is None or tstamp <= prev:
            append(None)
        else:
            append(value / ((tstamp - prev) / 1e9))
        prev = tstamp
    fn._prev = prev
    return out


def _map_burst_batch(fn, src, ts, dirs, n):
    prev_dir = fn._prev_dir
    burst = fn._burst
    out = []
    append = out.append
    for direction in dirs:
        if prev_dir is not None and direction != prev_dir:
            burst += 1
        prev_dir = direction
        append(burst)
    fn._prev_dir = prev_dir
    fn._burst = burst
    return out


declare_columnar_kernel(_FOne, _map_one_batch, fold=folds.OneMap)
declare_columnar_kernel(_FIdentity, _map_identity_batch, reads=("src",),
                        fold=folds.IdentityMap)
declare_columnar_kernel(_FDirection, _map_direction_batch,
                        reads=("src", "direction"), fold=folds.DirectionMap)
declare_columnar_kernel(_FIpt, _map_ipt_batch, reads=("tstamp",),
                        maybe_none=True, fold=folds.IptMap)
declare_columnar_kernel(_FSpeed, _map_speed_batch,
                        reads=("src", "tstamp"), maybe_none=True,
                        fold=folds.SpeedMap)
declare_columnar_kernel(_FBurst, _map_burst_batch, reads=("direction",),
                        fold=folds.BurstMap)
for _cls, _fold, _stat in [
        (_FSum, folds.SumFold, None),
        (_FMax, folds.MaxFold, None),
        (_FMin, folds.MinFold, None),
        (_FMean, folds.welford_fold, "mean"),
        (_FVar, folds.welford_fold, "variance"),
        (_FStd, folds.welford_fold, "std"),
        (_FSkew, folds.MomentsFold, "skewness"),
        (_FKur, folds.MomentsFold, "kurtosis"),
        (_FtHist, folds.HistogramFold, "result"),
        (_FPdf, folds.HistogramFold, "pdf"),
        (_FCdf, folds.HistogramFold, "cdf"),
        (_FtPercent, folds.HistogramFold, "percentile")]:
    declare_columnar_kernel(_cls, fold=(_fold, _stat))
# Object columns: the sketch and the unbounded array have no fixed-width
# state, and no per-group Table 3 policy reduces the 2D statistics.
for _cls in (_FCard, _FArray):
    declare_columnar_kernel(_cls)
for _cls in (_FMag, _FRadius, _FCov, _FPcc):
    declare_columnar_kernel(_cls, reads=_DIRECTION)


# --------------------------------------------------------------------------
# Synthesizing functions — stateless transforms over a finalized feature
# (scalar or array): apply(value) -> transformed value.
# --------------------------------------------------------------------------

def _f_norm(spec: FnSpec, ctx: ExecContext):
    mode = spec.kwargs_dict.get("mode", "l2")

    def apply(value):
        arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if mode == "l2":
            norm = np.linalg.norm(arr)
            return arr / norm if norm > 0 else arr
        if mode == "minmax":
            lo, hi = arr.min(), arr.max()
            return (arr - lo) / (hi - lo) if hi > lo else np.zeros_like(arr)
        raise ValueError(f"unknown f_norm mode {mode!r}")

    return apply


def _ft_sample(spec: FnSpec, ctx: ExecContext):
    if not spec.args:
        raise ValueError("ft_sample requires a target length: ft_sample{n}")
    n = int(spec.args[0])

    def apply(value):
        arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if len(arr) >= n:
            return arr[:n].copy()
        out = np.zeros(n)
        out[:len(arr)] = arr
        return out

    return apply


def _f_marker(spec: FnSpec, ctx: ExecContext):
    """At each direction change in a signed sequence, emit the cumulative
    sum (bytes/packets) sent up to the change — the CUMUL-style marker
    trace."""

    def apply(value):
        arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if len(arr) == 0:
            return arr
        markers = []
        cumulative = 0.0
        prev_sign = np.sign(arr[0]) or 1.0
        for x in arr:
            sign = np.sign(x) or prev_sign
            if sign != prev_sign:
                markers.append(cumulative)
                prev_sign = sign
            cumulative += x
        markers.append(cumulative)
        return np.asarray(markers)

    return apply


SYNTH_FNS: dict[str, object] = {}


def register_synth_fn(name: str, factory, override: bool = False) -> None:
    """Register a synthesizing-function factory: ``factory(spec, ctx)``
    must return a callable ``apply(value)``."""
    if name in SYNTH_FNS and not override:
        raise ValueError(f"synthesizing function {name!r} already registered")
    SYNTH_FNS[name] = factory


register_synth_fn("f_norm", _f_norm)
register_synth_fn("ft_sample", _ft_sample)
register_synth_fn("f_marker", _f_marker)


def make_synth_fn(spec, ctx: ExecContext | None = None):
    spec, factory = _lookup(SYNTH_FNS, "synthesizing", spec)
    return factory(spec, ctx or ExecContext())
