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


#: Registered factory object -> cheaper constructor for the per-group
#: instantiation path: the builtin factories ignore ``spec`` (and some
#: ignore ``ctx``), so ``make_*_factory`` can hand groups the class (or
#: a ctx-bound partial) directly instead of two nested lambda frames.
#: Keyed by factory identity, so user re-registrations never match.
_ZERO_ARG_FACTORIES: dict = {}
_CTX_ARG_FACTORIES: dict = {}

for _name, _cls, _fields in [
        ("f_one", _FOne, ()),
        ("f_ipt", _FIpt, ("tstamp",)),
        ("f_speed", _FSpeed, ("tstamp",)),
        ("f_direction", _FDirection, ("direction",)),
        ("f_burst", _FBurst, ("direction",)),
        ("f_identity", _FIdentity, ())]:
    _factory = (lambda cls: lambda spec, ctx: cls())(_cls)
    register_map_fn(_name, _factory, implicit_fields=_fields)
    _ZERO_ARG_FACTORIES[_factory] = _cls


def make_map_fn(spec, ctx: ExecContext | None = None):
    spec = parse_fn_spec(spec)
    ctx = ctx or ExecContext()
    try:
        factory = MAP_FNS[spec.name]
    except KeyError:
        raise KeyError(f"unknown mapping function {spec.name!r} "
                       f"(have {sorted(MAP_FNS)})") from None
    return factory(spec, ctx)


def make_map_factory(spec, ctx: ExecContext | None = None):
    """Resolve a mapping-fn spec once and return a zero-arg constructor
    of fresh instances — the per-new-group path skips re-parsing."""
    spec = parse_fn_spec(spec)
    ctx = ctx or ExecContext()
    try:
        factory = MAP_FNS[spec.name]
    except KeyError:
        raise KeyError(f"unknown mapping function {spec.name!r} "
                       f"(have {sorted(MAP_FNS)})") from None
    cls = _ZERO_ARG_FACTORIES.get(factory)
    if cls is not None:
        return cls
    return partial(factory, spec, ctx)


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
        # max() keeps the earliest maximal element, exactly like the
        # sequential fold (ties — including the -0.0/0.0 float tie —
        # resolve to the same object either way).
        if not values:
            return
        best = max(values)
        self.value = best if self.value is None else max(self.value, best)


class _FMin(_ScalarReduce):
    __slots__ = ()
    def update(self, value, member) -> None:
        self.value = value if self.value is None else min(self.value, value)

    def update_many(self, values, directions=None) -> None:
        if not values:
            return
        best = min(values)
        self.value = best if self.value is None else min(self.value, best)


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
        update = self._m.update
        for value in values:
            update(value)


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
        update = self._h.update
        for value in values:
            update(value)


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


def _hist_params(spec: FnSpec) -> tuple[float, int]:
    if len(spec.args) >= 2:
        return float(spec.args[0]), int(spec.args[1])
    return _DEFAULT_HIST


register_reduce_fn("f_sum", lambda spec, ctx: _FSum())
register_reduce_fn("f_max", lambda spec, ctx: _FMax())
register_reduce_fn("f_min", lambda spec, ctx: _FMin())
register_reduce_fn("f_mean", lambda spec, ctx: _FMean(ctx))
register_reduce_fn("f_var", lambda spec, ctx: _FVar(ctx))
register_reduce_fn("f_std", lambda spec, ctx: _FStd(ctx))
register_reduce_fn("f_skew", lambda spec, ctx: _FSkew())
register_reduce_fn("f_kur", lambda spec, ctx: _FKur())
register_reduce_fn("f_mag", lambda spec, ctx: _FMag(),
                   implicit_fields=("direction",))
register_reduce_fn("f_radius", lambda spec, ctx: _FRadius(),
                   implicit_fields=("direction",))
register_reduce_fn("f_cov", lambda spec, ctx: _FCov(),
                   implicit_fields=("direction",))
register_reduce_fn("f_pcc", lambda spec, ctx: _FPcc(),
                   implicit_fields=("direction",))
register_reduce_fn(
    "f_card",
    lambda spec, ctx: _FCard(int(spec.kwargs_dict.get("k", 6))))
register_reduce_fn("f_array", lambda spec, ctx: _FArray())
register_reduce_fn(
    "ft_hist", lambda spec, ctx: _FtHist(float(spec.args[0]),
                                         int(spec.args[1])))
register_reduce_fn("f_pdf", lambda spec, ctx: _FPdf(*_hist_params(spec)))
register_reduce_fn("f_cdf", lambda spec, ctx: _FCdf(*_hist_params(spec)))
register_reduce_fn(
    "ft_percent",
    lambda spec, ctx: _FtPercent(
        float(spec.args[0]),
        *( (float(spec.args[1]), int(spec.args[2]))
           if len(spec.args) >= 3 else _DEFAULT_HIST )))

for _name, _cls in (("f_sum", _FSum), ("f_max", _FMax), ("f_min", _FMin),
                    ("f_skew", _FSkew), ("f_kur", _FKur),
                    ("f_mag", _FMag), ("f_radius", _FRadius),
                    ("f_cov", _FCov), ("f_pcc", _FPcc),
                    ("f_array", _FArray)):
    _ZERO_ARG_FACTORIES[REDUCE_FNS[_name]] = _cls
for _name, _cls in (("f_mean", _FMean), ("f_var", _FVar),
                    ("f_std", _FStd)):
    _CTX_ARG_FACTORIES[REDUCE_FNS[_name]] = _cls


def make_reduce_fn(spec, ctx: ExecContext | None = None):
    spec = parse_fn_spec(spec)
    ctx = ctx or ExecContext()
    try:
        factory = REDUCE_FNS[spec.name]
    except KeyError:
        raise KeyError(f"unknown reducing function {spec.name!r} "
                       f"(have {sorted(REDUCE_FNS)})") from None
    return factory(spec, ctx)


def make_reduce_factory(spec, ctx: ExecContext | None = None):
    """Resolve a reducing-fn spec once and return a zero-arg constructor
    of fresh instances — the per-new-group path skips re-parsing."""
    spec = parse_fn_spec(spec)
    ctx = ctx or ExecContext()
    try:
        factory = REDUCE_FNS[spec.name]
    except KeyError:
        raise KeyError(f"unknown reducing function {spec.name!r} "
                       f"(have {sorted(REDUCE_FNS)})") from None
    cls = _ZERO_ARG_FACTORIES.get(factory)
    if cls is not None:
        return cls
    cls = _CTX_ARG_FACTORIES.get(factory)
    if cls is not None:
        return partial(cls, ctx)
    return partial(factory, spec, ctx)


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
# Columnar kernels — batch twins of the builtin map/reduce functions for
# the vectorized engine path (:meth:`FeatureEngine.consume_batch`).  Every
# kernel replicates its scalar function's arithmetic and None-emission
# semantics exactly; the engine's equivalence gate depends on it.  All
# tables are exact-type keyed so user registrations (including subclasses
# that override ``update``/``apply``) never take the columnar path.
# --------------------------------------------------------------------------

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


#: map class -> kernel(fn, src_values, tstamps, directions, n) returning
#: the mapped-value list (None marks "no emission", as in apply()).
_COLUMNAR_MAP_KERNELS: dict[type, object] = {
    _FOne: _map_one_batch,
    _FIdentity: _map_identity_batch,
    _FDirection: _map_direction_batch,
    _FIpt: _map_ipt_batch,
    _FSpeed: _map_speed_batch,
    _FBurst: _map_burst_batch,
}

#: Map classes whose kernel reads the source-value column.
_MAP_NEEDS_SRC: frozenset = frozenset((_FIdentity, _FDirection, _FSpeed))

#: Map classes whose kernel reads the timestamp / direction columns.
_MAP_NEEDS_TS: frozenset = frozenset((_FIpt, _FSpeed))
_MAP_NEEDS_DIR: frozenset = frozenset((_FDirection, _FBurst))

#: Reducer classes with an exact batch path (update_many).
_COLUMNAR_REDUCERS: frozenset = frozenset((
    _FSum, _FMax, _FMin, _FMean, _FVar, _FStd, _FSkew, _FKur,
    _FMag, _FRadius, _FCov, _FPcc, _FCard, _FArray,
    _FtHist, _FPdf, _FCdf, _FtPercent))

#: Reducer classes whose update reads the member's direction.
_DIRECTION_REDUCERS: frozenset = frozenset((_FMag, _FRadius, _FCov, _FPcc))


#: Map classes that can emit None ("no value for this member"); every
#: other builtin emits a value for every member.
_MAP_MAYBE_NONE: frozenset = frozenset((_FIpt, _FSpeed))


def factory_class(factory):
    """The concrete function class a resolved factory instantiates, or
    None for opaque (user-registered) factories.  ``make_*_factory``
    returns the class itself for zero-arg builtins and a ctx-bound
    partial for the Welford family; anything else is opaque."""
    if isinstance(factory, type):
        return factory
    if isinstance(factory, partial) and isinstance(factory.func, type):
        return factory.func
    return None


def columnar_map_kernel_for(cls):
    """The batch kernel for a map class, or None (no exact twin)."""
    return _COLUMNAR_MAP_KERNELS.get(cls)


def map_class_needs(cls) -> tuple[bool, bool, bool]:
    """(needs_src, needs_tstamp, needs_direction) for a map class."""
    return (cls in _MAP_NEEDS_SRC, cls in _MAP_NEEDS_TS,
            cls in _MAP_NEEDS_DIR)


def map_class_maybe_none(cls) -> bool:
    """True when the class's apply() can return None mid-group."""
    return cls in _MAP_MAYBE_NONE


def columnar_reduce_class_ok(cls) -> bool:
    """True when the reducer class has an exact batch update path."""
    return cls in _COLUMNAR_REDUCERS


def reduce_class_needs_directions(cls) -> bool:
    return cls in _DIRECTION_REDUCERS


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
    spec = parse_fn_spec(spec)
    ctx = ctx or ExecContext()
    try:
        factory = SYNTH_FNS[spec.name]
    except KeyError:
        raise KeyError(f"unknown synthesizing function {spec.name!r} "
                       f"(have {sorted(SYNTH_FNS)})") from None
    return factory(spec, ctx)
