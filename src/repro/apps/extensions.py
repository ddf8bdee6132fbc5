"""Application-registered SuperFE extensions (§4.1's extension path).

The Table 3 applications need a handful of functions beyond the built-in
Table 5 set; each is registered through the public extension API exactly
as a SuperFE user would:

- mapping: ``f_ingress_only`` / ``f_egress_only`` — pass the source value
  only for packets of one direction (CUMUL's per-direction sums);
- reducing: the damped-window family ``f_dw{lam}``, ``f_dmean{lam}``,
  ``f_dstd{lam}`` (1D) and ``f_dmag/f_dradius/f_dcov/f_dpcc{lam}`` (2D) —
  Kitsune/N-BaIoT/HELAD time-decayed statistics, computed with the stable
  decayed-Welford streaming algorithm (shift-table decay on the NIC);
- synthesizing: ``f_cumsum`` — cumulative sum of a signed sequence
  (the CUMUL trace).

Timestamps reach the damped reducers through the member's ``tstamp``
metadata (declared via ``implicit_fields`` so the compiler batches it).
Registration is idempotent: :func:`install` may be called repeatedly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.functions import (
    FnSpec,
    MAP_FNS,
    NS_PER_S,
    REDUCE_FNS,
    SYNTH_FNS,
    declare_columnar_kernel,
    declare_shared_accumulator,
    register_map_fn,
    register_reduce_fn,
    register_synth_fn,
)
from repro.streaming.damped import DampedCovariance, DampedWelford

#: Decay-factor mantissa bits of the NIC's shift-table model (division-free
#: path); None means exact floating-point decay.
NIC_DECAY_QUANT_BITS = 8


class _DirectionGate:
    """Pass the source value only for packets of the given direction."""

    def __init__(self, wanted: int) -> None:
        self.wanted = wanted

    def apply(self, member, src_value):
        if member.get("direction") == self.wanted:
            return src_value
        return None


def _direction_gate_batch(fn, src, ts, dirs, n):
    """``_DirectionGate.apply`` over a group's cells (columnar twin)."""
    wanted = fn.wanted
    return [v if d == wanted else None for v, d in zip(src, dirs)]


@lru_cache(maxsize=256)
def _damped_lam(spec: FnSpec) -> float:
    """The decay factor of a damped-reducer spec, parsed once per spec
    instead of once per group instance."""
    lam = float(spec.kwargs_dict.get("lam", spec.args[0]
                                     if spec.args else 1.0))
    if lam < 0:
        raise ValueError(f"{spec}: decay factor must be non-negative")
    return lam


class _DampedReduce1D:
    """Base for the damped 1D reducers: maintains one decayed-Welford
    state keyed by the member's timestamp (converted to seconds, the unit
    of Kitsune's lambda)."""

    __slots__ = ("_d",)

    def __init__(self, spec: FnSpec, ctx) -> None:
        self._d = DampedWelford(
            _damped_lam(spec),
            NIC_DECAY_QUANT_BITS if ctx.division_free else None)

    state_bytes = DampedWelford.state_bytes

    def update(self, value, member) -> None:
        self._d.update(value, member.get("tstamp") / NS_PER_S)


class _FDw(_DampedReduce1D):
    __slots__ = ()
    def finalize(self) -> float:
        return self._d.w


class _FDmean(_DampedReduce1D):
    __slots__ = ()
    def finalize(self) -> float:
        return self._d.mean


class _FDstd(_DampedReduce1D):
    __slots__ = ()
    def finalize(self) -> float:
        return self._d.std


class _DampedReduce2D:
    """Base for the damped 2D reducers over the two directions."""

    __slots__ = ("_d",)

    state_bytes = DampedCovariance.state_bytes

    def __init__(self, spec: FnSpec, ctx) -> None:
        self._d = DampedCovariance(_damped_lam(spec))

    def update(self, value, member) -> None:
        self._d.update(value, member.get("tstamp") / NS_PER_S,
                       member.get("direction"))


class _FDmag(_DampedReduce2D):
    __slots__ = ()
    def finalize(self) -> float:
        return self._d.magnitude


class _FDradius(_DampedReduce2D):
    __slots__ = ()
    def finalize(self) -> float:
        return self._d.radius


class _FDcov(_DampedReduce2D):
    __slots__ = ()
    def finalize(self) -> float:
        return self._d.covariance


class _FDpcc(_DampedReduce2D):
    __slots__ = ()
    def finalize(self) -> float:
        return self._d.pcc


def _f_cumsum(spec: FnSpec, ctx):
    def apply(value):
        return np.cumsum(np.atleast_1d(np.asarray(value,
                                                  dtype=np.float64)))
    return apply


#: Cycle-model operation counts for the extension functions (see
#: repro.nicsim.cycles): the damped family adds the decay lookup (shifts)
#: on top of a Welford-style update.
_EXTENSION_FN_OPS = {
    "f_dw": {"alu": 3, "shift": 3, "mul": 2},
    "f_dmean": {"alu": 4, "shift": 3, "mul": 2, "div": 1},
    "f_dstd": {"alu": 5, "shift": 3, "mul": 3, "div": 1},
    "f_dmag": {"alu": 5, "shift": 3, "mul": 3, "div": 1},
    "f_dradius": {"alu": 5, "shift": 3, "mul": 3, "div": 1},
    "f_dcov": {"alu": 6, "shift": 3, "mul": 3, "div": 1},
    "f_dpcc": {"alu": 6, "shift": 3, "mul": 4, "div": 1},
}


def install() -> None:
    """Register every application extension (idempotent)."""
    if "f_ingress_only" not in MAP_FNS:
        register_map_fn("f_ingress_only",
                        lambda spec, ctx: _DirectionGate(-1),
                        implicit_fields=("direction",))
        register_map_fn("f_egress_only",
                        lambda spec, ctx: _DirectionGate(1),
                        implicit_fields=("direction",))
        # The gate has an exact batch twin, so CUMUL takes the engine's
        # columnar path like any builtin-only policy.
        declare_columnar_kernel(_DirectionGate, _direction_gate_batch,
                                reads=("src", "direction"),
                                maybe_none=True)

    damped = {
        "f_dw": (_FDw, "w"), "f_dmean": (_FDmean, "mean"),
        "f_dstd": (_FDstd, "std"), "f_dmag": (_FDmag, "magnitude"),
        "f_dradius": (_FDradius, "radius"),
        "f_dcov": (_FDcov, "covariance"), "f_dpcc": (_FDpcc, "pcc"),
    }
    for name, (cls, stat) in damped.items():
        if name in REDUCE_FNS:
            continue
        fields = (("tstamp", "direction")
                  if issubclass(cls, _DampedReduce2D) else ("tstamp",))
        register_reduce_fn(
            name, (lambda c: lambda spec, ctx: c(spec, ctx))(cls),
            implicit_fields=fields)
        # One DampedWelford / DampedCovariance per (source, lam) serves
        # the whole family (Kitsune: 35 accumulators, not 115), and its
        # run kernel emits the family's columns under collect(pkt).
        declare_shared_accumulator(cls, "_d")
        declare_columnar_kernel(cls, reads=fields, run_stat=stat)

    if "f_cumsum" not in SYNTH_FNS:
        register_synth_fn("f_cumsum", _f_cumsum)

    from repro.nicsim import cycles
    for name, ops in _EXTENSION_FN_OPS.items():
        if name not in cycles.REDUCE_FN_OPS:
            cycles.register_fn_ops(name, ops, kind="reduce")
