"""Damped-window incremental statistics (Kitsune's incStat).

The *original* Kitsune feature extractor maintains statistics over a
damped window: before each update, the accumulated state decays by
``2^(-lambda * dt)`` where ``dt`` is the time since the last observation.
This approximates recency-weighted statistics with O(1) state, but the
decay makes every statistic an approximation of the true windowed value —
the source of the "original Kitsune" error that Fig 10 compares SuperFE
against.

State per stream: weight ``w``, linear sum ``LS``, squared sum ``SS`` and
the last-update timestamp.  The 2D variant adds a residual-product sum
``SR`` for covariance/correlation, exactly as Kitsune's incStatCov does.
"""

from __future__ import annotations

import math

import numpy as np


def quantize_decay(factor: float, bits: int) -> float:
    """The NIC's shift-table model of a decay factor: ``2^k * (1 +
    m/2^bits)``, the mantissa truncated to the table's resolution."""
    if factor <= 0.0:
        return 0.0
    scale = 1 << bits
    k = math.floor(math.log2(factor))
    mantissa = factor / (2.0 ** k)         # in [1, 2)
    mantissa = math.floor(mantissa * scale) / scale
    return mantissa * (2.0 ** k)


class DampedStat:
    """1D damped incremental statistics (Kitsune incStat).

    Two knobs model the *original implementation's* approximations (the
    "original Kitsune" series of Fig 10):

    - ``single_precision`` — float32 accumulators combined with the
      SS-form variance (``SS/w - mean^2``), which cancels when the mean
      dominates the spread;
    - ``decay_exp_step`` — the published implementation evaluates
      ``2^(-lam*dt)`` through a precomputed power table; quantizing the
      exponent to multiples of this step reproduces that table's
      resolution error.
    """

    __slots__ = ("lam", "w", "ls", "ss", "last_t", "single_precision",
                 "decay_exp_step")

    state_bytes = 32

    def __init__(self, lam: float, single_precision: bool = False,
                 decay_exp_step: float | None = None) -> None:
        if lam < 0:
            raise ValueError("decay factor must be non-negative")
        self.lam = lam
        self.w = 0.0
        self.ls = 0.0
        self.ss = 0.0
        self.last_t = None
        self.single_precision = single_precision
        self.decay_exp_step = decay_exp_step

    def _round(self, value: float) -> float:
        if not self.single_precision:
            return value
        return float(np.float32(value))

    def _decay(self, t: float) -> None:
        if self.last_t is not None and t > self.last_t and self.lam > 0:
            exponent = self.lam * (t - self.last_t)
            if self.decay_exp_step is not None:
                step = self.decay_exp_step
                exponent = round(exponent / step) * step
            factor = self._round(2.0 ** -exponent)
            self.w = self._round(self.w * factor)
            self.ls = self._round(self.ls * factor)
            self.ss = self._round(self.ss * factor)
        self.last_t = t if self.last_t is None else max(self.last_t, t)

    def update(self, x: float, t: float) -> None:
        self._decay(t)
        self.w = self._round(self.w + 1.0)
        self.ls = self._round(self.ls + x)
        self.ss = self._round(self.ss + x * x)

    @property
    def mean(self) -> float:
        return self.ls / self.w if self.w > 0 else 0.0

    @property
    def variance(self) -> float:
        if self.w <= 0:
            return 0.0
        var = self.ss / self.w - self.mean ** 2
        return max(var, 0.0)

    @property
    def std(self) -> float:
        return self.variance ** 0.5


class DampedWelford:
    """Numerically stable damped statistics: West's weighted incremental
    algorithm with exponentially decaying weights.

    This is the *standard definition* of a damped-window statistic (each
    sample i carries weight ``2^(-lambda (T - t_i))``), computed without
    the ``SS/w - mean^2`` cancellation of the SS-form.  It serves as the
    Fig 10 ground truth, and — with ``decay_quant_bits`` set — as the
    model of SuperFE's NIC implementation, where the decay factor is
    looked up from a shift table with a ``decay_quant_bits``-bit mantissa
    rather than computed in floating point.
    """

    __slots__ = ("lam", "w", "mean", "m2", "last_t", "decay_quant_bits")

    state_bytes = 32

    def __init__(self, lam: float, decay_quant_bits: int | None = None
                 ) -> None:
        if lam < 0:
            raise ValueError("decay factor must be non-negative")
        self.lam = lam
        self.w = 0.0
        self.mean = 0.0
        self.m2 = 0.0
        self.last_t = None
        self.decay_quant_bits = decay_quant_bits

    @property
    def params(self) -> tuple:
        """Constructor parameters: equal tuples mean interchangeable
        accumulators (the reducer-sharing key)."""
        return (self.lam, self.decay_quant_bits)

    def update(self, x: float, t: float) -> None:
        if self.last_t is not None and t > self.last_t and self.lam > 0:
            factor = 2.0 ** (-self.lam * (t - self.last_t))
            if self.decay_quant_bits is not None:
                factor = quantize_decay(factor, self.decay_quant_bits)
            self.w *= factor
            self.m2 *= factor
        self.last_t = t if self.last_t is None else max(self.last_t, t)
        # West's weighted update with sample weight 1.
        self.w += 1.0
        delta = x - self.mean
        self.mean += delta / self.w
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        return self.m2 / self.w if self.w > 0 else 0.0

    @property
    def std(self) -> float:
        return max(self.variance, 0.0) ** 0.5


class DampedCovariance:
    """2D damped statistics over two streams (Kitsune incStatCov).

    Keeps a :class:`DampedStat` per stream plus a decayed residual-product
    sum; the 2D features are magnitude, radius, covariance and PCC of the
    stream pair.
    """

    __slots__ = ("a", "b", "sr", "w_joint", "last_t", "_last_res_a",
                 "_last_res_b")

    def __init__(self, lam: float, single_precision: bool = False,
                 decay_exp_step: float | None = None) -> None:
        self.a = DampedStat(lam, single_precision, decay_exp_step)
        self.b = DampedStat(lam, single_precision, decay_exp_step)
        self.sr = 0.0
        self.w_joint = 0.0
        self.last_t = None
        self._last_res_a = 0.0
        self._last_res_b = 0.0

    state_bytes = 2 * DampedStat.state_bytes + 16

    @property
    def params(self) -> tuple:
        """Constructor parameters (the reducer-sharing key)."""
        return (self.a.lam, self.a.single_precision, self.a.decay_exp_step)

    def _decay_joint(self, t: float) -> None:
        lam = self.a.lam
        if self.last_t is not None and t > self.last_t and lam > 0:
            factor = 2.0 ** (-lam * (t - self.last_t))
            self.sr *= factor
            self.w_joint *= factor
        self.last_t = t if self.last_t is None else max(self.last_t, t)

    def update(self, x: float, t: float, direction: int) -> None:
        """Consume one value from stream a (direction >= 0) or b.

        The residual product pairs the new value's deviation with the
        other stream's last deviation (Kitsune's incStatCov)."""
        self._decay_joint(t)
        if direction >= 0:
            self.a.update(x, t)
            res_self = x - self.a.mean
            res_other = self._last_res_b
            has_other = self.b.w > 0
            self._last_res_a = res_self
        else:
            self.b.update(x, t)
            res_self = x - self.b.mean
            res_other = self._last_res_a
            has_other = self.a.w > 0
            self._last_res_b = res_self
        if has_other:
            self.sr += res_self * res_other
            self.w_joint += 1.0

    @property
    def magnitude(self) -> float:
        return (self.a.mean ** 2 + self.b.mean ** 2) ** 0.5

    @property
    def radius(self) -> float:
        return (self.a.variance ** 2 + self.b.variance ** 2) ** 0.5

    @property
    def covariance(self) -> float:
        return self.sr / self.w_joint if self.w_joint > 0 else 0.0

    @property
    def pcc(self) -> float:
        denom = self.a.std * self.b.std
        return self.covariance / denom if denom > 0 else 0.0

    def stats(self) -> tuple[float, float, float, float]:
        """Kitsune's 2D feature quadruple."""
        return (self.magnitude, self.radius, self.covariance, self.pcc)
