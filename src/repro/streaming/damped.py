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

    def stats(self) -> tuple[float, float, float]:
        """Kitsune's per-stream 1D feature triple (weight, mean, std)."""
        return (self.w, self.mean, self.std)


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

    def _decay_factor(self, dt: float) -> float:
        factor = 2.0 ** (-self.lam * dt)
        if self.decay_quant_bits is None:
            return factor
        # Shift-table model: factor = 2^-k * (1 + m/2^bits); quantize the
        # mantissa to the table's resolution.
        if factor <= 0.0:
            return 0.0
        scale = 1 << self.decay_quant_bits
        k = math.floor(math.log2(factor))
        mantissa = factor / (2.0 ** k)         # in [1, 2)
        mantissa = math.floor(mantissa * scale) / scale
        return mantissa * (2.0 ** k)

    def update(self, x: float, t: float) -> None:
        if self.last_t is not None and t > self.last_t and self.lam > 0:
            factor = self._decay_factor(t - self.last_t)
            self.w *= factor
            self.m2 *= factor
        self.last_t = t if self.last_t is None else max(self.last_t, t)
        # West's weighted update with sample weight 1.
        self.w += 1.0
        delta = x - self.mean
        self.mean += delta / self.w
        self.m2 += delta * (x - self.mean)

    #: What :meth:`update_run` snapshots after every cell, in ``cols`` order.
    RUN_STATS = ("w", "mean", "std")

    def update_run(self, values, ts, dirs, out, at, cols, memo=None) -> None:
        """Exact run kernel: :meth:`update` over a group's ordered run
        ``(values[j], ts[j])`` with the state held in locals.  A ``None``
        value is "no update, snapshot anyway"; after every cell the
        ``RUN_STATS`` are stored at ``out[at[j] + cols[k]]`` in the
        float-op order of the properties (a caller that does not want a
        statistic points it at a scratch column).  ``memo`` lets the
        kernels of one run, which see the same gaps, compute each
        ``(params, dt)`` decay factor once."""
        lam, w, mean, m2, last = (self.lam, self.w, self.mean, self.m2,
                                  self.last_t)
        c_w, c_mean, c_std = cols
        factors = {} if memo is None else memo.setdefault(self.params, {})
        for x, t, o in zip(values, ts, at):
            if x is not None:
                if last is None:
                    last = t
                elif t > last:
                    if lam > 0:
                        factor = factors.get(t - last)
                        if factor is None:
                            factor = factors[t - last] = (
                                self._decay_factor(t - last))
                        w *= factor
                        m2 *= factor
                    last = t
                w += 1.0
                delta = x - mean
                mean += delta / w
                m2 += delta * (x - mean)
            out[o + c_w] = w
            out[o + c_mean] = mean
            var = m2 / w if w > 0 else 0.0
            out[o + c_std] = (var if var > 0 else max(var, 0.0)) ** 0.5
        self.w, self.mean, self.m2, self.last_t = w, mean, m2, last

    @property
    def variance(self) -> float:
        return self.m2 / self.w if self.w > 0 else 0.0

    @property
    def std(self) -> float:
        return max(self.variance, 0.0) ** 0.5

    def stats(self) -> tuple[float, float, float]:
        return (self.w, self.mean, self.std)


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

    #: What :meth:`update_run` snapshots after every cell, in ``cols`` order.
    RUN_STATS = ("magnitude", "radius", "covariance", "pcc")

    def update_run(self, values, ts, dirs, out, at, cols, memo=None) -> None:
        """Exact run kernel over ``(values[j], ts[j], dirs[j])`` — the
        contract of :meth:`DampedWelford.update_run`.  Instances with a
        non-default ``single_precision`` / ``decay_exp_step`` replay the
        scalar :meth:`update` rather than a second inlined copy."""
        a, b = self.a, self.b
        if a.single_precision or a.decay_exp_step is not None:
            for x, t, d, o in zip(values, ts, dirs, at):
                if x is not None:
                    self.update(x, t, d)
                for c, stat in zip(cols, self.stats()):
                    out[o + c] = stat
            return
        c_mag, c_rad, c_cov, c_pcc = cols
        lam = a.lam
        sr, wj, last = self.sr, self.w_joint, self.last_t
        # s* holds the stream being updated and o* the other one; they
        # swap when the direction flips (every statistic is symmetric
        # in the two).  msq/vsq/std: mean^2, variance^2, std.
        s_is_a = True
        sw, sls, sss, slast, sres = a.w, a.ls, a.ss, a.last_t, self._last_res_a
        ow, ols, oss, olast, ores = b.w, b.ls, b.ss, b.last_t, self._last_res_b
        smsq, svsq, sstd = a.mean ** 2, a.variance ** 2, a.std
        omsq, ovsq, ostd = b.mean ** 2, b.variance ** 2, b.std
        for x, t, d, o in zip(values, ts, dirs, at):
            if x is not None:
                if last is None:
                    last = t
                elif t > last:
                    if lam > 0:
                        factor = 2.0 ** (-lam * (t - last))
                        sr *= factor
                        wj *= factor
                    last = t
                if (d >= 0) is not s_is_a:
                    s_is_a = not s_is_a
                    (sw, sls, sss, slast, sres, smsq, svsq, sstd,
                     ow, ols, oss, olast, ores, omsq, ovsq, ostd) = (
                        ow, ols, oss, olast, ores, omsq, ovsq, ostd,
                        sw, sls, sss, slast, sres, smsq, svsq, sstd)
                if slast is None:
                    slast = t
                elif t > slast:
                    if lam > 0:
                        factor = 2.0 ** -(lam * (t - slast))
                        sw *= factor
                        sls *= factor
                        sss *= factor
                    slast = t
                sw += 1.0
                sls += x
                sss += x * x
                mean = sls / sw if sw > 0 else 0.0
                smsq = mean ** 2
                var = 0.0 if sw <= 0 else sss / sw - smsq
                if not var > 0.0:
                    var = max(var, 0.0)
                svsq = var ** 2
                sstd = var ** 0.5
                sres = x - mean
                if ow > 0:
                    sr += sres * ores
                    wj += 1.0
            out[o + c_mag] = (smsq + omsq) ** 0.5
            out[o + c_rad] = (svsq + ovsq) ** 0.5
            out[o + c_cov] = cov = sr / wj if wj > 0 else 0.0
            denom = sstd * ostd
            out[o + c_pcc] = cov / denom if denom > 0 else 0.0
        if not s_is_a:
            a, b = b, a
        a.w, a.ls, a.ss, a.last_t = sw, sls, sss, slast
        b.w, b.ls, b.ss, b.last_t = ow, ols, oss, olast
        self.sr, self.w_joint, self.last_t = sr, wj, last
        self._last_res_a, self._last_res_b = (
            (sres, ores) if s_is_a else (ores, sres))

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
