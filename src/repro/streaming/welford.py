"""Welford's single-pass mean/variance (§6.1, equations 1-2).

Two variants:

- :class:`Welford` — the textbook online algorithm, numerically stable,
  used when floating point is available (the software baseline and the
  reference implementation).
- :class:`WelfordDivisionFree` — the SmartNIC variant of §6.2: NFP cores
  have no FPU, and the compiler's soft division costs ~1500 cycles, so the
  per-packet division ``(x_n - mean)/n`` is replaced with comparisons.
  The replacement makes the running mean an integer approximation whose
  error the paper bounds experimentally at <4% (Fig 10).
"""

from __future__ import annotations


class Welford:
    """Streaming mean and variance with O(1) state.

    State: sample count ``n``, running mean, and ``M2`` (sum of squared
    deviations).  ``variance`` is the population variance, matching the
    paper's equation (2) which divides by ``n``.
    """

    __slots__ = ("n", "mean", "m2")

    #: n (8 B) + mean (8 B) + M2 (8 B) — the "small amount of storage"
    #: of §6.1.
    state_bytes = 24
    params = ()     # parameter-free (reducer-sharing key)

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def update_many(self, values) -> None:
        """Batch update: the same sequential recurrence with the state
        held in locals for the duration of the slice (bit-identical to
        calling :meth:`update` per value — the recurrence is order-
        sensitive, so there is no closed form to jump to)."""
        n = self.n
        mean = self.mean
        m2 = self.m2
        for x in values:
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        self.n = n
        self.mean = mean
        self.m2 = m2

    @property
    def variance(self) -> float:
        return self.m2 / self.n if self.n > 0 else 0.0

    @property
    def std(self) -> float:
        return self.variance ** 0.5

    def result(self) -> float:
        return self.mean

    def merge(self, other: "Welford") -> None:
        """Chan's parallel combination of two partial states."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return
        total = self.n + other.n
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.n * other.n / total
        self.mean += delta * other.n / total
        self.n = total


class WelfordDivisionFree:
    """Division-free integer approximation of Welford's mean update.

    The mean increment ``delta / n`` is resolved by comparison: when
    ``|delta| < n`` the increment is 0, when ``n <= |delta| < 2n`` it is
    ±1, and only in the rare large-delta case does a (soft) division run.
    A fractional remainder is accumulated so the approximation does not
    drift systematically: once the accumulated remainder exceeds ``n`` the
    mean is nudged by 1 (again a comparison, not a division).

    Variance tracking reuses the M2 recurrence with the approximate mean;
    the resulting relative error on real traffic is small (validated in
    ``tests/test_streaming/test_welford.py`` and measured in Fig 10).
    """

    __slots__ = ("n", "mean", "m2", "_rem")

    state_bytes = 32  # n, mean, M2, remainder accumulator
    params = ()

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0
        self.m2 = 0.0
        self._rem = 0

    def update(self, x: int) -> None:
        n = self.n + 1
        x = int(x)
        mean = old_mean = self.mean
        rem = self._rem
        delta = x - mean
        mag = delta if delta >= 0 else -delta
        if mag < n:
            # Increment is 0; bank the remainder (signed).
            rem += delta
        elif mag < 2 * n:
            step = 1 if delta > 0 else -1
            mean += step
            rem += delta - step * n
        else:
            # Rare slow path: the 1500-cycle soft division.
            step = delta // n if delta >= 0 else -((-delta) // n)
            mean += step
            rem += delta - step * n
        # Drain the remainder bank by comparison.
        while rem >= n:
            mean += 1
            rem -= n
        while rem <= -n:
            mean -= 1
            rem += n
        self.n = n
        self.mean = mean
        self._rem = rem
        self.m2 += float(x - old_mean) * float(x - mean)

    def update_many(self, values) -> None:
        """Batch update over a value slice: the exact :meth:`update`
        body with ``n``/``mean``/``m2``/``rem`` as loop locals.  The
        comparison-based mean step and the remainder bank make the
        recurrence strictly order-sequential, so the win is attribute-
        access elimination, not vectorization — and the bits match the
        one-at-a-time path exactly."""
        n = self.n
        mean = self.mean
        m2 = self.m2
        rem = self._rem
        for x in values:
            n += 1
            x = int(x)
            old_mean = mean
            delta = x - mean
            mag = delta if delta >= 0 else -delta
            if mag < n:
                rem += delta
            elif mag < 2 * n:
                step = 1 if delta > 0 else -1
                mean += step
                rem += delta - step * n
            else:
                step = delta // n if delta >= 0 else -((-delta) // n)
                mean += step
                rem += delta - step * n
            while rem >= n:
                mean += 1
                rem -= n
            while rem <= -n:
                mean -= 1
                rem += n
            m2 += float(x - old_mean) * float(x - mean)
        self.n = n
        self.mean = mean
        self.m2 = m2
        self._rem = rem

    @property
    def variance(self) -> float:
        return self.m2 / self.n if self.n > 0 else 0.0

    @property
    def std(self) -> float:
        return max(self.variance, 0.0) ** 0.5

    def result(self) -> float:
        return float(self.mean)
