"""Single-pass higher-order moments: skewness and kurtosis.

SuperFE's reducing-function table (Table 5) includes ``f_skew`` and
``f_kur``.  Both derive from the third and fourth central moments, which
admit a one-pass update (Pébay's generalization of Welford) with O(1)
state — the form FE-NIC runs.
"""

from __future__ import annotations


class StreamingMoments:
    """One-pass mean/variance/skewness/kurtosis.

    State: ``n``, mean, and central-moment sums M2, M3, M4.  Skewness is
    the standardized third moment ``g1 = (M3/n) / (M2/n)^1.5``; kurtosis is
    the (non-excess) standardized fourth moment ``(M4/n) / (M2/n)^2``,
    matching ``scipy.stats.kurtosis(..., fisher=False)``.
    """

    __slots__ = ("n", "mean", "m2", "m3", "m4")

    state_bytes = 40
    params = ()     # parameter-free (reducer-sharing key)

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0

    def update(self, x: float) -> None:
        n1 = self.n
        self.n += 1
        delta = x - self.mean
        delta_n = delta / self.n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self.mean += delta_n
        self.m4 += (term1 * delta_n2 * (self.n * self.n - 3 * self.n + 3)
                    + 6 * delta_n2 * self.m2 - 4 * delta_n * self.m3)
        self.m3 += term1 * delta_n * (self.n - 2) - 3 * delta_n * self.m2
        self.m2 += term1

    def update_many(self, values) -> None:
        """Batch update: the :meth:`update` recurrence with the state
        held in locals for the slice (bit-identical — same operations in
        the same order; the recurrence is order-sensitive)."""
        n = self.n
        mean = self.mean
        m2 = self.m2
        m3 = self.m3
        m4 = self.m4
        for x in values:
            n1 = n
            n += 1
            delta = x - mean
            delta_n = delta / n
            delta_n2 = delta_n * delta_n
            term1 = delta * delta_n * n1
            mean += delta_n
            m4 += (term1 * delta_n2 * (n * n - 3 * n + 3)
                   + 6 * delta_n2 * m2 - 4 * delta_n * m3)
            m3 += term1 * delta_n * (n - 2) - 3 * delta_n * m2
            m2 += term1
        self.n = n
        self.mean = mean
        self.m2 = m2
        self.m3 = m3
        self.m4 = m4

    @property
    def variance(self) -> float:
        return self.m2 / self.n if self.n > 0 else 0.0

    @property
    def std(self) -> float:
        return self.variance ** 0.5

    @property
    def skewness(self) -> float:
        if self.n < 2 or self.m2 <= 0:
            return 0.0
        return (self.m3 / self.n) / (self.m2 / self.n) ** 1.5

    @property
    def kurtosis(self) -> float:
        if self.n < 2 or self.m2 <= 0:
            return 0.0
        return (self.m4 / self.n) / (self.m2 / self.n) ** 2

    def result(self) -> float:
        return self.skewness

    def merge(self, other: "StreamingMoments") -> None:
        """Pébay's pairwise combination of moment states."""
        if other.n == 0:
            return
        if self.n == 0:
            for name in self.__slots__:
                setattr(self, name, getattr(other, name))
            return
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        d2, d3, d4 = delta * delta, 0.0, 0.0
        d3 = d2 * delta
        d4 = d3 * delta
        m2 = self.m2 + other.m2 + d2 * na * nb / n
        m3 = (self.m3 + other.m3
              + d3 * na * nb * (na - nb) / (n * n)
              + 3.0 * delta * (na * other.m2 - nb * self.m2) / n)
        m4 = (self.m4 + other.m4
              + d4 * na * nb * (na * na - na * nb + nb * nb) / (n ** 3)
              + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
              + 4.0 * delta * (na * other.m3 - nb * self.m3) / n)
        self.mean = (na * self.mean + nb * other.mean) / n
        self.n, self.m2, self.m3, self.m4 = n, m2, m3, m4
