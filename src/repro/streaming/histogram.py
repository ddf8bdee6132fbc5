"""Histogram-family reducers: ``ft_hist``, ``f_pdf``, ``f_cdf``,
``ft_percent`` (§6.1).

``ft_hist`` is the basis implementation: an array of bin counters whose
width and count the user specifies (Fig 4's
``ft_hist{10000, 100}``).  The other distribution features derive from it:
the PDF is the normalized histogram, the CDF its normalized cumulative sum,
and a quantile is read off the CDF.  SuperFE additionally supports
variable-width bins (D'Agostino & Stephens) to spend resolution where the
data mass is; :class:`VariableWidthHistogram` implements that with explicit
edges and a log-spaced constructor, since inter-packet times span many
orders of magnitude.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class FixedWidthHistogram:
    """Histogram with ``n_bins`` bins of fixed ``width`` starting at
    ``origin``; values beyond the last edge land in the final bin and
    values below ``origin`` in the first (saturating, as the P4/Micro-C
    implementation clamps indices)."""

    def __init__(self, width: float, n_bins: int, origin: float = 0.0
                 ) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        self.width = width
        self.n_bins = n_bins
        self.origin = origin
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.total = 0
        # (total, cdf) memo for percentile(): several quantiles read off
        # one histogram between updates (every update moves ``total``).
        self._cdf = (0, None)

    @property
    def state_bytes(self) -> int:
        return 8 * self.n_bins

    @property
    def params(self) -> tuple:
        """Constructor parameters: equal tuples mean interchangeable
        accumulators (the reducer-sharing key)."""
        return (self.width, self.n_bins, self.origin)

    def update(self, x: float) -> None:
        idx = int((x - self.origin) // self.width)
        if idx < 0:
            idx = 0
        elif idx >= self.n_bins:
            idx = self.n_bins - 1
        self.counts[idx] += 1
        self.total += 1

    def update_many(self, values) -> None:
        """Batch update, bit-identical to :meth:`update` per value: the
        same ``int((x - origin) // width)`` per value, then one clip and
        one ``np.bincount`` (integer bin counts commute)."""
        origin = self.origin
        width = self.width
        idx = [int((x - origin) // width) for x in values]
        if not idx:
            return
        top = self.n_bins - 1
        if min(idx) < 0 or max(idx) > top:
            idx = [0 if i < 0 else top if i > top else i for i in idx]
        self.counts += np.bincount(idx, minlength=self.n_bins)
        self.total += len(idx)

    def result(self) -> np.ndarray:
        return self.counts.copy()

    def pdf(self) -> np.ndarray:
        """Normalized histogram (sums to 1; zeros when empty)."""
        if self.total == 0:
            return np.zeros(self.n_bins)
        return self.counts / self.total

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over the bins (last entry = 1)."""
        if self.total == 0:
            return np.zeros(self.n_bins)
        return np.cumsum(self.counts) / self.total

    def percentile(self, q: float) -> float:
        """Approximate the q-th percentile (q in [0, 100]) as the upper
        edge of the first bin whose CDF reaches q."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.total == 0:
            return self.origin
        total, cdf = self._cdf
        if total != self.total:
            cdf = self.cdf()
            self._cdf = (self.total, cdf)
        idx = min(int(cdf.searchsorted(q / 100.0)), self.n_bins - 1)
        return self.origin + (idx + 1) * self.width

    def fraction_below(self, x: float) -> float:
        """``ft_percent`` for a value: fraction of observations in bins
        strictly below x's bin ("adding up those bins lower than that
        data")."""
        if self.total == 0:
            return 0.0
        idx = int((x - self.origin) // self.width)
        idx = max(0, min(idx, self.n_bins))
        return float(self.counts[:idx].sum() / self.total)

    def merge(self, other: "FixedWidthHistogram") -> None:
        if other.params != self.params:
            raise ValueError("histogram shapes differ")
        self.counts += other.counts
        self.total += other.total


class VariableWidthHistogram:
    """Histogram over explicit, strictly increasing bin edges.

    ``edges = [e0, e1, ..., en]`` defines n bins ``[e_i, e_{i+1})``;
    values outside ``[e0, en)`` saturate into the first/last bin.
    """

    def __init__(self, edges: list[float]) -> None:
        if len(edges) < 2:
            raise ValueError("need at least two edges")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must be strictly increasing")
        self.edges = list(edges)
        self.n_bins = len(edges) - 1
        self.counts = np.zeros(self.n_bins, dtype=np.int64)
        self.total = 0

    @classmethod
    def from_log_spacing(cls, lo: float, hi: float, n_bins: int
                         ) -> "VariableWidthHistogram":
        """Log-spaced edges — the natural choice for inter-packet times,
        which span microseconds to seconds."""
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < lo < hi")
        edges = np.logspace(np.log10(lo), np.log10(hi), n_bins + 1)
        return cls(list(edges))

    @property
    def state_bytes(self) -> int:
        # Counters plus the shared edge table.
        return 8 * self.n_bins + 8 * len(self.edges)

    def update(self, x: float) -> None:
        idx = bisect_right(self.edges, x) - 1
        if idx < 0:
            idx = 0
        elif idx >= self.n_bins:
            idx = self.n_bins - 1
        self.counts[idx] += 1
        self.total += 1

    def result(self) -> np.ndarray:
        return self.counts.copy()

    def pdf(self) -> np.ndarray:
        if self.total == 0:
            return np.zeros(self.n_bins)
        return self.counts / self.total

    def cdf(self) -> np.ndarray:
        if self.total == 0:
            return np.zeros(self.n_bins)
        return np.cumsum(self.counts) / self.total

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.total == 0:
            return self.edges[0]
        cdf = self.cdf()
        idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
        idx = min(idx, self.n_bins - 1)
        return self.edges[idx + 1]

    def merge(self, other: "VariableWidthHistogram") -> None:
        if other.edges != self.edges:
            raise ValueError("histogram edges differ")
        self.counts += other.counts
        self.total += other.total
