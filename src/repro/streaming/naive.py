"""Store-everything exact statistics — the Fig 15 baseline and the test
oracle for every streaming reducer.

``NaiveStats`` buffers the raw stream (what a two-pass algorithm on the
SmartNIC would have to hold, §6.1) and computes every statistic exactly
with numpy.  Its ``state_bytes`` grows linearly with the stream, which is
precisely the memory blow-up Fig 15 shows exceeding SmartNIC capacity.
"""

from __future__ import annotations

import numpy as np


class NaiveStats:
    """Exact statistics over a fully buffered stream."""

    def __init__(self) -> None:
        self.values: list[float] = []

    @property
    def state_bytes(self) -> int:
        return 8 * len(self.values)

    @property
    def n(self) -> int:
        return len(self.values)

    def update(self, x: float) -> None:
        self.values.append(float(x))

    def _arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @property
    def mean(self) -> float:
        return float(self._arr().mean()) if self.values else 0.0

    @property
    def variance(self) -> float:
        return float(self._arr().var()) if self.values else 0.0

    @property
    def std(self) -> float:
        return self.variance ** 0.5

    @property
    def skewness(self) -> float:
        if len(self.values) < 2:
            return 0.0
        arr = self._arr()
        std = arr.std()
        if std == 0:
            return 0.0
        return float(((arr - arr.mean()) ** 3).mean() / std ** 3)

    @property
    def kurtosis(self) -> float:
        if len(self.values) < 2:
            return 0.0
        arr = self._arr()
        var = arr.var()
        if var == 0:
            return 0.0
        return float(((arr - arr.mean()) ** 4).mean() / var ** 2)

    def percentile(self, q: float) -> float:
        if not self.values:
            return 0.0
        return float(np.percentile(self._arr(), q))

    def histogram(self, width: float, n_bins: int, origin: float = 0.0
                  ) -> np.ndarray:
        """Exact fixed-width histogram with the same saturating binning as
        :class:`repro.streaming.histogram.FixedWidthHistogram`."""
        counts = np.zeros(n_bins, dtype=np.int64)
        for x in self.values:
            idx = int((x - origin) // width)
            idx = max(0, min(idx, n_bins - 1))
            counts[idx] += 1
        return counts

    def result(self) -> float:
        return self.mean

