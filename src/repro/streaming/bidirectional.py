"""Bidirectional (two-stream) statistics: ``f_mag``, ``f_radius``,
``f_cov``, ``f_pcc`` (Table 5).

These are the Kitsune-style 2D statistics over the two directions of a
channel/socket: treating each direction's value stream as one dimension,

- magnitude  = sqrt(mean_a^2 + mean_b^2)
- radius     = sqrt(var_a^2 + var_b^2)
- covariance = E[(a - mean_a)(b - mean_b)] over co-observed deviations
- PCC        = covariance / (std_a * std_b)

FE-NIC keeps one Welford state per direction plus the *last signed
residual* of each stream and a residual-product accumulator, so the whole
bidirectional state is O(1).  Covariance pairs each arrival's deviation
with the other stream's most recent deviation (the streams are not
index-aligned on the wire) — Kitsune's incremental ``SR`` formulation.
"""

from __future__ import annotations

from repro.streaming.welford import Welford


class BidirectionalStats:
    """Joint statistics over two directional value streams."""

    __slots__ = ("a", "b", "sr", "n_joint", "_last_res_a", "_last_res_b")
    params = ()     # parameter-free (reducer-sharing key)

    def __init__(self) -> None:
        self.a = Welford()
        self.b = Welford()
        self.sr = 0.0          # sum of residual products
        self.n_joint = 0       # observations contributing to sr
        self._last_res_a = 0.0
        self._last_res_b = 0.0

    @property
    def state_bytes(self) -> int:
        return self.a.state_bytes + self.b.state_bytes + 32

    def update(self, x: float, direction: int) -> None:
        """Consume one value from direction +1 (stream a) or -1 (b).

        The new value's deviation from its own (updated) mean is paired
        with the other stream's last deviation; accumulated only once both
        streams have history.
        """
        if direction >= 0:
            self.a.update(x)
            res_self = x - self.a.mean
            res_other = self._last_res_b
            has_other = self.b.n > 0
            self._last_res_a = res_self
        else:
            self.b.update(x)
            res_self = x - self.b.mean
            res_other = self._last_res_a
            has_other = self.a.n > 0
            self._last_res_b = res_self
        if has_other:
            self.sr += res_self * res_other
            self.n_joint += 1

    @property
    def magnitude(self) -> float:
        return (self.a.mean ** 2 + self.b.mean ** 2) ** 0.5

    @property
    def radius(self) -> float:
        return (self.a.variance ** 2 + self.b.variance ** 2) ** 0.5

    @property
    def covariance(self) -> float:
        if self.n_joint == 0:
            return 0.0
        return self.sr / self.n_joint

    @property
    def pcc(self) -> float:
        denom = self.a.std * self.b.std
        if denom == 0:
            return 0.0
        return self.covariance / denom

    def result(self) -> float:
        return self.magnitude
