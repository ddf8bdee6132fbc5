"""The output shapes of an extraction run (Fig 1's right-hand edge).

:class:`ExtractionResult` is what :meth:`repro.api.Extractor.run`
returns — the emitted feature vectors plus the switch statistics, the
NIC-side engine (or cluster) and the closed dataplane they came from::

    result = api.compile(policy).run(packets)
    X = result.frame().matrix

:class:`FeatureFrame` is its typed tabular view, the ML-facing shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiler import CompiledPolicy
from repro.core.dataplane import Dataplane
from repro.nicsim.engine import FeatureVector
from repro.switchsim.mgpv import CacheStats


@dataclass(frozen=True)
class FeatureFrame:
    """The typed tabular view of an extraction run: one row per emitted
    vector, aligned across ``matrix`` (the (n, d) float matrix),
    ``feature_names`` (the d column labels), ``keys`` (the n group/flow
    keys) and ``degraded`` (the n-length fault mask — True rows lost
    granularity or state to an injected fault and carry bounded error).

    This is the ML-facing output shape: the matrix feeds a model as-is,
    the keys join predictions back to flows, the mask filters or weighs
    fault-degraded rows.  Built by :meth:`ExtractionResult.frame`.
    """

    matrix: np.ndarray
    feature_names: tuple[str, ...]
    keys: tuple[tuple, ...]
    degraded: np.ndarray

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def to_numpy(self) -> np.ndarray:
        """The feature matrix (the frame's own array, not a copy)."""
        return self.matrix

    def to_dict(self) -> dict:
        """Column-oriented plain-python export: feature name -> value
        list, plus ``"key"`` and ``"degraded"`` columns (a shape any
        dataframe library ingests directly)."""
        out: dict = {"key": list(self.keys)}
        for j, name in enumerate(self.feature_names):
            out[name] = self.matrix[:, j].tolist()
        out["degraded"] = self.degraded.tolist()
        return out


@dataclass
class ExtractionResult:
    """Output of one extraction run."""

    vectors: list[FeatureVector]
    feature_names: list[str]
    switch_stats: CacheStats
    engine: object              # FeatureEngine, or NICCluster for n_nics>1
    compiled: CompiledPolicy
    dataplane: Dataplane | None = None

    def __len__(self) -> int:
        return len(self.vectors)

    def frame(self) -> FeatureFrame:
        """The typed :class:`FeatureFrame` over these vectors; raises
        when vectors have data-dependent (unequal) widths."""
        if not self.vectors:
            # Keep the feature dimension so empty results compose with
            # detector code expecting (n, d) input.
            return FeatureFrame(
                matrix=np.empty((0, len(self.feature_names))),
                feature_names=tuple(self.feature_names),
                keys=(),
                degraded=np.empty(0, dtype=bool))
        widths = {len(v.values) for v in self.vectors}
        if len(widths) > 1:
            raise ValueError(
                f"vectors have varying widths {sorted(widths)}; bound "
                f"array features with synthesize(ft_sample{{n}})")
        matrix = np.vstack([v.values for v in self.vectors])
        names = tuple(self.feature_names)
        v0 = self.vectors[0]
        if v0.widths is not None:
            # Array-valued features span several columns; label each
            # slot so names stay aligned with the matrix (and to_dict
            # exports every column, not one per feature).
            labels: list[str] = []
            for name, width in zip(v0.names, v0.widths):
                if width == 1:
                    labels.append(name)
                else:
                    labels.extend(f"{name}[{i}]" for i in range(width))
            if len(labels) == matrix.shape[1]:
                names = tuple(labels)
        return FeatureFrame(
            matrix=matrix,
            feature_names=names,
            keys=tuple(v.key for v in self.vectors),
            degraded=np.fromiter((v.degraded for v in self.vectors),
                                 dtype=bool, count=len(self.vectors)))

    def to_matrix(self) -> np.ndarray:
        """Compat wrapper: the bare matrix of :meth:`frame`."""
        return self.frame().matrix

    def by_key(self) -> dict:
        return {v.key: v.values for v in self.vectors}
