"""KitNET — Kitsune's online anomaly detector (NDSS'18), from scratch.

Three stages, as published:

1. **Feature mapper** — clusters the feature dimensions by correlation
   distance (agglomerative, complete linkage) into groups of at most
   ``max_group`` features;
2. **Ensemble layer** — one small autoencoder per cluster, each scoring
   its feature subset with RMSE reconstruction error;
3. **Output layer** — a final autoencoder over the ensemble's RMSE
   vector; its RMSE is the anomaly score.

Training is benign-only; the detection threshold is a high quantile of
the training scores (the paper's deployments use ~max of benign).
"""

from __future__ import annotations

import numpy as np

from repro.apps.detectors.autoencoder import Autoencoder


def _correlation_distance(data: np.ndarray) -> np.ndarray:
    """Pairwise 1 - |corr| distance between feature columns; constant
    columns get distance 1 to everything (no information)."""
    x = np.asarray(data, dtype=np.float64)
    std = x.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    centered = (x - x.mean(axis=0)) / safe
    corr = (centered.T @ centered) / max(len(x), 1)
    corr = np.clip(corr, -1.0, 1.0)
    dist = 1.0 - np.abs(corr)
    dead = std == 0
    dist[dead, :] = 1.0
    dist[:, dead] = 1.0
    np.fill_diagonal(dist, 0.0)
    return dist


def cluster_features(data: np.ndarray, max_group: int = 10) -> list[list[int]]:
    """Agglomerative (complete-linkage) clustering of feature columns,
    never merging past ``max_group`` members — KitNET's feature map."""
    n = data.shape[1]
    clusters: list[list[int]] = [[i] for i in range(n)]
    dist = _correlation_distance(data)

    def linkage(a: list[int], b: list[int]) -> float:
        return max(dist[i, j] for i in a for j in b)

    merged = True
    while merged and len(clusters) > 1:
        merged = False
        best = None
        best_d = np.inf
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) > max_group:
                    continue
                d = linkage(clusters[i], clusters[j])
                if d < best_d:
                    best_d, best = d, (i, j)
        if best is not None and best_d < 1.0:
            i, j = best
            clusters[i] = clusters[i] + clusters[j]
            del clusters[j]
            merged = True
    return clusters


class KitNET:
    """The full three-stage detector."""

    def __init__(self, max_group: int = 10, hidden_ratio: float = 0.75,
                 lr: float = 0.5, seed: int = 0) -> None:
        self.max_group = max_group
        self.hidden_ratio = hidden_ratio
        self.lr = lr
        self.seed = seed
        self.clusters: list[list[int]] | None = None
        self.ensemble: list[Autoencoder] = []
        self.output: Autoencoder | None = None
        self.threshold: float | None = None

    def fit(self, benign: np.ndarray, epochs: int = 30,
            threshold_quantile: float = 99.9) -> "KitNET":
        """Train on benign-only feature vectors and set the detection
        threshold at the given percentile of training scores."""
        benign = np.atleast_2d(np.asarray(benign, dtype=np.float64))
        if len(benign) < 10:
            raise ValueError("need at least 10 benign samples")
        self.clusters = cluster_features(benign, self.max_group)
        self.ensemble = [
            Autoencoder(len(cols), self.hidden_ratio, self.lr,
                        seed=self.seed + k)
            for k, cols in enumerate(self.clusters)
        ]
        for ae, cols in zip(self.ensemble, self.clusters):
            ae.fit(benign[:, cols], epochs=epochs, seed=self.seed)
        ensemble_scores = self._ensemble_scores(benign)
        self.output = Autoencoder(len(self.ensemble), self.hidden_ratio,
                                  self.lr, seed=self.seed + 1000)
        self.output.fit(ensemble_scores, epochs=epochs, seed=self.seed)
        train_scores = self.score(benign)
        self.threshold = float(np.percentile(train_scores,
                                             threshold_quantile))
        return self

    def _ensemble_scores(self, data: np.ndarray) -> np.ndarray:
        assert self.clusters is not None
        cols_scores = [ae.score(data[:, cols])
                       for ae, cols in zip(self.ensemble, self.clusters)]
        return np.stack(cols_scores, axis=1)

    def score(self, data: np.ndarray) -> np.ndarray:
        """Anomaly score (output-layer RMSE) per sample."""
        if self.output is None:
            raise RuntimeError("KitNET is not fitted")
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        return self.output.score(self._ensemble_scores(data))

    def predict(self, data: np.ndarray) -> np.ndarray:
        """1 = anomalous (score above the benign-trained threshold)."""
        if self.threshold is None:
            raise RuntimeError("KitNET is not fitted")
        return (self.score(data) > self.threshold).astype(np.int8)

