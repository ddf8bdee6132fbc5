"""Application-study drivers (§8.3): alignment of per-packet feature
vectors with packets, and the Kitsune detection experiment of Fig 11.

MGPV preserves per-group cell order, so per-packet vectors re-associate
with packets by walking each packet's finest-granularity key through its
group's emitted vector sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import api
from repro.apps.detectors.kitnet import KitNET
from repro.apps.detectors.metrics import (
    accuracy,
    precision_recall_f1,
    roc_auc,
)
from repro.core.policy import Policy
from repro.net.packet import Packet
from repro.net.scenarios import ScenarioTrace


def extract_aligned_features(policy: Policy, packets: list[Packet],
                             extractor: str = "superfe",
                             n_nics: int = 1,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Run a per-packet policy and align its vectors with the packet
    sequence.

    ``extractor`` selects the full hardware pipeline (``"superfe"``) or
    the unbatched full-precision software path (``"software"``) — the
    Fig 11 comparison runs the same detector on both.  ``n_nics > 1``
    runs the hardware pipeline against the §8.5 hash-steered NIC
    cluster (detection results must be invariant to the scale-out).

    Returns ``(features, valid)``: an (n, d) matrix and a boolean mask of
    packets whose vector was recovered (FG-table collisions can orphan a
    small number of cells).
    """
    if extractor == "superfe":
        fe = api.compile(policy, n_nics=n_nics)
    elif extractor == "software":
        fe = api.compile(policy, software=True)
    else:
        raise ValueError(f"unknown extractor {extractor!r}")
    result = fe.run(packets)
    if not result.vectors:
        return np.zeros((len(packets), 0)), np.zeros(len(packets), bool)
    fg = fe.compiled.fg
    by_key: dict = {}
    for vec in result.vectors:
        by_key.setdefault(tuple(vec.key), []).append(vec.values)
    dim = len(result.vectors[0].values)
    out = np.zeros((len(packets), dim))
    valid = np.zeros(len(packets), dtype=bool)
    cursor: dict = {}
    for i, pkt in enumerate(packets):
        key = fg.packet_key(pkt)
        seq = by_key.get(key)
        k = cursor.get(key, 0)
        if seq is not None and k < len(seq):
            out[i] = seq[k]
            valid[i] = True
            cursor[key] = k + 1
    return out, valid


@dataclass(frozen=True)
class DetectionResult:
    """Fig 11 metrics for one scenario."""

    scenario: str
    n_test: int
    n_malicious: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float


def signed_log1p(x: np.ndarray) -> np.ndarray:
    """Sign-preserving log compression.  The damped weights span several
    orders of magnitude between idle flows and floods; without
    compression the min-max normalizer clamps attack-range values to 1.0
    and hides them from the autoencoders."""
    return np.sign(x) * np.log1p(np.abs(x))


def kitsune_detection_experiment(scenario: ScenarioTrace,
                                 policy: Policy,
                                 train_frac: float = 0.35,
                                 epochs: int = 25,
                                 max_group: int = 10,
                                 threshold_quantile: float = 99.5,
                                 seed: int = 0,
                                 extractor: str = "superfe",
                                 ) -> DetectionResult:
    """Train KitNET on the scenario's benign prefix over the chosen
    extractor's feature vectors and report detection metrics on the
    suffix."""
    features, valid = extract_aligned_features(policy, scenario.packets,
                                               extractor)
    labels = np.asarray(scenario.labels)
    features, labels = signed_log1p(features[valid]), labels[valid]
    cut = int(len(features) * train_frac)
    train = features[:cut][labels[:cut] == 0]
    detector = KitNET(max_group=max_group, seed=seed).fit(
        train, epochs=epochs, threshold_quantile=threshold_quantile)
    test_x, test_y = features[cut:], labels[cut:]
    scores = detector.score(test_x)
    preds = (scores > detector.threshold).astype(int)
    precision, recall, f1 = precision_recall_f1(test_y, preds)
    return DetectionResult(
        scenario=scenario.name,
        n_test=len(test_y),
        n_malicious=int(test_y.sum()),
        accuracy=accuracy(test_y, preds),
        precision=precision,
        recall=recall,
        f1=f1,
        auc=roc_auc(test_y, scores),
    )
