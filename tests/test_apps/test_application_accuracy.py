"""End-to-end application accuracy (compact versions of the §8.3 study
for the non-Kitsune applications): SuperFE features must let each
detector do its job."""

import numpy as np
import pytest

import repro.api as api
from repro.apps import build_policy
from repro.apps.detectors import (
    DecisionTree,
    EmbeddingClassifier,
    KNNClassifier,
    precision_recall_f1,
)
from repro.apps.policies import direction_sequence_policy
from repro.net.scenarios import (
    covert_channel_scenario,
    p2p_botnet_scenario,
    website_traces,
)


def _wf_dataset(policy, visits):
    features, labels = [], []
    packets = [p for visit in visits for p in visit.packets]
    by_key = {tuple(v.key): v.values
              for v in api.compile(policy).run(packets).vectors}
    for visit in visits:
        ft = visit.packets[0].flow_key
        key = (ft.src_ip, ft.dst_ip, ft.src_port, ft.dst_port, ft.proto)
        if key in by_key:
            features.append(by_key[key])
            labels.append(visit.site_id)
    return np.vstack(features), np.asarray(labels)


def _split(x, y, frac=0.7, seed=0):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    cut = int(len(y) * frac)
    return (x[order[:cut]], y[order[:cut]],
            x[order[cut:]], y[order[cut:]])


@pytest.mark.slow
class TestWebsiteFingerprinting:
    def test_tf_embedding_beats_random(self):
        visits = website_traces(n_sites=8, visits_per_site=10, seed=31)
        x, y = _wf_dataset(direction_sequence_policy(length=200), visits)
        xtr, ytr, xte, yte = _split(x, y, seed=1)
        clf = EmbeddingClassifier(embed_dim=16, hidden=64, seed=2)
        clf.fit(xtr, ytr, epochs=50)
        assert clf.score(xte, yte) > 0.6     # random = 1/8

    def test_cumul_knn_beats_random(self):
        visits = website_traces(n_sites=8, visits_per_site=10, seed=32)
        x, y = _wf_dataset(build_policy("CUMUL"), visits)
        xtr, ytr, xte, yte = _split(x, y, seed=3)
        knn = KNNClassifier(k=3).fit(xtr, ytr)
        assert knn.score(xte, yte) > 0.4


class TestCovertChannel:
    def test_npod_tree_separates_flows(self):
        scenario = covert_channel_scenario(seed=7, n_normal_flows=60,
                                           n_covert_flows=20,
                                           pkts_per_flow=100)
        flow_label = {}
        for pkt, lab in zip(scenario.packets, scenario.labels):
            ft = pkt.flow_key
            key = (ft.src_ip, ft.dst_ip, ft.src_port, ft.dst_port,
                   ft.proto)
            flow_label[key] = max(flow_label.get(key, 0), int(lab))
        result = api.compile(build_policy("NPOD")).run(scenario.packets)
        x = np.vstack([v.values for v in result.vectors])
        y = np.asarray([flow_label[tuple(v.key)]
                        for v in result.vectors])
        xtr, ytr, xte, yte = _split(x, y, frac=0.6, seed=4)
        tree = DecisionTree(max_depth=5).fit(xtr, ytr)
        preds = tree.predict(xte)
        _, recall, f1 = precision_recall_f1(yte, preds)
        assert f1 > 0.9


class TestBotnet:
    def test_peershark_tree_finds_bot_conversations(self):
        scenario = p2p_botnet_scenario(seed=8, n_benign_flows=200,
                                       n_bots=10)
        bots = set(scenario.meta["bots"])
        result = api.compile(build_policy("PeerShark")).run(scenario.packets)
        x = np.vstack([v.values for v in result.vectors])
        y = np.asarray([1 if v.key[0] in bots and v.key[1] in bots
                        else 0 for v in result.vectors])
        assert y.sum() > 5
        xtr, ytr, xte, yte = _split(x, y, frac=0.6, seed=5)
        tree = DecisionTree(max_depth=4).fit(xtr, ytr)
        acc = float((tree.predict(xte) == yte).mean())
        assert acc > 0.9
