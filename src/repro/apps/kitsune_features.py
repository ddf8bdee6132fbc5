"""Kitsune's 115-dimension feature set, three ways (Fig 10).

Fig 10 compares the per-packet feature vectors of

- **standard** — the exact damped-window definitions (full-precision
  decayed-Welford statistics).  Produced here by running the Kitsune
  policy through the software baseline, ``Extractor.baseline()``
  (floating-point path).
- **SuperFE** — the hardware pipeline: MGPV batching plus the NIC's
  division-free arithmetic and shift-table decay.  Produced by
  :func:`repro.api.compile` on the same policy.
- **original Kitsune** — the published implementation's approximations:
  SS-form variance (``SS/w - mean^2``) in single precision, which loses
  accuracy when the mean dominates the spread.  Produced by
  :class:`OriginalKitsuneExtractor`, a standalone reimplementation of
  Kitsune's AfterImage over the same host/channel/socket layout.

All three emit vectors with identical layout (:func:`feature_layout`),
aligned per group by arrival order — MGPV's order-preserving eviction
guarantees the k-th vector of a group corresponds to the group's k-th
packet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import api
from repro.apps.policies import KITSUNE_LAMBDAS, kitsune_policy
from repro.net.packet import Packet
from repro.streaming.damped import DampedCovariance, DampedStat

_1D = ("w", "mean", "std")
_2D = ("w", "mean", "std", "mag", "radius", "cov", "pcc")


def feature_layout() -> list[str]:
    """Names of the 115 features in emission order: host size (1D) and
    jitter, channel size (1D+2D) and jitter, socket size (1D+2D), each
    over the five time scales."""
    names = []
    for block, stats in [("host.size", _1D), ("host.jitter", _1D),
                         ("channel.size", _2D), ("channel.jitter", _1D),
                         ("socket.size", _2D)]:
        for lam in KITSUNE_LAMBDAS:
            for stat in stats:
                names.append(f"{block}.{stat}.lam{lam}")
    return names


#: Feature families for the Fig 10 error breakdown.
FEATURE_FAMILIES = ("w", "mean", "std", "mag", "radius", "cov", "pcc")


def family_of(name: str) -> str:
    return name.split(".")[2]


#: Exponent resolution of the original implementation's decay power
#: table (see DampedStat.decay_exp_step).
ORIGINAL_DECAY_STEP = 0.5


class _Block1D:
    def __init__(self, single_precision: bool) -> None:
        step = ORIGINAL_DECAY_STEP if single_precision else None
        self.stats = [DampedStat(lam, single_precision, step)
                      for lam in KITSUNE_LAMBDAS]

    def update(self, x: float, t: float) -> None:
        for s in self.stats:
            s.update(x, t)

    def snapshot(self) -> list[float]:
        return [v for s in self.stats for v in (s.w, s.mean, s.std)]


class _Block2D:
    """Combined 1D statistics over both directions plus the 2D
    (directional) statistics — matching the policy's
    ``[f_dw, f_dmean, f_dstd, f_dmag, f_dradius, f_dcov, f_dpcc]``."""

    def __init__(self, single_precision: bool) -> None:
        step = ORIGINAL_DECAY_STEP if single_precision else None
        self.combined = [DampedStat(lam, single_precision, step)
                         for lam in KITSUNE_LAMBDAS]
        self.paired = [DampedCovariance(lam, single_precision, step)
                       for lam in KITSUNE_LAMBDAS]

    def update(self, x: float, t: float, direction: int) -> None:
        for c, p in zip(self.combined, self.paired):
            c.update(x, t)
            p.update(x, t, direction)

    def snapshot(self) -> list[float]:
        out = []
        for c, p in zip(self.combined, self.paired):
            out.extend((c.w, c.mean, c.std,
                        p.magnitude, p.radius, p.covariance, p.pcc))
        return out


@dataclass
class _Groups:
    host_size: dict
    host_jitter: dict
    host_last_t: dict
    chan_size: dict
    chan_jitter: dict
    chan_last_t: dict
    sock_size: dict


class OriginalKitsuneExtractor:
    """AfterImage-style per-packet extractor with the original
    implementation's SS-form single-precision statistics."""

    def __init__(self, single_precision: bool = True) -> None:
        self.sp = single_precision
        self._g = _Groups({}, {}, {}, {}, {}, {}, {})

    @staticmethod
    def _get(table: dict, key, factory):
        state = table.get(key)
        if state is None:
            state = factory()
            table[key] = state
        return state

    def process(self, pkt: Packet) -> np.ndarray:
        """Update all granularities with the packet and return the
        115-dim feature snapshot."""
        g = self._g
        t = pkt.tstamp / 1e9
        host = (pkt.src_ip,)
        chan = (pkt.src_ip, pkt.dst_ip)
        sock = (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
                pkt.proto)

        hs = self._get(g.host_size, host, lambda: _Block1D(self.sp))
        hs.update(pkt.size, t)
        hj = self._get(g.host_jitter, host, lambda: _Block1D(self.sp))
        last = g.host_last_t.get(host)
        if last is not None:
            hj.update(pkt.tstamp - last, t)
        g.host_last_t[host] = pkt.tstamp

        cs = self._get(g.chan_size, chan, lambda: _Block2D(self.sp))
        cs.update(pkt.size, t, pkt.direction)
        cj = self._get(g.chan_jitter, chan, lambda: _Block1D(self.sp))
        last = g.chan_last_t.get(chan)
        if last is not None:
            cj.update(pkt.tstamp - last, t)
        g.chan_last_t[chan] = pkt.tstamp

        ss = self._get(g.sock_size, sock, lambda: _Block2D(self.sp))
        ss.update(pkt.size, t, pkt.direction)

        return np.array(hs.snapshot() + hj.snapshot() + cs.snapshot()
                        + cj.snapshot() + ss.snapshot())

    def run(self, packets: list[Packet]) -> dict:
        """Per-group vector sequences keyed by the socket 5-tuple (the
        FG key), aligned with the SuperFE/standard extractors."""
        by_key: dict[tuple, list[np.ndarray]] = {}
        for pkt in packets:
            vec = self.process(pkt)
            key = (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
                   pkt.proto)
            by_key.setdefault(key, []).append(vec)
        return by_key


def _vectors_by_key(vectors) -> dict:
    by_key: dict[tuple, list[np.ndarray]] = {}
    for v in vectors:
        by_key.setdefault(tuple(v.key), []).append(v.values)
    return by_key


def extract_three_ways(packets: list[Packet]) -> tuple[dict, dict, dict]:
    """Run the Kitsune feature extractor through all three paths;
    returns (standard, superfe, original) per-group vector sequences."""
    ex = api.compile(kitsune_policy())
    standard = _vectors_by_key(ex.baseline().run(packets).vectors)
    superfe = _vectors_by_key(ex.run(packets).vectors)
    original = OriginalKitsuneExtractor().run(packets)
    return standard, superfe, original


def relative_errors(reference: dict, candidate: dict,
                    eps: float = 1e-6) -> dict:
    """Mean relative error per feature family between two aligned
    per-group vector-sequence dicts (the Fig 10 metric)."""
    names = feature_layout()
    families = {fam: [] for fam in FEATURE_FAMILIES}
    for key, ref_seq in reference.items():
        cand_seq = candidate.get(key)
        if not cand_seq:
            continue
        n = min(len(ref_seq), len(cand_seq))
        for ref, cand in zip(ref_seq[:n], cand_seq[:n]):
            err = np.abs(cand - ref) / (np.abs(ref) + eps)
            # Ignore positions where the reference is ~0 (relative error
            # is undefined there).
            valid = np.abs(ref) > eps
            for i, name in enumerate(names):
                if valid[i]:
                    families[family_of(name)].append(err[i])
    return {fam: float(np.mean(v)) if v else 0.0
            for fam, v in families.items()}
