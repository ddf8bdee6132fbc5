"""Multi-chain policies — the §9 extension, implemented.

The MGPV cache assumes the policy's granularities form one dependency
chain.  Policies mixing granularities from *different* chains (e.g.
per-flow direction sequences plus per-host statistics) are handled here:
the granularity set is split into a minimum number of chains
(:func:`repro.core.granularity.split_into_chains`, a Dilworth minimum
chain cover), the policy is partitioned into one sub-policy per
chain, and each sub-policy gets its own MGPV instance — exactly the
"allocate resources for each granularity chain and apply MGPV
separately" design the paper sketches.

Per-group results are returned per chain; per-packet (``collect(pkt)``)
multi-chain policies concatenate each packet's vectors across chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import api
from repro.core.granularity import split_into_chains
from repro.core.pipeline import ExtractionResult
from repro.core.policy import (
    CollectOp,
    FilterOp,
    GroupByOp,
    Policy,
)


def partition_policy(policy: Policy) -> list[Policy]:
    """Split a policy into one sub-policy per dependency chain.

    Leading filters are shared by every sub-policy; each groupby section
    (the groupby and the operators up to the next groupby) goes to the
    chain owning its granularity.  Raises if the policy has no groupby.
    """
    grans = policy.granularities
    if not grans:
        raise ValueError("policy has no groupby operator")
    chains = split_into_chains(grans)
    if len(chains) == 1:
        return [policy]
    chain_of = {name: i for i, chain in enumerate(chains)
                for name in chain}

    prefixes: list[FilterOp] = []
    sections: dict[int, list] = {i: [] for i in range(len(chains))}
    current: int | None = None
    for op in policy.ops:
        if isinstance(op, FilterOp) and current is None:
            prefixes.append(op)
        elif isinstance(op, GroupByOp):
            current = chain_of[op.granularity]
            sections[current].append(op)
        else:
            if current is None:
                raise ValueError(
                    f"operator {op!r} appears before any groupby")
            sections[current].append(op)

    policies = []
    for i in range(len(chains)):
        ops = tuple(prefixes) + tuple(sections[i])
        if not any(isinstance(op, CollectOp) for op in ops):
            raise ValueError(
                f"chain {chains[i]} collects no features; every chain "
                f"needs its own collect")
        policies.append(Policy(ops))
    return policies


@dataclass
class MultiChainResult:
    """Per-chain extraction results."""

    results: list[ExtractionResult]

    @property
    def chains(self) -> list[list[str]]:
        return [[g.name for g in r.compiled.chain] for r in self.results]

    def __len__(self) -> int:
        return sum(len(r) for r in self.results)


class MultiChainSuperFE:
    """SuperFE over a policy whose granularities span several dependency
    chains: one MGPV pipeline per chain."""

    def __init__(self, policy: Policy, **compile_kwargs) -> None:
        self.policy = policy
        self.sub_policies = partition_policy(policy)
        self.pipelines = [api.compile(p, **compile_kwargs)
                          for p in self.sub_policies]

    def run(self, packets) -> MultiChainResult:
        packets = list(packets)
        return MultiChainResult(
            [fe.run(packets) for fe in self.pipelines])
