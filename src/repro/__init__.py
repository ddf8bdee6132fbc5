"""SuperFE reproduction: a scalable and flexible feature extractor for
ML-based traffic analysis applications (EuroSys 2025).

The public API mirrors the paper's architecture:

- :mod:`repro.core` — the SuperFE policy language, policy engine, and the
  end-to-end feature extraction pipeline.
- :mod:`repro.switchsim` — the FE-Switch simulator (MGPV key-vector cache).
- :mod:`repro.nicsim` — the FE-NIC simulator (streaming feature computation
  on a modelled SoC SmartNIC).
- :mod:`repro.streaming` — the streaming algorithms of §6.1.
- :mod:`repro.net` — packet abstraction, synthetic traces, and scenarios.
- :mod:`repro.apps` — the ten traffic analysis applications of Table 3.

Quickstart::

    import repro.api as api
    from repro import pktstream
    from repro.net.trace import generate_trace

    policy = (
        pktstream()
        .filter("tcp.exist")
        .groupby("flow")
        .map("one", None, "f_one")
        .reduce("one", ["f_sum"])
        .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
        .collect("flow")
    )
    ex = api.compile(policy)
    result = ex.run(generate_trace("ENTERPRISE", n_flows=200, seed=1))
"""

from repro import api
from repro.api import Extractor
from repro.core.policy import Policy, PolicyError, pktstream
from repro.core.pipeline import ExtractionResult
from repro.core.compiler import PolicyCompiler, CompiledPolicy
from repro.core.dataplane import Dataplane, LinkConfig
from repro.core.parallel import ExecutionConfig

__all__ = [
    "api",
    "Extractor",
    "ExecutionConfig",
    "Policy",
    "pktstream",
    "ExtractionResult",
    "PolicyCompiler",
    "CompiledPolicy",
    "PolicyError",
    "Dataplane",
    "LinkConfig",
]

__version__ = "1.1.0"
