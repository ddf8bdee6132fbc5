"""SuperFE core: the policy language (§4), the policy engine that splits a
policy across FE-Switch and FE-NIC (§3-§4), the composable dataplane graph
those halves run on, and the extraction result types.  Extractors are
built through :func:`repro.api.compile`."""

from repro.core.policy import Policy, pktstream
from repro.core.compiler import PolicyCompiler, CompiledPolicy, PolicyError
from repro.core.dataplane import Dataplane, LinkConfig, SwitchNICLink
from repro.core.observe import DeltaPoller, counter_delta, render_counters
from repro.core.pipeline import ExtractionResult

__all__ = [
    "Policy",
    "pktstream",
    "PolicyCompiler",
    "CompiledPolicy",
    "PolicyError",
    "Dataplane",
    "LinkConfig",
    "SwitchNICLink",
    "DeltaPoller",
    "counter_delta",
    "render_counters",
    "ExtractionResult",
]
