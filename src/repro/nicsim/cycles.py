"""Per-packet cycle-cost model of FE-NIC and the §6.2 optimizations.

NFP flow-processing cores run at 800 MHz, execute 8 hardware threads with
a 2-cycle context switch, have no FPU, and pay ~1500 cycles for the
compiler's soft division [FlexTOE, §6.2].  The model prices the generated
per-MGPV-cell program from per-function operation tables and the memory
hierarchy, under three independently-toggleable optimizations (Fig 17):

1. **reuse_switch_hash** — the 32-bit hash the switch computed ships with
   the MGPV, eliminating the NIC-side hash of group keys;
2. **thread_latency_hiding** — 8 threads overlap memory waits, so exposed
   memory time drops from the full latency to
   ``max(latency / n_threads, accesses * ctx_switch)``;
3. **division_elimination** — per-packet divisions in the streaming
   updates are replaced by comparisons (see
   :class:`repro.streaming.welford.WelfordDivisionFree`), costing a few
   cycles instead of 1500.

The same operation tables drive the x86 software-baseline model used by
the Fig 9 comparison (:func:`software_cycles_per_packet`): a commodity
server pays packet-capture overhead per packet and a framework factor on
compute, but has fast caches and hardware divide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.compiler import CompiledPolicy
from repro.nicsim.placement import PlacementResult, section_level

#: Fixed per-cell cost: MGPV cell fetch/decode, loop bookkeeping, and the
#: egress of finished vectors, independent of the policy.
CELL_OVERHEAD_CYCLES = 40

#: Cycle prices of primitive operations on an NFP core.
OP_CYCLES = {
    "alu": 1,          # add/sub/logical
    "cmp": 1,
    "shift": 1,
    "mul": 5,
    "div": 1500,       # compiler soft division
    "div_elim": 3,     # comparison-based replacement (§6.2)
    "hash": 120,       # CRC over a group key + cell
    "sqrt": 60,        # Newton iteration, integer
    "store": 2,
}

#: Per-update operation counts of the built-in mapping functions.
MAP_FN_OPS: dict[str, dict] = {
    "f_one": {"alu": 1},
    "f_ipt": {"alu": 2},
    "f_speed": {"alu": 2, "div": 1},
    "f_direction": {"mul": 1},
    "f_burst": {"cmp": 2, "alu": 1},
    "f_identity": {},
}

#: Per-update operation counts of the built-in reducing functions.
REDUCE_FN_OPS: dict[str, dict] = {
    "f_sum": {"alu": 1},
    "f_max": {"cmp": 1},
    "f_min": {"cmp": 1},
    "f_mean": {"alu": 3, "div": 1},
    "f_var": {"alu": 5, "mul": 2, "div": 1},
    "f_std": {"alu": 5, "mul": 2, "div": 1},
    "f_skew": {"alu": 10, "mul": 8, "div": 2},
    "f_kur": {"alu": 12, "mul": 10, "div": 2},
    "f_mag": {"alu": 4, "mul": 2, "div": 1},
    "f_radius": {"alu": 4, "mul": 2, "div": 1},
    "f_cov": {"alu": 6, "mul": 2, "div": 1},
    "f_pcc": {"alu": 6, "mul": 3, "div": 1},
    "f_card": {"hash": 1, "shift": 2, "cmp": 2},
    "f_array": {"store": 1},
    "ft_hist": {"div": 1, "cmp": 2, "alu": 1},
    "f_pdf": {"div": 1, "cmp": 2, "alu": 1},
    "f_cdf": {"div": 1, "cmp": 2, "alu": 1},
    "ft_percent": {"div": 1, "cmp": 2, "alu": 1},
}


def section_ops(section) -> Counter:
    """The operations one cell's updates run in a section: every map's
    and every feature reducer's counts (a reducer without a table entry
    prices as ``{"alu": 2}``)."""
    ops: Counter = Counter()
    for m in section.maps:
        ops.update(MAP_FN_OPS.get(m.fn.name, {}))
    for feat in section.features:
        ops.update(REDUCE_FN_OPS.get(feat.reduce_fn.name, {"alu": 2}))
    return ops


def price(ops: dict, prices: dict):
    """Cycles of an operation tally under one price table."""
    return sum(count * prices[op] for op, count in ops.items())


def register_fn_ops(name: str, ops: dict, kind: str = "reduce",
                    override: bool = False) -> None:
    """Register the operation counts of a user-defined function so the
    cycle model can price policies that use it."""
    table = REDUCE_FN_OPS if kind == "reduce" else MAP_FN_OPS
    if name in table and not override:
        raise ValueError(f"ops for {name!r} already registered")
    table[name] = dict(ops)


@dataclass(frozen=True)
class CycleModelConfig:
    """Optimization flags and core parameters (§6.2)."""

    reuse_switch_hash: bool = True
    thread_latency_hiding: bool = True
    division_elimination: bool = True
    n_threads: int = 8
    ctx_switch_cycles: int = 2
    freq_hz: float = 800e6

    @classmethod
    def baseline(cls) -> "CycleModelConfig":
        return cls(reuse_switch_hash=False, thread_latency_hiding=False,
                   division_elimination=False)

    @property
    def prices(self) -> dict:
        """NFP cycles per operation, division priced as its §6.2
        comparison replacement when ``division_elimination`` is on."""
        return {**OP_CYCLES, "div": OP_CYCLES[
            "div_elim" if self.division_elimination else "div"]}


@dataclass
class CycleBreakdown:
    """Per-cell cycle costs by category."""

    hash: float = 0.0
    memory: float = 0.0
    compute: float = 0.0
    division: float = 0.0

    @property
    def total(self) -> float:
        return self.hash + self.memory + self.compute + self.division


class CycleModel:
    """Prices a compiled policy's per-cell processing on one NFP core."""

    def __init__(self, compiled: CompiledPolicy,
                 config: CycleModelConfig | None = None,
                 placement: PlacementResult | None = None) -> None:
        self.compiled = compiled
        self.config = config or CycleModelConfig()
        self.placement = placement

    def cycles_per_cell(self) -> CycleBreakdown:
        cfg = self.config
        prices = cfg.prices
        bd = CycleBreakdown()
        bd.compute += CELL_OVERHEAD_CYCLES

        if not cfg.reuse_switch_hash:
            bd.hash += OP_CYCLES["hash"]

        accesses = 1          # MGPV cell read from packet memory (CTM)
        latency_sum = 60.0    # CTM
        for section in self.compiled.sections:
            level = section_level(section, self.placement)
            accesses += 2     # bucket load + writeback
            latency_sum += 2 * level.latency_cycles
            ops = section_ops(section)
            bd.division += ops.pop("div", 0) * prices["div"]
            bd.compute += price(ops, prices)

        if cfg.thread_latency_hiding:
            bd.memory += max(latency_sum / cfg.n_threads,
                             accesses * cfg.ctx_switch_cycles)
        else:
            bd.memory += latency_sum
        return bd

    def throughput_per_core_pps(self) -> float:
        """Cells (= original packets) one core processes per second."""
        total = self.cycles_per_cell().total
        return self.config.freq_hz / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Software (x86) baseline model — the "original implementation" of Fig 9.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoftwareProfile:
    """A commodity server running the application's original software
    feature extractor over port-mirrored traffic."""

    freq_hz: float = 3.0e9
    capture_cycles: float = 4000.0      # kernel+libpcap per-packet cost
    framework_factor: float = 60.0      # interpreter/framework overhead on
                                        # each primitive operation
    mem_cycles_per_access: float = 12.0  # warm-cache access
    div_cycles: float = 25.0            # hardware divide
    n_cores: int = 8                    # cores the extractor parallelizes
                                        # across on the mirror server


SOFTWARE_X86 = SoftwareProfile()


def software_cycles_per_packet(compiled: CompiledPolicy,
                               profile: SoftwareProfile = SOFTWARE_X86,
                               ) -> float:
    """Per-packet cost of the software feature extractor: capture overhead
    plus the same operation inventory priced at x86 costs with the
    framework factor the original (Python/framework-based) extractors
    pay."""
    prices = {op: 1.0 for op in OP_CYCLES}
    prices.update(div=profile.div_cycles, hash=40.0, mul=3.0, sqrt=20.0)
    cycles = profile.capture_cycles
    for section in compiled.sections:
        cycles += price(section_ops(section), prices) \
            * profile.framework_factor
    accesses = 1 + 2 * len(compiled.sections)
    return cycles + accesses * profile.mem_cycles_per_access


def software_throughput_pps(compiled: CompiledPolicy,
                            profile: SoftwareProfile = SOFTWARE_X86,
                            n_cores: int | None = None) -> float:
    """Packets/s of the software extractor on an ``n_cores`` server."""
    cores = n_cores if n_cores is not None else profile.n_cores
    return cores * profile.freq_hz / software_cycles_per_packet(
        compiled, profile)
