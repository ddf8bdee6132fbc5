"""Discrete-event simulation of one NFP flow-processing core (§6.2).

The analytic :class:`~repro.nicsim.cycles.CycleModel` prices a cell with
closed-form terms; this module *executes* the same per-cell program on a
simulated core to validate those terms.  The core model matches the NFP:
one thread executes at a time (compute is serialized on the core's
datapath), a memory access parks the issuing thread until the reply
returns ``latency`` cycles later, and a 2-cycle context switch hands the
core to the next ready thread — so memory latency is hidden exactly when
enough sibling threads have compute to run.

The per-cell program is derived from a compiled policy with the same
cost tables the analytic model uses, so the two are directly comparable
(``tests/test_nicsim/test_coresim.py`` asserts agreement).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiler import CompiledPolicy
from repro.nicsim.cycles import (
    CELL_OVERHEAD_CYCLES,
    OP_CYCLES,
    CycleModelConfig,
    price,
    section_ops,
)
from repro.nicsim.memory import CTM
from repro.nicsim.placement import PlacementResult, section_level


@dataclass(frozen=True)
class Phase:
    """One step of the per-cell program."""

    kind: str           # "compute" | "mem"
    cycles: int

    def __post_init__(self) -> None:
        if self.kind not in ("compute", "mem"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.cycles < 0:
            raise ValueError("cycles must be non-negative")


def cell_program(compiled: CompiledPolicy,
                 config: CycleModelConfig | None = None,
                 placement: PlacementResult | None = None
                 ) -> list[Phase]:
    """The phase sequence one cell runs through: cell fetch, optional
    hash, then per section a bucket load, the function updates, and the
    writeback."""
    config = config or CycleModelConfig()
    phases = [Phase("compute", CELL_OVERHEAD_CYCLES)]
    if not config.reuse_switch_hash:
        phases.append(Phase("compute", OP_CYCLES["hash"]))
    phases.append(Phase("mem", CTM.latency_cycles))     # cell fetch
    for section in compiled.sections:
        level = section_level(section, placement)
        phases.append(Phase("mem", level.latency_cycles))   # bucket load
        compute = price(section_ops(section), config.prices)
        phases.append(Phase("compute", max(compute, 1)))
        phases.append(Phase("mem", level.latency_cycles))   # writeback
    return phases


@dataclass
class CoreSimResult:
    cells: int
    total_cycles: int
    ctx_switches: int
    idle_cycles: int

    @property
    def cycles_per_cell(self) -> float:
        return self.total_cycles / self.cells if self.cells else 0.0

    def throughput_pps(self, freq_hz: float = 800e6) -> float:
        if self.total_cycles == 0:
            return 0.0
        return freq_hz * self.cells / self.total_cycles


@dataclass
class _Thread:
    ready_at: int = 0
    phase_idx: int = 0
    has_cell: bool = False


class CoreSimulator:
    """Run-to-memory-stall execution of ``n_threads`` hardware threads
    over a stream of identical cells."""

    def __init__(self, program: list[Phase], n_threads: int = 8,
                 ctx_switch_cycles: int = 2) -> None:
        if not program:
            raise ValueError("empty cell program")
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.program = list(program)
        self.n_threads = n_threads
        self.ctx_switch_cycles = ctx_switch_cycles

    def run(self, n_cells: int) -> CoreSimResult:
        if n_cells < 1:
            raise ValueError("need at least one cell")
        threads = [_Thread() for _ in range(self.n_threads)]
        now = 0
        next_cell = 0
        done = 0
        ctx_switches = 0
        idle = 0

        while done < n_cells:
            # Pick the earliest-ready thread.
            thread = min(threads, key=lambda t: t.ready_at)
            if thread.ready_at > now:
                idle += thread.ready_at - now
                now = thread.ready_at
            if not thread.has_cell:
                if next_cell >= n_cells:
                    # No work left for this thread; park it forever.
                    thread.ready_at = float("inf")    # type: ignore
                    continue
                next_cell += 1
                thread.has_cell = True
                thread.phase_idx = 0

            # Execute compute phases until a memory stall or completion.
            while thread.phase_idx < len(self.program):
                phase = self.program[thread.phase_idx]
                if phase.kind == "compute":
                    now += phase.cycles
                    thread.phase_idx += 1
                else:
                    # Issue the access; reply arrives `latency` later,
                    # the core switches to another thread meanwhile.
                    thread.ready_at = now + phase.cycles
                    thread.phase_idx += 1
                    now += self.ctx_switch_cycles
                    ctx_switches += 1
                    break
            else:
                done += 1
                thread.has_cell = False
                thread.ready_at = now

        return CoreSimResult(cells=n_cells, total_cycles=now,
                             ctx_switches=ctx_switches,
                             idle_cycles=idle)


def simulate_policy(compiled: CompiledPolicy, n_cells: int = 2000,
                    config: CycleModelConfig | None = None,
                    placement: PlacementResult | None = None
                    ) -> CoreSimResult:
    """Convenience wrapper: build the cell program and simulate."""
    config = config or CycleModelConfig()
    program = cell_program(compiled, config, placement)
    n_threads = config.n_threads if config.thread_latency_hiding else 1
    sim = CoreSimulator(program, n_threads=n_threads,
                        ctx_switch_cycles=config.ctx_switch_cycles)
    return sim.run(n_cells)
