"""Group-table placement across the memory hierarchy (§6.2, eqs 3-5).

Given the per-group states a policy needs — each with a size ``b_s`` and
per-packet access count ``t_s`` — choose which memory level's group table
holds each state, minimizing total access latency

    min  sum_s sum_m  p_{s,m} * t_s * l_m                         (3)

subject to every state living in exactly one level (4) and the bus
constraint (5): a level whose group table has width ``n_m`` (entries per
bucket) must fit a whole bucket in one data-bus transfer,

    n_m * sum_s p_{s,m} * b_s  <=  w_m.                           (5)

We additionally support a capacity constraint (``n_groups`` entries must
fit the level's size), which the paper's formulation leaves implicit.

The ILP is solved exactly with scipy's HiGHS backend (:func:`solve_ilp`,
standing in for the paper's Gurobi); :func:`solve_greedy` is the ablation
baseline — hottest states to the fastest level that still has bus budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiler import StateRequirement
from repro.nicsim.memory import (
    EMEM,
    NFP_MEMORY_HIERARCHY,
    MemoryLevel,
    level_by_name,
)


@dataclass(frozen=True)
class PlacementProblem:
    """One placement instance."""

    states: tuple[StateRequirement, ...]
    levels: tuple[MemoryLevel, ...] = tuple(NFP_MEMORY_HIERARCHY)
    table_width: dict | None = None      # level name -> n_m (default 4)
    n_groups: int | None = None          # expected concurrent groups

    def width_of(self, level: MemoryLevel) -> int:
        if self.table_width and level.name in self.table_width:
            return self.table_width[level.name]
        return 4

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("no states to place")
        if not self.levels:
            raise ValueError("no memory levels")


@dataclass(frozen=True)
class PlacementResult:
    placement: dict             # state name -> level name
    total_latency: float        # objective value (cycles per packet)
    feasible: bool
    method: str

    def utilization(self, problem: PlacementProblem) -> dict:
        """Fraction of each level's capacity the group tables consume
        (Table 4's SmartNIC memory column); requires ``n_groups``."""
        if problem.n_groups is None:
            raise ValueError("utilization needs problem.n_groups")
        by_level: dict[str, int] = {lvl.name: 0 for lvl in problem.levels}
        sizes = {s.name: s.size_bytes for s in problem.states}
        for state_name, level_name in self.placement.items():
            by_level[level_name] += sizes[state_name]
        util = {}
        for level in problem.levels:
            entry = by_level[level.name]
            util[level.name] = (entry * problem.n_groups
                                / level.size_bytes)
        return util


def section_level(section, placement: PlacementResult | None
                  ) -> MemoryLevel:
    """Memory level of a section's group table: the slowest level the
    placement holds any of its features' state in (a bucket load is
    bounded by it); EMEM without a placement or a placed feature."""
    names = [placement.placement.get(f.name) for f in section.features
             ] if placement is not None else []
    return max((level_by_name(n) for n in names if n),
               key=lambda level: level.latency_cycles, default=EMEM)


def _bus_budget(problem: PlacementProblem, level: MemoryLevel) -> float:
    """Per-entry byte budget implied by the bus constraint (5)."""
    return level.bus_width_bytes / problem.width_of(level)


def solve_ilp(problem: PlacementProblem) -> PlacementResult:
    """Exact solution via mixed-integer linear programming (HiGHS).
    ``scipy.optimize`` loads here, not at import: most callers never
    solve the ILP."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    states, levels = problem.states, problem.levels
    n_s, n_m = len(states), len(levels)
    n_vars = n_s * n_m

    cost = np.array([s.accesses_per_pkt * lvl.latency_cycles
                     for s in states for lvl in levels])

    constraints = []
    # (4) each state placed exactly once.
    assign = np.zeros((n_s, n_vars))
    for i in range(n_s):
        assign[i, i * n_m:(i + 1) * n_m] = 1.0
    constraints.append(LinearConstraint(assign, lb=1.0, ub=1.0))
    # (5) bus-width constraint per level.
    bus = np.zeros((n_m, n_vars))
    bus_ub = np.zeros(n_m)
    for j, lvl in enumerate(levels):
        for i, s in enumerate(states):
            bus[j, i * n_m + j] = s.size_bytes * problem.width_of(lvl)
        bus_ub[j] = lvl.bus_width_bytes
    constraints.append(LinearConstraint(bus, ub=bus_ub))
    # Capacity constraint when the expected group count is known.
    if problem.n_groups is not None:
        cap = np.zeros((n_m, n_vars))
        cap_ub = np.zeros(n_m)
        for j, lvl in enumerate(levels):
            for i, s in enumerate(states):
                cap[j, i * n_m + j] = s.size_bytes * problem.n_groups
            cap_ub[j] = lvl.size_bytes
        constraints.append(LinearConstraint(cap, ub=cap_ub))

    res = milp(c=cost, constraints=constraints,
               integrality=np.ones(n_vars),
               bounds=Bounds(0.0, 1.0))
    if not res.success:
        # Infeasible (states too big for the bus budgets): report the
        # greedy best-effort so callers can still see what fails.
        greedy = solve_greedy(problem)
        return PlacementResult(greedy.placement, greedy.total_latency,
                               feasible=False, method="ilp-infeasible")
    placement = {}
    total = 0.0
    x = np.asarray(res.x).reshape(n_s, n_m)
    for i, s in enumerate(states):
        j = int(np.argmax(x[i]))
        placement[s.name] = levels[j].name
        total += s.accesses_per_pkt * levels[j].latency_cycles
    return PlacementResult(placement, total, feasible=True, method="ilp")


def solve_greedy(problem: PlacementProblem) -> PlacementResult:
    """Baseline heuristic: place the most-accessed states into the fastest
    level whose remaining bus (and capacity) budget fits them."""
    levels = sorted(problem.levels, key=lambda l: l.latency_cycles)
    bus_left = {lvl.name: _bus_budget(problem, lvl) for lvl in levels}
    cap_left = {lvl.name: float(lvl.size_bytes) for lvl in levels}
    placement = {}
    total = 0.0
    feasible = True
    ordered = sorted(problem.states,
                     key=lambda s: -s.accesses_per_pkt * s.size_bytes)
    for s in ordered:
        placed = False
        for lvl in levels:
            cap_need = (s.size_bytes * problem.n_groups
                        if problem.n_groups is not None else 0.0)
            if (bus_left[lvl.name] >= s.size_bytes
                    and cap_left[lvl.name] >= cap_need):
                bus_left[lvl.name] -= s.size_bytes
                cap_left[lvl.name] -= cap_need
                placement[s.name] = lvl.name
                total += s.accesses_per_pkt * lvl.latency_cycles
                placed = True
                break
        if not placed:
            # Spill to the slowest level regardless of budget.
            lvl = levels[-1]
            placement[s.name] = lvl.name
            total += s.accesses_per_pkt * lvl.latency_cycles
            feasible = False
    return PlacementResult(placement, total, feasible, method="greedy")
