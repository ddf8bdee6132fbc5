"""ILP / greedy state placement (§6.2, equations 3-5)."""

import pytest

from repro.core.compiler import StateRequirement
from repro.nicsim.memory import CLS, CTM, EMEM, IMEM
from repro.nicsim.placement import (
    PlacementProblem,
    solve_greedy,
    solve_ilp,
)


def req(name, size, accesses=1.0, section="flow"):
    return StateRequirement(name, section, size, accesses)


class TestProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlacementProblem(states=())
        with pytest.raises(ValueError):
            PlacementProblem(states=(req("a", 8),), levels=())

    def test_width_default_and_override(self):
        p = PlacementProblem(states=(req("a", 8),),
                             table_width={"CLS": 8})
        assert p.width_of(CLS) == 8
        assert p.width_of(CTM) == 4


class TestILP:
    def test_single_state_goes_fast(self):
        p = PlacementProblem(states=(req("a", 8),))
        result = solve_ilp(p)
        assert result.feasible
        assert result.placement["a"] == "CLS"
        assert result.total_latency == CLS.latency_cycles

    def test_hot_states_preferred_in_fast_memory(self):
        # Bus budget of CLS at width 4 is 16 B: only one 16-B state fits.
        p = PlacementProblem(states=(req("hot", 16, accesses=10.0),
                                     req("cold", 16, accesses=1.0)))
        result = solve_ilp(p)
        assert result.feasible
        assert result.placement["hot"] == "CLS"
        assert result.placement["cold"] != "CLS"

    def test_bus_constraint_respected(self):
        # 8 states of 8 B: at width 4 each level's bus budget is 16 B,
        # so exactly two states fit per level across the four levels.
        states = tuple(req(f"s{i}", 8, accesses=1.0) for i in range(8))
        p = PlacementProblem(states=states)
        result = solve_ilp(p)
        assert result.feasible
        for level in p.levels:
            placed_bytes = sum(
                8 for name, lvl in result.placement.items()
                if lvl == level.name)
            assert placed_bytes * p.width_of(level) <= \
                level.bus_width_bytes

    def test_capacity_constraint(self):
        # One 32-B state per group, 16k groups = 512 KB: too big for CLS
        # (64 KB) and CTM (256 KB) even though the bus would allow it at
        # width 1.
        p = PlacementProblem(
            states=(req("big", 32),),
            table_width={"CLS": 1, "CTM": 1, "IMEM": 1, "EMEM": 1},
            n_groups=16384)
        result = solve_ilp(p)
        assert result.feasible
        assert result.placement["big"] in ("IMEM", "EMEM")

    def test_infeasible_falls_back(self):
        # A state wider than any bus budget.
        p = PlacementProblem(states=(req("huge", 4096),))
        result = solve_ilp(p)
        assert not result.feasible
        assert result.method == "ilp-infeasible"
        assert "huge" in result.placement

    def test_utilization(self):
        p = PlacementProblem(states=(req("a", 16),), n_groups=1000)
        result = solve_ilp(p)
        util = result.utilization(p)
        assert set(util) == {"CLS", "CTM", "IMEM", "EMEM"}
        placed = result.placement["a"]
        assert util[placed] == pytest.approx(
            16 * 1000 / dict(CLS=CLS, CTM=CTM, IMEM=IMEM,
                             EMEM=EMEM)[placed].size_bytes)

    def test_utilization_requires_group_count(self):
        p = PlacementProblem(states=(req("a", 8),))
        with pytest.raises(ValueError):
            solve_ilp(p).utilization(p)


class TestGreedyVsILP:
    def test_ilp_never_worse_than_greedy(self):
        import itertools
        sizes = [8, 16, 24, 8, 40, 8]
        accesses = [5.0, 1.0, 3.0, 2.0, 1.0, 8.0]
        states = tuple(req(f"s{i}", s, a)
                       for i, (s, a) in enumerate(zip(sizes, accesses)))
        p = PlacementProblem(states=states)
        ilp = solve_ilp(p)
        greedy = solve_greedy(p)
        assert ilp.total_latency <= greedy.total_latency + 1e-9

    def test_greedy_places_everything(self):
        states = tuple(req(f"s{i}", 16, float(i + 1)) for i in range(8))
        result = solve_greedy(PlacementProblem(states=states))
        assert set(result.placement) == {s.name for s in states}


def test_scipy_optimize_loads_only_to_solve():
    """``import repro, repro.api, repro.cli`` does not pay for
    ``scipy.optimize``; the first ``solve_ilp`` loads it and solves."""
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import sys\n"
        "import repro, repro.api, repro.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "from repro.core.compiler import StateRequirement\n"
        "from repro.nicsim.placement import PlacementProblem, solve_ilp\n"
        "r = solve_ilp(PlacementProblem(states=(\n"
        "    StateRequirement('a', 'flow', 8, 1.0),)))\n"
        "print(r.feasible, r.method, 'scipy.optimize' in sys.modules)\n")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == ["False", "True", "ilp", "True"]
