"""Ablation: the division-free arithmetic's accuracy cost (§6.2).

Division elimination buys the Fig 17 speedup; this ablation quantifies
what it costs in feature fidelity — the per-feature relative error of
the division-free integer path against exact floating point, over real
trace data.  The paper's accuracy budget (Fig 10's <4%) bounds it.
"""

import numpy as np
from conftest import run_once

import repro.api as api
from repro.bench.tables import Table
from repro.core.policy import pktstream


def stats_policy():
    return (pktstream().groupby("flow")
            .map("ipt", "tstamp", "f_ipt")
            .reduce("size", ["f_mean", "f_var", "f_std"])
            .reduce("ipt", ["f_mean", "f_var", "f_std"])
            .collect("flow"))


def relative_error(traces, division_free: bool) -> dict:
    policy = stats_policy()
    errors: dict[str, list] = {}
    for packets in traces.values():
        hw = api.compile(policy, division_free=division_free) \
            .run(packets).by_key()
        ref_result = api.compile(policy, software=True).run(packets)
        names = ref_result.feature_names
        ref = ref_result.by_key()
        for key in set(hw) & set(ref):
            for i, name in enumerate(names):
                denom = abs(ref[key][i])
                if denom > 1e-6:
                    errors.setdefault(name, []).append(
                        abs(hw[key][i] - ref[key][i]) / denom)
    return {name: float(np.mean(v)) for name, v in errors.items()}


def test_ablation_division_free_accuracy(benchmark, traces, report):
    err_free = relative_error(traces, division_free=True)
    err_exact = relative_error(traces, division_free=False)
    table = Table(
        "Ablation — division-free arithmetic: mean relative error",
        ["Feature", "Division-free (NFP)", "Exact float"])
    for name in err_free:
        table.add_row(name, err_free[name], err_exact.get(name, 0.0))
        # Exact path is bit-exact; division-free stays inside the 4%
        # budget of Fig 10.
        assert err_exact.get(name, 0.0) < 1e-9
        assert err_free[name] < 0.04, name
    report("ablation_division_free", table.render())

    packets = traces["ENTERPRISE"]
    run_once(benchmark, lambda: api.compile(stats_policy()).run(
        packets[:2000]))
