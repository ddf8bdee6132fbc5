"""Compare runs of two commits (or two sets of runs of one commit).

    python3 benchmarks/perf/compare.py OLD.json NEW.json [OLD.json NEW.json]...

The arguments are ``run.py --out`` records, alternating old/new in the
order the pairs were run (alternate which side runs first).  One row
is printed per workload x end-to-end metric, with each side's median and
quartiles, how many pairs the new side won, and a verdict — never a
bare signed percentage:

``worse``       the new median is worse than the old by more than the
                metric's bound (``BENCHMARK.json``), and the spread is
                within the bound or every new run is worse than every
                old run;
``better``      at least 10 pairs, the new side wins at least 9 in 10
                (ties count for neither), and the medians differ by more
                than the old side's interquartile range;
``unresolved``  either side's run-to-run spread (IQR / median) is wider
                than the bound, so the runs cannot tell; or there is a
                single pair, so the spread is unknown;
``unchanged``   none of the above.

Per-layer counts (unit ``count``) are compared exactly between the two
runs of each pair that share a seed.  Exit status 1 if any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, int, int]:
    """(verdict, pairs the new side won, pairs decided)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    decided = sum(1 for o, n in pairs if n != o)
    if len(pairs) < 2:
        return "unresolved (1 pair: spread unknown)", wins, decided
    o1, o_med, o3 = quartiles(old)
    n1, n_med, n3 = quartiles(new)
    spread = max((o3 - o1) / abs(o_med), (n3 - n1) / abs(n_med))
    gain = sign * (n_med - o_med) / abs(o_med)
    all_worse = all(sign * (n - o) < 0 for o in old for n in new)
    all_better = all(sign * (n - o) > 0 for o in old for n in new)
    if -gain > bound:
        if spread <= bound or all_worse:
            return "worse", wins, decided
        return "unresolved (spread wider than bound)", wins, decided
    if (len(pairs) >= MIN_PAIRS and decided
            and wins >= WIN_SHARE * decided
            and abs(n_med - o_med) > o3 - o1):
        return "better", wins, decided
    if spread > bound and not all_better:
        return "unresolved (spread wider than bound)", wins, decided
    return "unchanged", wins, decided


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    runs = []
    for path in argv:
        with open(path) as fh:
            runs.append(json.load(fh))
    olds, news = runs[0::2], runs[1::2]

    any_worse = False
    print(f"{len(olds)} pair(s); old = {argv[0]} ..., new = {argv[1]} ...")
    head = (f"{'workload':<24} {'metric':<15} {'old q1/med/q3':<34} "
            f"{'new q1/med/q3':<34} {'wins':<6} verdict")
    print(head)
    for wl in [w["name"] for w in contract["workloads"]]:
        both = [(o["workloads"][wl], n["workloads"][wl])
                for o, n in zip(olds, news)
                if wl in o["workloads"] and wl in n["workloads"]]
        if not both:
            continue
        for spec in contract["end_to_end"]:
            name = spec["name"]
            old = [o["metrics"][name]["value"] for o, _ in both
                   if name in o["metrics"]]
            new = [n["metrics"][name]["value"] for _, n in both
                   if name in n["metrics"]]
            if not old or len(old) != len(new):
                continue
            what, wins, decided = verdict(old, new, spec["better"],
                                          spec["bound"])
            any_worse |= what == "worse"
            fmt = "{:.5g}/{:.5g}/{:.5g}".format
            print(f"{wl:<24} {name:<15} {fmt(*quartiles(old)):<34} "
                  f"{fmt(*quartiles(new)):<34} {wins}/{decided:<4} {what}")
        old_failed = sum(o["failed"] for o, _ in both)
        new_failed = sum(n["failed"] for _, n in both)
        attempted = sum(n["attempted"] for _, n in both)
        failed_verdict = ("worse" if new_failed > old_failed
                          else "better" if new_failed < old_failed
                          else "unchanged")
        any_worse |= failed_verdict == "worse"
        print(f"{wl:<24} {'failed_share':<15} "
              f"{old_failed}/{sum(o['attempted'] for o, _ in both):<32} "
              f"{new_failed}/{attempted:<32} {'':<6} {failed_verdict}")
        differing = set()
        compared = 0
        for o, n in zip(olds, news):
            if o["seed"] != n["seed"] or wl not in o["workloads"]:
                continue
            om, nm = o["workloads"][wl]["metrics"], n["workloads"][wl]["metrics"]
            for name in om.keys() & nm.keys():
                if om[name]["unit"] == "count":
                    compared += 1
                    if om[name]["value"] != nm[name]["value"]:
                        differing.add(name)
        if compared:
            print(f"{wl:<24} counts: {compared} compared, "
                  + (f"DIFFER: {', '.join(sorted(differing))}" if differing
                     else "all identical"))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
