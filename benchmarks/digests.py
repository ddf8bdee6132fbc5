"""SHA-256 digests of the deterministic Fig / Table result files.

Every ``benchmarks/test_*.py`` writes one rendered table under
``benchmarks/results/``.  Most of them are pure functions of seeded
inputs and the code under test (event counts, byte ratios, feature
errors, cycle models), so a representation change anywhere in the
switch -> link -> engine chain must leave them byte-identical.
``DIGESTS.json`` records their SHA-256; wall-clock outputs are excluded
by name, whole files or single columns.

Check the current results against the record (exit 1 on drift)::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only -q \\
        --ignore=benchmarks/perf \\
        --deselect benchmarks/test_scaling_parallel.py::test_parallel_scaling
    python benchmarks/digests.py

Regenerate only on purpose, after a change that is meant to move a
result, with ``python benchmarks/digests.py --write``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

RESULTS = Path(__file__).with_name("results")
RECORD = RESULTS / "DIGESTS.json"

#: Outputs that measure this host's wall clock, not the reproduction.
EXCLUDED_FILES = {
    "scaling_parallel.txt": "shard-parallel pps on this host",
    "scaling_parallel_note.txt": "this host's core count and gate status",
    "scaling_parallel_gate.txt": "this host's core count and gate status",
    "soak_telemetry.jsonl": "span start times and durations",
}
#: Wall-clock columns of otherwise deterministic tables.
EXCLUDED_COLUMNS = {
    "fig15_streaming.txt": ("Stream time (s)", "Naive time (s)"),
}

_CELL_SEP = re.compile(r"\s{2,}")


def canonical(name: str, text: str) -> str:
    """The digested form of one result file: the text itself, or, for a
    table with excluded columns, its cells without those columns."""
    drop = EXCLUDED_COLUMNS.get(name)
    if not drop:
        return text
    title, header, *rows = text.splitlines()
    names = _CELL_SEP.split(header.rstrip())
    keep = [i for i, col in enumerate(names) if col not in drop]
    lines = [title]
    for line in (header, *rows):
        cells = _CELL_SEP.split(line.rstrip())
        lines.append("|".join(cells[i] for i in keep if i < len(cells)))
    return "\n".join(lines) + "\n"


def digests(results: Path = RESULTS) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(
            canonical(path.name, path.read_text()).encode()).hexdigest()
        for path in sorted(results.glob("*"))
        if path.name not in EXCLUDED_FILES and path != RECORD
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record the current digests (on purpose only)")
    args = parser.parse_args(argv)
    current = digests()
    if args.write:
        RECORD.write_text(json.dumps({
            "excluded_files": EXCLUDED_FILES,
            "excluded_columns": {k: list(v)
                                 for k, v in EXCLUDED_COLUMNS.items()},
            "sha256": current,
        }, indent=2) + "\n")
        print(f"recorded {len(current)} digests in {RECORD}")
        return 0
    want = json.loads(RECORD.read_text())["sha256"]
    drift = sorted(name for name in want.keys() | current.keys()
                   if want.get(name) != current.get(name))
    for name in drift:
        print(f"DRIFT {name}: recorded {want.get(name)} "
              f"now {current.get(name)}")
    print(f"{len(want) - len(drift)}/{len(want)} result digests match")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
