"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER each hold the stdout of one or more runs of run.py
(appended one after another).  For every workload and end-to-end metric it
prints both medians, the change as a share of BEFORE's median and whether
that change stays within the metric's bound in BENCHMARK.json.  It refuses
(exit 2) when the runs were made with different kernel backends or core
counts, because their timings are not comparable; it exits 1 when any
metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[tuple[dict, dict]]:
    """(detail, result) pairs of every run in the file."""
    docs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.startswith("{")]
    return [(d, r) for d, r in zip(docs, docs[1:]) if "env" in d and "metrics" in r]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {side: load(path) for side, path in zip(("before", "after"), argv)}
    envs = {(d["env"]["backend"], d["env"]["usable_cores"]) for side in runs.values() for d, _ in side}
    if len(envs) > 1:
        print(f"refusing to compare: runs differ in (backend, usable cores): {sorted(envs)}", file=sys.stderr)
        return 2
    worse = False
    for workload in sorted({d["workload"] for side in runs.values() for d, _ in side}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            med = {}
            for side, pairs in runs.items():
                values = [r["metrics"][name]["value"] for d, r in pairs
                          if d["workload"] == workload and name in r["metrics"]]
                med[side] = statistics.median(values) if values else None
            if med["before"] is None or med["after"] is None:
                continue
            change = (med["after"] - med["before"]) / med["before"]
            got_worse = change if metric["better"] == "lower" else -change
            verdict = "WORSE than bound" if got_worse > metric["bound"] else "within bound"
            worse = worse or got_worse > metric["bound"]
            print(f"{workload:12s} {name:12s} {med['before']:12.4f} -> {med['after']:12.4f} "
                  f"{metric['unit']:5s} {change:+7.1%} (bound {metric['bound']:.0%}) {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
