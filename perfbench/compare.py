"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files as run.py writes them to
``.perfbench_out/results/`` (copy that directory aside between the two
commits).  For every workload and trace mode present in both sets, prints
the median of each metric over the seeds of each set and the relative
change.  Exact counters of traced runs with the same workload and seed must
be identical: any difference means the search or the instance changed, not
just its speed, and is flagged "search/instance changed", with exit
status 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _load(directory: str) -> dict:
    results = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        p = result["provenance"]
        results[(p["workload"], p["trace"], p["seed"])] = result
    return results


def _median(results: list[dict], name: str) -> float:
    return statistics.median(r["metrics"][name]["value"] for r in results)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = _load(argv[0]), _load(argv[1])
    groups = {key[:2] for key in before} & {key[:2] for key in after}
    for workload, trace in sorted(groups):
        old = [r for key, r in before.items() if key[:2] == (workload, trace)]
        new = [r for key, r in after.items() if key[:2] == (workload, trace)]
        print(f"{workload} trace={trace}  seeds: {len(old)} before, {len(new)} after")
        for name, metric in old[0]["metrics"].items():
            a, b = _median(old, name), _median(new, name)
            change = f"{(b - a) / a:+8.1%}" if a else "     n/a"
            print(f"  {name:34s} {a:14.10g} -> {b:14.10g} {metric['unit']:6s} {change}")
        failed = [sum(r["failed"] for r in rs) for rs in (old, new)]
        print(f"  {'failed tasks':34s} {failed[0]:14d} -> {failed[1]:14d}")

    changed = 0
    for key in sorted(before.keys() & after.keys()):
        a, b = before[key]["counters"], after[key]["counters"]
        diff = {n: (a.get(n), b.get(n)) for n in sorted(a.keys() | b.keys()) if a.get(n) != b.get(n)}
        if diff:
            changed += 1
            print(f"search/instance changed: {key[0]} seed={key[2]}: {diff}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
