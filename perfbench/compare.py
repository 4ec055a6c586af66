"""Compare two sets of benchmark records, such as a parent and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``perfbench/run.py`` writes to ``perfbench/out/``.  Records whose backend or
Python version differ are not comparable, and the comparison is refused.
For every workload and metric it prints both medians and quartiles and,
for end-to-end metrics, whether the new median is worse than the base by
more than the bound in ``BENCHMARK.json``.  Where the base's own spread is
wider than the bound the verdict is "unresolved".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))]


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    if not base or not new:
        print("compare: no records found", file=sys.stderr)
        return 2
    pinned = {(r["env"]["backend"], r["env"]["python"]) for r in base + new}
    if len(pinned) != 1:
        print(f"compare: refusing, backend/python differ: {sorted(pinned)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("backend/python:", *pinned.pop())
    for workload in sorted({r["workload"] for r in base}):
        for trace in (0, 1):
            rows = [[r for r in recs if r["workload"] == workload and r["trace"] == trace]
                    for recs in (base, new)]
            if not all(rows):
                continue
            print(f"\n{workload} (trace {trace}; {len(rows[0])} base, {len(rows[1])} new runs)")
            for name in rows[0][0]["result"]["metrics"]:
                b = quartiles([r["result"]["metrics"][name]["value"] for r in rows[0]])
                n = quartiles([r["result"]["metrics"][name]["value"] for r in rows[1]])
                change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
                verdict = ""
                if name in bounds:
                    bound = bounds[name]["bound"]
                    worse = change if better[name] == "lower" else -change
                    spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
                    verdict = ("unresolved" if spread > bound
                               else "WORSE" if worse > bound else "ok")
                print(f"  {name:44s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                      f"  new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {change:+.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
