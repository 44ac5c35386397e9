"""Side-by-side comparison of two result sets against BENCHMARK.json's bounds.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (it writes them
to ``.perfbench_out/results/``); untraced results are grouped by
workload.  For every (workload, end-to-end metric) the tool prints each
side's median and quartiles, the ratio NEW/BASE with its base value, and
a verdict:

* ``unresolved``: either side's spread (interquartile range over median)
  is wider than the bound, unless every NEW run beats every BASE run;
* ``REGRESSION``: NEW is worse than BASE by more than the bound;
* ``ok``: within the bound, or better.

The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != 0:
            continue
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
    lower = better == "lower"
    if (b3 - b1) / b2 > bound or (n3 - n1) / n2 > bound:
        beats = max(new) < min(base) if lower else min(new) > max(base)
        return "better (every run)" if beats else "unresolved"
    worse_by = (n2 / b2 if lower else b2 / n2) - 1
    return "REGRESSION" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(argv[0]), load(argv[1])
    regressions = 0
    print(f"{'workload':<10} {'metric':<14} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'new/base':>9}  verdict (bound)")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                print(f"{workload:<10} {metric['name']:<14} missing in "
                      f"{'base' if key not in base else 'new'}")
                continue
            (b1, b2, b3), (n1, n2, n3) = quartiles(base[key]), quartiles(new[key])
            result = verdict(base[key], new[key], metric["better"], metric["bound"])
            regressions += result == "REGRESSION"
            print(f"{workload:<10} {metric['name']:<14} "
                  f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':<30} "
                  f"{f'{n2:.4g} [{n1:.4g}, {n3:.4g}]':<30} "
                  f"{n2 / b2:9.3f}  {result} ({metric['better']} is better, "
                  f"bound {metric['bound']:.0%}, base {b2:.4g} {metric['unit']}, "
                  f"n={len(base[key])}/{len(new[key])})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
