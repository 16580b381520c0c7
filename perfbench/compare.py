#!/usr/bin/env python3
"""Compare result files of two versions of rectaspec on one workload.

    python3 perfbench/compare.py --base out/a-*.json --new out/b-*.json

Each side may hold several runs (different seeds); the table shows each
side's median and quartiles per metric and, for end-to-end metrics, whether
the new median is worse than the base median by more than the bound in
BENCHMARK.json.  Runs made on different kernel backends (compiled against
pure Python), or on different workloads, are not compared: the comparison is
reported invalid and the exit code is 3.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    runs = []
    for path in paths:
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    for key in ("backend", "workload"):
        seen = {r["meta"]["backend"] if key == "backend" else r["workload"]
                for r in base + new}
        if len(seen) > 1:
            print(f"comparison INVALID: runs differ in {key} ({', '.join(sorted(seen))})")
            return 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    section = "e2e" if "e2e" in base[0] else "per_layer"
    print(f"workload {base[0]['workload']}, backend {base[0]['meta']['backend']}, "
          f"{len(base)} base runs, {len(new)} new runs")
    print(f"{'metric':32s} {'base q1/median/q3':>32s} {'new q1/median/q3':>32s}  verdict")
    regressed = False
    for name in base[0][section]:
        b = quartiles([r[section][name] for r in base])
        n = quartiles([r[section][name] for r in new])
        verdict = ""
        if name in bounds and b[1]:
            worse = (n[1] - b[1]) / b[1]
            if bounds[name]["better"] == "higher":
                worse = -worse
            verdict = f"{worse:+.1%} worse" if worse > 0 else f"{-worse:.1%} better"
            if worse > bounds[name]["bound"]:
                verdict += f" (beyond bound {bounds[name]['bound']:.0%})"
                regressed = True
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{name:32s} {fmt(b):>32s} {fmt(n):>32s}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
