#!/usr/bin/env python3
"""Compares two makespan-benchmark result files, per workload and metric.

    python3 makespan_bench/compare.py BASE.json NEW.json

Each file is a result that `run.py` wrote under `makespan_bench/results/`:
one workload (`<workload>-seed<n>-trace<t>.json`) or all of them
(`all-seed<n>-trace<t>.json`). For every metric present in both, the
script prints the base value, the new value and the ratio new/base. With
`BENCHMARK.json` beside this directory it also marks an end-to-end metric
that got worse by more than its bound. A single pair of runs is not
evidence of a gain or a regression: compare medians of repeated runs.
"""

import json
import pathlib
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def runs_of(path):
    """Maps (workload, trace) to the metrics of each run in a result file."""
    data = json.loads(pathlib.Path(path).read_text())
    runs = data["runs"] if "runs" in data else [data]
    return {(r["workload"], r["trace"]): r["metrics"] for r in runs}


def bounds():
    """Maps an end-to-end metric name to (better, bound)."""
    if not SPEC.exists():
        return {}
    spec = json.loads(SPEC.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(ratio, rule):
    if rule is None or ratio is None:
        return ""
    better, bound = rule
    worse = ratio - 1 if better == "lower" else 1 - ratio
    return "WORSE" if worse > bound else ""


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = runs_of(sys.argv[1]), runs_of(sys.argv[2])
    rules = bounds()
    common = sorted(set(base) & set(new))
    if not common:
        sys.exit("compare.py: the files share no (workload, trace) run")
    for key in common:
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        print(f"{'metric':44} {'base':>14} {'new':>14} {'new/base':>9}")
        for name, b in base[key].items():
            if name not in new[key]:
                continue
            bv, nv = b["value"], new[key][name]["value"]
            ratio = nv / bv if bv else None
            shown = f"{ratio:9.4f}" if ratio is not None else f"{'-':>9}"
            flag = verdict(ratio, rules.get(name))
            print(f"{name:44} {bv:14.6g} {nv:14.6g} {shown} {b['unit']:8} {flag}")


if __name__ == "__main__":
    main()
