"""Steadiness check over sets of untraced benchmark results.

    python3 perfbench/compare.py SET_A [SET_B]

Each SET is a directory of `<workload>-seed<n>-trace0.json` files written by
`perfbench/run.py --out SET`.  For every workload and end-to-end metric it
prints the median and the quartile spread (q3 - q1) / median of the set, and
flags a spread above the metric's bound (setup_s excepted).  With two sets it
also flags a median that got worse from A to B by more than the bound, and
any op whose output digests differ between runs of the same workload and
seed.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """{(workload, seed): result} for the untraced results under `path`."""
    results = {}
    for name in sorted(glob.glob(os.path.join(path, "*-trace0.json"))):
        with open(name, encoding="utf-8") as fh:
            result = json.load(fh)
        results[(result["workload"], result["seed"])] = result
    return results


def spread(values):
    """(median, (q3 - q1) / median) as the steadiness rule defines them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def op_digests(result):
    return [(op["kind"], op["seed"], op["digests"]) for op in result["ops"]]


def compare(sets, spec):
    problems = []
    medians = []
    for label, results in sets:
        if not results:
            problems.append(f"{label}: no results")
            medians.append({})
            continue
        per_metric = {}
        for (workload, seed), result in sorted(results.items()):
            summary = result["summary"]
            if not summary["correct"]:
                problems.append(f"{label}: {workload} seed {seed} not correct")
            for name, entry in summary["metrics"].items():
                per_metric.setdefault((workload, name), []).append(entry["value"])
        table = {}
        for metric in spec["end_to_end"]:
            for workload in sorted({w for w, _ in results}):
                values = per_metric.get((workload, metric["name"]), [])
                if len(values) < 2:
                    continue
                med, rel = spread(values)
                table[(workload, metric["name"])] = med
                flag = ""
                if metric["name"] != "setup_s" and rel > metric["bound"]:
                    flag = "  SPREAD ABOVE BOUND"
                    problems.append(f"{label}: {workload} {metric['name']} spread {rel:.4f}")
                print(f"{label}  {workload:<16} {metric['name']:<12} n={len(values):<3d}"
                      f" median {med:12.6f} {metric['unit']:<3} spread {rel:.4f}"
                      f" (bound {metric['bound']}, target < {metric['bound'] / 3:.4f}){flag}")
        medians.append(table)
    if len(sets) == 2:
        (label_a, a), (label_b, b) = sets
        for metric in spec["end_to_end"]:
            for key, med_a in sorted(medians[0].items()):
                if key[1] != metric["name"] or key not in medians[1]:
                    continue
                change = (medians[1][key] - med_a) / med_a
                worse = change if metric["better"] == "lower" else -change
                flag = "  WORSE THAN BOUND" if worse > metric["bound"] else ""
                if flag:
                    problems.append(f"{key[0]} {key[1]} median worse by {worse:.4f}")
                print(f"{label_a}->{label_b}  {key[0]:<16} {key[1]:<12} "
                      f"median change {change:+.4f}{flag}")
        shared = sorted(set(a) & set(b))
        for key in shared:
            if op_digests(a[key]) != op_digests(b[key]):
                problems.append(f"{key[0]} seed {key[1]}: output digests differ")
        print(f"digests compared for {len(shared)} shared (workload, seed) runs")
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [(os.path.basename(os.path.normpath(p)), load_set(p)) for p in argv]
    problems = compare(sets, spec)
    for problem in problems:
        print("FLAG " + problem)
    print("steady" if not problems else f"{len(problems)} flag(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
