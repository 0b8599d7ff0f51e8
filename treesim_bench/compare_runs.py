#!/usr/bin/env python3
"""Compares two sets of treesim_bench --json reports against BENCHMARK.json.

    python3 treesim_bench/compare_runs.py --a A/*.json --b B/*.json [--same]

A directory argument stands for every *.json report in it (chrome-trace
files are skipped). For each workload and end-to-end metric it prints each
set's median and quartiles, the relative gap of B against A (positive means
B is worse), and checks the gap against the metric's bound: B worse by more
than the bound is a regression, and with --same (two sets of one commit)
a gap beyond the bound in either direction is a disagreement. A set whose
own quartile spread exceeds the bound is marked unresolved.

The answers must not change, so for each workload and seed the answer
digest must repeat across both sets, and no run may have failed a check.
Per-layer counts (calls, cells, count fractions, dictionary growth) must
repeat within each set; across the sets only with --same, since a change
that does less work moves them. Exits 1 on any disagreement or regression,
0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Per-layer units that are counts or ratios of counts, not times: for one
# build and seed they repeat exactly.
COUNT_UNITS = {"calls/query", "cells/call", "fraction", "entries/1000q"}


def load(paths):
    reports = []
    for arg in paths:
        path = pathlib.Path(arg)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            if f.name.endswith(".chrome_trace.json"):
                continue
            doc = json.loads(f.read_text(encoding="utf-8"))
            point = doc["points"][0]
            reports.append({
                "file": str(f),
                "workload": doc["config"]["workload"],
                "seed": doc["config"]["seed"],
                "trace": doc["config"]["trace"],
                "digest": point["answer_digest"],
                "failed": point["failed"],
                "metrics": {k: v["value"] for k, v in point["metrics"].items()},
            })
    return reports


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload_seed(reports):
    groups = {}
    for r in reports:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    return groups


def count_mismatches(label, reports, count_metrics):
    """Per-layer counts that differ between traced runs of one group."""
    traced = [r for r in reports if r["trace"]]
    out = []
    for name in count_metrics:
        seen = {r["metrics"].get(name) for r in traced}
        if len(seen) > 1:
            out.append(f"{label}: per-layer count {name} differs: "
                       f"{sorted(seen, key=str)}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True)
    parser.add_argument("--b", nargs="+", required=True)
    parser.add_argument("--same", action="store_true",
                        help="both sets come from one commit: any gap "
                             "beyond the bound, or any per-layer count "
                             "that differs, is a disagreement")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = {"A": load(args.a), "B": load(args.b)}
    problems = []

    for name, reports in sets.items():
        for r in reports:
            if r["failed"] != 0:
                problems.append(f"{r['file']}: {r['failed']} failed checks")

    print(f"{'workload':18} {'metric':13} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'gap':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        wl = w["name"]
        for m in spec["end_to_end"]:
            values = {}
            for name, reports in sets.items():
                values[name] = [r["metrics"][m["name"]] for r in reports
                                if r["workload"] == wl and not r["trace"]
                                and m["name"] in r["metrics"]]
            if not values["A"] or not values["B"]:
                problems.append(f"{wl} {m['name']}: no runs in "
                                f"{'A' if not values['A'] else 'B'}")
                continue
            qa, qb = quartiles(values["A"]), quartiles(values["B"])
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (qb[1] - qa[1]) / qa[1]
            bound = m["bound"]
            verdict = "ok"
            if gap > bound or (args.same and -gap > bound):
                verdict = "REGRESSED" if gap > bound else "DIFFERS"
                problems.append(f"{wl} {m['name']}: gap {gap:+.3f} beyond "
                                f"bound {bound}")
            elif -gap > bound:
                verdict = "improved"
            spreads = [(q[2] - q[0]) / q[1] for q in (qa, qb)]
            if m["name"] != "setup_s" and max(spreads) > bound:
                verdict += f" (unresolved: spread {max(spreads):.3f})"
            cell = "{:.4g}/{:.4g}/{:.4g} n={}"
            print(f"{wl:18} {m['name']:13} "
                  f"{cell.format(*qa, len(values['A'])):>30} "
                  f"{cell.format(*qb, len(values['B'])):>30} "
                  f"{gap:+7.3f} {bound:6.2f}  {verdict}")

    count_metrics = [m["name"] for m in spec["per_layer"]
                     if m["unit"] in COUNT_UNITS]
    both = by_workload_seed(sets["A"] + sets["B"])
    for (wl, seed), reports in sorted(both.items()):
        digests = {r["digest"] for r in reports}
        if len(digests) > 1:
            problems.append(f"{wl} seed {seed}: answer_digest differs: "
                            f"{sorted(digests)}")
    if args.same:
        for (wl, seed), reports in sorted(both.items()):
            problems += count_mismatches(f"{wl} seed {seed}", reports,
                                         count_metrics)
    else:
        for name, reports in sets.items():
            for (wl, seed), group in sorted(by_workload_seed(reports).items()):
                problems += count_mismatches(f"{name} {wl} seed {seed}",
                                             group, count_metrics)
    repeated = sum(len(r) > 1 for r in both.values())
    print(f"\nrepeat groups (workload, seed) with 2+ runs: {repeated}; "
          f"count metrics checked: {len(count_metrics)} "
          f"({'across both sets' if args.same else 'within each set'})")

    for p in problems:
        print(f"DISAGREE: {p}")
    print("result:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
