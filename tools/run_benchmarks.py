#!/usr/bin/env python3
"""Benchmark suite driver: run the bench binaries, merge their reports.

Every bench binary under build/bench/ accepts `--json=FILE` and writes the
canonical per-binary report (schema bench/bench_report.h). This driver runs
a suite, collects those reports, and merges them into one suite-level file
(default: BENCH_treesim.json at the repo root) of the shape

    {
      "schema_version": 1,
      "suite": "treesim",
      "quick": true,
      "build": { ... }          # provenance copied from the first report
      "benchmarks": [ {per-binary report}, ... ]
    }

Modes:
  --quick     small workloads (CI gate; a couple of minutes end to end)
  (default)   the full paper-scale suite — hours, for real measurements

The suite file is what tools/bench_compare.py diffs against a baseline.

Usage:
    tools/run_benchmarks.py --quick [--build-dir build] [--out FILE]
                            [--only SUBSTR] [--list]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Suite definition: (binary, quick_args, full_args). Quick runs shrink the
# dataset/query counts through the shared bench flags (bench_util.h
# ParseCommonFlags); micro benches shrink through --benchmark_filter plus
# min_time. A binary missing from the build tree is reported and skipped
# (exit nonzero) so a broken CMake wiring cannot silently pass.
SUITE = [
    ("metrics_overhead", [], []),
    ("fig07_fanout_range", ["--trees=300", "--queries=3"], []),
    ("fig08_fanout_knn", ["--trees=300", "--queries=3"], []),
    ("fig09_size_range", ["--trees=300", "--queries=3"], []),
    ("fig10_size_knn", ["--trees=300", "--queries=3"], []),
    ("fig11_labels_range", ["--trees=300", "--queries=3"], []),
    ("fig12_labels_knn", ["--trees=300", "--queries=3"], []),
    ("fig13_dblp_knn", ["--trees=300", "--queries=5"], []),
    ("fig14_dblp_range", ["--trees=300", "--queries=5"], []),
    ("fig15_distance_distribution", ["--trees=300", "--queries=10"], []),
    ("ablation_filters", ["--trees=200", "--queries=3"], []),
    ("ablation_histogram_budget", ["--trees=200", "--queries=4"], []),
    ("parallel_speedup", ["--trees=120", "--queries=8"], []),
    ("micro_core",
     ["--benchmark_filter=BM_ProfileConstruction/.*|BM_InvertedFileBuild/100",
      "--benchmark_min_time=0.05"], []),
    ("micro_distances",
     ["--benchmark_filter=.*ZhangShasha/50$|BoundedZhangShasha.*/50/",
      "--benchmark_min_time=0.05"], []),
]


def run_one(bench_dir, name, extra_args, verbose):
    """Runs one binary with --json into a temp file; returns its report."""
    binary = os.path.join(bench_dir, name)
    if not os.path.exists(binary):
        raise FileNotFoundError(binary)
    fd, json_path = tempfile.mkstemp(prefix=f"bench_{name}_", suffix=".json")
    os.close(fd)
    try:
        cmd = [binary, f"--json={json_path}"] + extra_args
        if verbose:
            print("+", " ".join(cmd), flush=True)
        out = None if verbose else subprocess.DEVNULL
        subprocess.run(cmd, check=True, stdout=out, stderr=out)
        with open(json_path, "r", encoding="utf-8") as f:
            report = json.load(f)
    finally:
        os.unlink(json_path)
    for key in ("schema_version", "benchmark", "build", "points"):
        if key not in report:
            raise ValueError(f"{name}: report missing required key '{key}'")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT, "BENCH_treesim.json"))
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI-sized, minutes not hours)")
    parser.add_argument("--only", default="",
                        help="run only binaries whose name contains SUBSTR")
    parser.add_argument("--list", action="store_true",
                        help="print the suite and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="show benchmark stdout")
    args = parser.parse_args()

    selected = [(n, q, f) for (n, q, f) in SUITE if args.only in n]
    if args.list:
        for name, quick_args, full_args in selected:
            extra = quick_args if args.quick else full_args
            print(f"{name} {' '.join(extra)}".strip())
        return 0
    if not selected:
        print(f"error: no benchmark matches --only={args.only}",
              file=sys.stderr)
        return 2

    bench_dir = os.path.join(args.build_dir, "bench")
    reports = []
    failures = []
    for name, quick_args, full_args in selected:
        extra = quick_args if args.quick else full_args
        try:
            reports.append(run_one(bench_dir, name, extra, args.verbose))
            print(f"ok   {name}", flush=True)
        except FileNotFoundError as e:
            failures.append(f"{name}: binary not built ({e})")
            print(f"MISS {name}", flush=True)
        except (subprocess.CalledProcessError, ValueError,
                json.JSONDecodeError) as e:
            failures.append(f"{name}: {e}")
            print(f"FAIL {name}", flush=True)

    suite = {
        "schema_version": 1,
        "suite": "treesim",
        "quick": args.quick,
        "build": reports[0]["build"] if reports else {},
        "benchmarks": reports,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(suite, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out} ({len(reports)} benchmark reports)")

    if failures:
        print("\nfailures:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
