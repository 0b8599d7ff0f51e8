#!/usr/bin/env python3
"""Smoke test of the treesim_bench binary at --scale=smoke.

    python3 treesim_bench/smoke_test.py --binary BUILD/treesim_bench --out DIR

Runs every workload of BENCHMARK.json once, plus one traced run, and checks
that each report carries every metric BENCHMARK.json lists for its mode
with the listed unit, that a traced run wrote its trace file, and that no
check failed. Takes a few seconds; exits 1 on the first problem.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(binary, out, workload, traced):
    stem = f"{workload}_trace{int(traced)}"
    report = out / f"{stem}.json"
    trace = out / f"{stem}.chrome_trace.json"
    cmd = [binary, f"--workload={workload}", "--seed=7", "--seconds=0.2",
           "--scale=smoke", f"--json={report}"]
    if traced:
        cmd.append(f"--trace={trace}")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
    if traced and not trace.exists():
        raise AssertionError(f"{workload}: no trace file written")
    return json.loads(report.read_text(encoding="utf-8"))["points"][0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = [(w["name"], False) for w in spec["workloads"]]
    runs.append((spec["workloads"][0]["name"], True))
    for workload, traced in runs:
        point = run(args.binary, out, workload, traced)
        wanted = spec["per_layer" if traced else "end_to_end"]
        for m in wanted:
            got = point["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                print(f"FAIL {workload}: metric {m['name']} ({m['unit']}) "
                      f"reported as {got}")
                return 1
        if point["failed"] != 0 or not point["correct"]:
            print(f"FAIL {workload}: {point['failed']} failed checks")
            return 1
        print(f"ok {workload}{' (traced)' if traced else ''}: "
              f"{len(wanted)} metrics, attempted {point['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
