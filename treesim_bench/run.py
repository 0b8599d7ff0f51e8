#!/usr/bin/env python3
"""Builds treesim_bench from this checkout's sources and runs one workload.

    python3 treesim_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary is built with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build, under the checkout root; the first call pays for the build,
later calls find it up to date.
Its report lands in <build>/out/. The last line on stdout is one JSON object:

    {"correct": true, "attempted": 123, "failed": 0,
     "metrics": {"<name>": {"value": 1.23, "unit": "ms"}, ...}}

carrying the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1 (which also writes a chrome-trace file
next to the report). The binary's own output goes to stderr. Exits nonzero,
without the JSON line, when the build or the run fails or a metric is
missing.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir() -> pathlib.Path:
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(bdir: pathlib.Path, env: dict) -> pathlib.Path:
    """Configures until a first build succeeds (after that the build step
    reconfigures when a CMake file changes) and builds the binary, a no-op
    when up to date; returns the binary."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    binary = bdir / "treesim_bench"
    if not binary.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "treesim_bench", "--parallel", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   env=env, timeout=max(1.0, deadline - time.monotonic()))
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    # Compiler temporaries go under the build directory, not /tmp.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        binary = build(bdir, env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    out = bdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    report_path = out / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--json={report_path}"]
    if args.trace:
        cmd.append(f"--trace={out / f'{stem}.chrome_trace.json'}")
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"run.py: treesim_bench failed: {err}", file=sys.stderr)
        return 1

    point = json.loads(report_path.read_text(encoding="utf-8"))["points"][0]
    metrics = {}
    for m in wanted:
        got = point["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} ({m['unit']}) missing from "
                  f"the report, got {got}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": point["correct"],
                      "attempted": point["attempted"],
                      "failed": point["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
