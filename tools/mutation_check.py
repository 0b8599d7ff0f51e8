#!/usr/bin/env python3
"""Mutation check: every planted bug in tools/mutants/ must fail a test.

Each ``tools/mutants/*.patch`` is a small, deliberate fault in the library
(a dropped band sentinel in the banded Zhang–Shasha kernel, a positional
fallback that matches nothing, a range filter that truncates its
threshold, ...). The script

  1. copies the source tree (tracked and untracked, not ignored, files) to a
     temporary directory and configures a Release build there;
  2. builds the TARGETS below and runs them through ctest: the
     unmutated tree must pass all of them;
  3. for each patch, in name order: applies it, rebuilds, reruns the same
     tests and reverts it. The mutant must fail at least one test.

It fails (exit 1) when the unmutated tree fails, when a patch no longer
applies or no longer builds (either way the patch is named: update it to
the code it mutates), or when a mutant survives every test. The repository
itself is never modified. For each mutant it prints the tests, and the
gtest cases, that killed it. Builds and tests run one job per CPU.

Usage:
    tools/mutation_check.py
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS_DIR = os.path.join(REPO_ROOT, "tools", "mutants")
JOBS = os.cpu_count() or 1

# The tests that guard the mutated code: the band edge of the banded kernel,
# the positional bound and the BiBranch range filter's threshold. Each is a
# gtest target registered under the same ctest name.
TARGETS = [
    "bounded_ted_test",
    "ted_differential_test",
    "metamorphic_property_test",
    "lower_bound_property_test",
    "positional_test",
    "weighted_search_test",
]


def run(cmd, cwd, quiet=True):
    """Runs `cmd`; returns (exit code, combined output)."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if not quiet:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout


def copy_tree(dest):
    """Copies the files git sees (tracked or untracked, not ignored)."""
    code, out = run(["git", "ls-files", "-z", "--cached", "--others",
                     "--exclude-standard"], REPO_ROOT)
    if code != 0:
        raise RuntimeError("git ls-files failed:\n" + out)
    for rel in out.split("\0"):
        src = os.path.join(REPO_ROOT, rel)
        if not rel or not os.path.isfile(src):
            continue  # deleted in the work tree, or a submodule
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def build(build_dir):
    return run(["cmake", "--build", build_dir, "-j", str(JOBS), "--target"] +
               TARGETS, build_dir)


def run_tests(build_dir):
    """Returns (failed ctest names, failed gtest cases)."""
    regex = "^(" + "|".join(re.escape(t) for t in TARGETS) + ")$"
    # A mutant may loop; the timeout turns that into a failure.
    _, out = run(["ctest", "--test-dir", build_dir, "-R", regex, "-j",
                  str(JOBS), "--timeout", "600", "--output-on-failure"],
                 build_dir)
    ran = set(re.findall(r"Test +#\d+: (\S+) ", out))
    if ran != set(TARGETS):
        raise RuntimeError(f"ctest did not run {sorted(set(TARGETS) - ran)}:"
                           f"\n{out}")
    # Every entry under this heading failed, crashed or timed out.
    _, _, summary = out.partition("The following tests FAILED:")
    failed_tests = sorted(set(re.findall(r"^\s*\d+ - (\S+) \(", summary,
                                         re.MULTILINE)))
    cases = sorted(set(re.findall(r"^\[  FAILED  \] (\w+(?:/\w+)*\.\S+?)"
                                  r"(?:,| \(|$)", out, re.MULTILINE)))
    return failed_tests, cases


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    patches = sorted(p for p in os.listdir(MUTANTS_DIR)
                     if p.endswith(".patch"))
    if not patches:
        print(f"error: no *.patch in {MUTANTS_DIR}", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix="treesim_mutants_")
    src = os.path.join(work, "src")
    build_dir = os.path.join(work, "build")
    failures = []
    try:
        copy_tree(src)
        code, out = run(["cmake", "-S", src, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DTREESIM_BUILD_BENCHMARKS=OFF",
                         "-DTREESIM_BUILD_EXAMPLES=OFF",
                         "-DTREESIM_BUILD_FUZZERS=OFF"], work)
        if code != 0:
            print(out)
            print("error: configure failed", file=sys.stderr)
            return 1
        code, out = build(build_dir)
        if code != 0:
            print(out)
            print("error: the unmutated tree does not build", file=sys.stderr)
            return 1
        failed, cases = run_tests(build_dir)
        if failed:
            print(f"error: the unmutated tree fails {failed} {cases}",
                  file=sys.stderr)
            return 1
        print(f"unmutated: {len(TARGETS)} targets pass")

        for patch in patches:
            path = os.path.join(MUTANTS_DIR, patch)
            code, out = run(["git", "apply", "--check", path], src)
            if code != 0:
                failures.append(f"{patch}: does not apply\n{out}")
                print(f"STALE    {patch}")
                continue
            run(["git", "apply", path], src)
            try:
                code, out = build(build_dir)
                if code != 0:
                    failures.append(f"{patch}: does not build\n{out[-2000:]}")
                    print(f"NOBUILD  {patch}")
                    continue
                failed, cases = run_tests(build_dir)
            finally:
                run(["git", "apply", "-R", path], src)
            if failed:
                print(f"killed   {patch}: {' '.join(failed)}")
                for case in cases:
                    print(f"           {case}")
            else:
                failures.append(f"{patch}: survived {TARGETS}")
                print(f"SURVIVED {patch}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if failures:
        print("\nmutation check failed:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"mutation check passed: {len(patches)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
