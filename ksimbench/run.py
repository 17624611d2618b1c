#!/usr/bin/env python3
"""Builds ksimbench against the simulator sources and runs one workload.

    python3 ksimbench/run.py --workload doe-paper --seed 1 --seconds 25 --trace 0
    python3 ksimbench/run.py --self-test

Run it from the repository root.  The build lives in .bench_build/ksimbench
(configured on first use, incremental afterwards); build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  Without
the simulator sources next to this directory the build fails and the script
exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ksimbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("ksimbench: simulator sources not found next to " + HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # e.g. an exported checkout without .git


def main():
    args = sys.argv[1:]
    try:
        if args == ["--self-test"]:
            binary = build("ksimbench_selftest")
            os.execv(binary, [binary])
        binary = build("ksimbench")
    except subprocess.CalledProcessError as e:
        sys.exit("ksimbench: build failed: %s" % e)
    sys.stdout.flush()
    os.execv(binary, [binary] + args + [
        "--references", os.path.join(HERE, "references.json"),
        "--out-dir", os.path.join(BUILD, "results"),
        "--commit", commit()])


if __name__ == "__main__":
    main()
