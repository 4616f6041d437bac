#!/usr/bin/env python3
"""Builds the repository benchmark from the sources beside it and runs one
workload.

    python3 perfbench/run.py --workload ceb-oltp --seed 1 --seconds 10 --trace 0

Workloads: ceb-oltp, ceb-olap, serve-mixed (see BENCHMARK.json). The build
goes to .bench_build/perfbench and the persisted true cardinalities to
.bench_build/perfbench-cache, both under the checkout root. The last line of
standard output is the run's JSON result; the exit code is the benchmark's
(1 when an output was wrong). Without the library sources (../src) the
build fails and the script exits 1 without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-cache")
WORKLOADS = ("ceb-oltp", "ceb-olap", "serve-mixed")
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()


def build():
    """Configures (once) and builds the benchmark; logs go to stderr."""
    configured = any(os.path.isfile(os.path.join(BUILD_DIR, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                           "perfbench", "-j", jobs], stdout=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache-dir", CACHE_DIR, "--source-id", source_id()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the benchmark and waited for it.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        valid = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError):
        valid = False
    if not valid:
        print("perfbench: no result line (exit code %d)" % run.returncode,
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
