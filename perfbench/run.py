#!/usr/bin/env python3
"""End-to-end benchmark of one planned BoT (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload campaign|service|replay \
        --seed N --seconds S --trace 0|1

Builds the library, expert_cli and the benchmark program (Release) into
.bench_build/perfbench on first use, then runs one workload. The last line
of standard output is the JSON result; the exit code is non-zero when the
build fails, the run fails, or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def checkout_env():
    """Keep compiler and program temporaries inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then an incremental build of the two binaries."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "expert_perfbench", "expert_cli"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=checkout_env())
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            log("build failed: " + " ".join(cmd))
            return None, None
    bench = os.path.join(BUILD, "expert_perfbench")
    cli = os.path.join(BUILD, "expert_tools", "expert_cli")
    for path in (bench, cli):
        if not os.access(path, os.X_OK):
            log(f"build produced no {path}")
            return None, None
    return bench, cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "service", "replay"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    bench, cli = build()
    if bench is None:
        return 1

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--work-dir", work,
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=checkout_env())
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        log("run printed no result")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    if done.returncode != 0 or not result.get("correct", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
