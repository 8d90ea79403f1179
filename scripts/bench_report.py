#!/usr/bin/env python3
"""Run a google-benchmark binary under a pinned config and emit a
schema-versioned report (expert.bench.v1).

The report is the stable interface between a benchmark run and the
regression gate (scripts/bench_compare.py): every time is normalized to
nanoseconds, each benchmark is reduced to the median over a fixed number
of repetitions, and entries are sorted by name so the JSON diffs cleanly.
Complexity-fit pseudo-entries (_BigO / _RMS) are dropped — they are
derived values, not measurements.

Usage:
  bench_report.py --binary build/bench/runtime_expert \
      --out bench/BENCH_expert.json [--repetitions 3] [--min-time 0.1] \
      [--filter REGEX]
"""

import argparse
import json
import subprocess
import sys
import tempfile

SCHEMA = "expert.bench.v1"

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Engine event-mix counters the estimator and engine benchmarks report,
# and the parallel sweep's whole-process CPU and engine events per sweep
# (its cpu_ns counts the calling thread only).
_EVENT_COUNTERS = ("events_per_run", "cancelled_share", "events_per_sweep",
                   "process_cpu_ns")


def run_binary(binary, repetitions, min_time, bench_filter):
    """Run the benchmark binary once, returning google-benchmark's JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd = [
            binary,
            "--benchmark_out=%s" % tmp.name,
            "--benchmark_out_format=json",
            "--benchmark_repetitions=%d" % repetitions,
            "--benchmark_min_time=%g" % min_time,
        ]
        if bench_filter:
            cmd.append("--benchmark_filter=%s" % bench_filter)
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        tmp.seek(0)
        return json.load(tmp)


def reduce_benchmarks(raw, repetitions):
    """Reduce google-benchmark entries to one median record per benchmark."""
    records = {}
    for entry in raw.get("benchmarks", []):
        run_name = entry.get("run_name", entry["name"])
        if run_name.endswith("_BigO") or run_name.endswith("_RMS"):
            continue
        if repetitions > 1:
            # With repetitions, google-benchmark appends aggregate rows;
            # the median row is the one the gate compares against.
            if entry.get("run_type") != "aggregate":
                continue
            if entry.get("aggregate_name") != "median":
                continue
        elif entry.get("run_type") == "aggregate":
            continue
        scale = _TO_NS[entry["time_unit"]]
        record = {
            "name": run_name,
            "iterations": entry.get("iterations", 0),
            "real_ns": entry["real_time"] * scale,
            "cpu_ns": entry["cpu_time"] * scale,
        }
        counters = {
            k: v
            for k, v in entry.items()
            if (k.startswith("cache_") or k in _EVENT_COUNTERS)
            and isinstance(v, (int, float))
        }
        if counters:
            record["counters"] = counters
        if run_name in records:
            raise SystemExit("duplicate benchmark entry: %s" % run_name)
        records[run_name] = record
    return [records[name] for name in sorted(records)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="google-benchmark binary to run")
    parser.add_argument("--out", required=True, help="report JSON path")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="repetitions per benchmark; the median is "
                             "reported (default 3)")
    parser.add_argument("--min-time", type=float, default=0.1,
                        help="--benchmark_min_time seconds (default 0.1)")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex (default: all)")
    args = parser.parse_args()

    raw = run_binary(args.binary, args.repetitions, args.min_time,
                     args.filter)
    benchmarks = reduce_benchmarks(raw, args.repetitions)
    if not benchmarks:
        raise SystemExit("benchmark run produced no entries")

    context = raw.get("context", {})
    report = {
        "schema": SCHEMA,
        "config": {
            "repetitions": args.repetitions,
            "min_time_s": args.min_time,
            "filter": args.filter,
            "aggregate": "median",
        },
        "context": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "library_build_type": context.get("library_build_type"),
        },
        "benchmarks": benchmarks,
    }
    with open(args.out, "w") as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    print("wrote %d benchmark medians to %s" % (len(benchmarks), args.out),
          file=sys.stderr)


if __name__ == "__main__":
    main()
