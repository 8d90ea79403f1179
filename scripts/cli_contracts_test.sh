#!/usr/bin/env bash
# CLI contract checks that need a built expert_cli.
#
# 1. `characterize --mode` accepts only online and offline: a bad value
#    exits non-zero with the usage message and prints no table, like
#    frontier, recommend and execute.
# 2. A campaign on a pure-grid Table V row (experiment 6 has no reliable
#    pool) samples N = inf only, so every planned BoT runs: all 3 BoTs
#    complete on the gridsim and the process backend, with identical
#    stdout.
#
# Usage: scripts/cli_contracts_test.sh path/to/expert_cli path/to/trace_analysis

set -u

CLI="${1:?usage: cli_contracts_test.sh path/to/expert_cli path/to/trace_analysis}"
TRACE_ANALYSIS="${2:?usage: cli_contracts_test.sh path/to/expert_cli path/to/trace_analysis}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "FAIL: $1" >&2
  shift
  for f in "$@"; do cat "$f" >&2; done
  exit 1
}

echo "== characterize --mode"
"$TRACE_ANALYSIS" "$workdir/history.csv" > /dev/null ||
  fail "trace_analysis could not write a history"
for mode in online offline; do
  "$CLI" characterize --trace "$workdir/history.csv" --mode "$mode" \
      > "$workdir/$mode.out" 2> "$workdir/$mode.err" ||
    fail "characterize --mode $mode exited non-zero" "$workdir/$mode.err"
done
"$CLI" characterize --trace "$workdir/history.csv" --mode bogus \
    > "$workdir/bogus.out" 2> "$workdir/bogus.err"
status=$?
[ "$status" -ne 0 ] || fail "characterize --mode bogus exited 0"
grep -q -- '--mode must be online or offline' "$workdir/bogus.err" ||
  fail "characterize --mode bogus did not name the bad option" \
    "$workdir/bogus.err"
[ ! -s "$workdir/bogus.out" ] ||
  fail "characterize --mode bogus printed output" "$workdir/bogus.out"

echo "== pure-grid campaign (experiment 6, no reliable pool)"
ARGS=(execute --experiment 6 --reps 3 --bots 3 --seed 5)
for backend in gridsim process; do
  "$CLI" "${ARGS[@]}" --backend "$backend" \
      > "$workdir/$backend.out" 2> "$workdir/$backend.err" ||
    fail "$backend campaign exited non-zero" "$workdir/$backend.err"
  grep -q '^3/3 BoTs completed, 0 quarantined$' "$workdir/$backend.out" ||
    fail "$backend campaign did not complete every BoT" "$workdir/$backend.out"
done
cmp -s "$workdir/gridsim.out" "$workdir/process.out" ||
  fail "process backend stdout differs from gridsim" \
    "$workdir/gridsim.out" "$workdir/process.out"
if pgrep -f "$(readlink -f "$CLI") worker" > /dev/null; then
  fail "expert_cli worker processes outlived the campaign"
fi

echo "PASS"
