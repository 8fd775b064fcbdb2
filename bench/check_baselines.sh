#!/bin/sh
# Runs each bench binary in the current directory and diffs the JSON it
# writes against a committed baseline, with the "wall_ lines (host timings)
# stripped from both sides. Every other line is a same-seed deterministic
# simulated quantity, so any difference is a change to the model.
#
# Usage: check_baselines.sh <bench-binary> <baseline.json> [<bench-binary> <baseline.json> ...]
# A baseline named NAME.json is compared with the BENCH_NAME.json its bench
# writes. Exits nonzero on the first bench that fails or differs.
set -eu

if [ $# -eq 0 ] || [ $(($# % 2)) -ne 0 ]; then
  echo "usage: $0 <bench-binary> <baseline.json> [...]" >&2
  exit 2
fi

while [ $# -gt 0 ]; do
  bin=$1
  baseline=$2
  shift 2
  out="BENCH_$(basename "$baseline")"
  rm -f "$out"
  "$bin" > /dev/null
  grep -v '"wall_' "$baseline" > "$out.expected"
  grep -v '"wall_' "$out" > "$out.actual"
  if ! diff -u "$out.expected" "$out.actual"; then
    echo "$out differs from $baseline (wall_ lines excepted)" >&2
    exit 1
  fi
  rm -f "$out.expected" "$out.actual"
  echo "$out matches $baseline"
done
