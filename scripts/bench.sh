#!/usr/bin/env bash
# scripts/bench.sh — run the root benchmark suite (one Benchmark per paper
# table/figure, plus the scaling tiers: SolveN's water-filling, arrow and
# dense solver sweep, Sim10kPU's generated 10,000-PU cluster, and
# WarmRebalance's cold-vs-warm solver comparison) with -benchmem and write
# BENCH_<pr>.json:
# one machine-readable point of the repo's performance trajectory, carrying
# ns/op, B/op, allocs/op, and the custom metrics (sim-s, speedup-x,
# iters/solve, ...) each benchmark reports.
#
# Usage: scripts/bench.sh [pr-number]
#   pr-number  trajectory point to write (default: next after the highest
#              existing BENCH_*.json)
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 1s)
#   BENCH       benchmark regex (default '.', the whole suite)
#   GOMAXPROCS  the -cpu value the suite runs at (default: online CPUs)
#
# See docs/PERFORMANCE.md for how to read and compare trajectory points.
set -euo pipefail
cd "$(dirname "$0")/.."

pr="${1:-}"
if [ -z "$pr" ]; then
  pr=1
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n="${f#BENCH_}"
    n="${n%.json}"
    case "$n" in *[!0-9]*) continue ;; esac
    [ "$n" -ge "$pr" ] && pr=$((n + 1))
  done
fi

benchtime="${BENCHTIME:-1s}"
pattern="${BENCH:-.}"
cpu="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
out="BENCH_${pr}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running root benchmarks (-bench='$pattern' -benchtime=$benchtime -cpu=$cpu)..." >&2
go test -run xxx -bench "$pattern" -benchmem -benchtime "$benchtime" -cpu "$cpu" . | tee "$raw" >&2

# go test appends "-<cpu>" to every benchmark name unless cpu is 1; strip
# exactly that suffix, never a trailing input size such as Fig4MM/plb-hec-4096.
awk -v pr="$pr" -v benchtime="$benchtime" -v cpu="$cpu" -v goversion="$(go env GOVERSION)" '
  /^goos:/  { goos = $2 }
  /^goarch:/ { goarch = $2 }
  /^cpu:/   { sub(/^cpu: */, ""); cpumodel = $0 }
  /^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    if (cpu != 1) sub("-" cpu "$", "", name)
    iters = $2
    m = ""
    for (i = 3; i + 1 <= NF; i += 2)
      m = m sprintf("%s\"%s\": %s", (m == "" ? "" : ", "), $(i + 1), $i)
    row = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}",
                  name, iters, m)
    rows = rows (rows == "" ? "" : ",\n") row
  }
  END {
    printf "{\n"
    printf "  \"pr\": %s,\n", pr
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpumodel
    printf "  \"gomaxprocs\": %s,\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n%s\n  ]\n}\n", rows
  }
' "$raw" >"$out"
echo "wrote $out" >&2
