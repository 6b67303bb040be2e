#!/usr/bin/env bash
# scripts/bench.sh — run the root benchmark suite (one Benchmark per paper
# table/figure, plus the scaling tiers: SolveN's water-filling, arrow and
# dense solver sweep, Sim10kPU's generated 10,000-PU cluster, and
# WarmRebalance's cold-vs-warm solver comparison) with -benchmem and write
# BENCH_<pr>.json:
# one machine-readable point of the repo's performance trajectory, carrying
# ns/op, B/op, allocs/op, and the custom metrics (sim-s, speedup-x,
# iters/solve, ...) each benchmark reports. Every benchmark runs COUNT
# times; each metric records the median of those samples, and its first
# and third quartiles.
#
# Usage: scripts/bench.sh [pr-number]
#   pr-number  trajectory point to write (default: next after the highest
#              existing BENCH_*.json)
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 1s)
#   COUNT       go test -count value: samples per benchmark (default 5)
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
count="${COUNT:-5}"
pattern="${BENCH:-.}"
cpu="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
out="BENCH_${pr}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running root benchmarks (-bench='$pattern' -benchtime=$benchtime -count=$count -cpu=$cpu)..." >&2
go test -run xxx -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" -cpu "$cpu" . | tee "$raw" >&2

# go test appends "-<cpu>" to every benchmark name unless cpu is 1; strip
# exactly that suffix, never a trailing input size such as Fig4MM/plb-hec-4096.
# Quantiles interpolate linearly between order statistics: q at position
# (n-1)*q of the sorted samples (the median of an even count is the mean of
# the middle two).
awk -v pr="$pr" -v benchtime="$benchtime" -v count="$count" -v cpu="$cpu" -v goversion="$(go env GOVERSION)" '
  function quantile(list, q,    v, n, i, j, t, pos, lo) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++) {
      t = v[i] + 0
      for (j = i - 1; j >= 1 && v[j] + 0 > t; j--) v[j + 1] = v[j]
      v[j + 1] = t
    }
    pos = (n - 1) * q + 1
    lo = int(pos)
    if (lo >= n) return v[n] + 0
    return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
  }
  function num(x) { return sprintf("%.10g", x) }
  /^goos:/  { goos = $2 }
  /^goarch:/ { goarch = $2 }
  /^cpu:/   { sub(/^cpu: */, ""); cpumodel = $0 }
  /^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    if (cpu != 1) sub("-" cpu "$", "", name)
    if (!(name in seen)) { seen[name] = 1; names[++nb] = name }
    samples[name]++
    iters[name] = iters[name] " " $2
    for (i = 3; i + 1 <= NF; i += 2) {
      key = name SUBSEP $(i + 1)
      if (!(key in vals)) units[name] = units[name] " " $(i + 1)
      vals[key] = vals[key] " " $i
    }
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
    printf "  \"count\": %s,\n", count
    printf "  \"benchmarks\": ["
    for (b = 1; b <= nb; b++) {
      name = names[b]
      nu = split(units[name], u, " ")
      m = ""; q1 = ""; q3 = ""
      for (k = 1; k <= nu; k++) {
        key = name SUBSEP u[k]
        sep = (k == 1 ? "" : ", ")
        m = m sprintf("%s\"%s\": %s", sep, u[k], num(quantile(vals[key], 0.5)))
        q1 = q1 sprintf("%s\"%s\": %s", sep, u[k], num(quantile(vals[key], 0.25)))
        q3 = q3 sprintf("%s\"%s\": %s", sep, u[k], num(quantile(vals[key], 0.75)))
      }
      printf "%s\n    {\"name\": \"%s\", \"iterations\": %d, \"samples\": %d, \"metrics\": {%s}, \"q1\": {%s}, \"q3\": {%s}}", (b == 1 ? "" : ","), name, quantile(iters[name], 0.5), samples[name], m, q1, q3
    }
    printf "\n  ]\n}\n"
  }
' "$raw" >"$out"
echo "wrote $out" >&2
