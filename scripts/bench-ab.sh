#!/usr/bin/env bash
# bench-ab.sh BASE HEAD: interleaved A/B of the gated Go benchmarks on this
# host. Both git refs are extracted with `git archive` (no worktree state
# in .git) and built into one test binary per package per side. One
# warm-up round per side is discarded; then each of the measured rounds
# takes one sample of every benchmark per side, alternating which side
# goes first. benchdiff, always from this script's own tree, compares the
# medians and exits 1 when head regressed past base (see its doc comment).
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 BASE HEAD" >&2; exit 2; }
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
rounds=6

# "package benchmark-regexp [extra test flags]": every benchmark CI gates.
# A SimulateWildLife run lasts 25-130 ms; one run per sample left paired
# ratios on identical code as wide as benchdiff's 15% tolerance, so each
# sample averages five. The two cosim benchmarks swing by a third between
# samples of identical code however long a sample runs (TimingModelExternal
# 57-110 us per round trip, with the child process it spawns; InProcess
# 20-41 ns, within one process), and six single samples per side let the
# paired rule fire on no change, so each round takes five short samples
# of each. StreamFold (4-6 ms per fold) read paired x1.150 5/6 slower on
# identical code, one round short of the rule, so it takes five samples
# of 40 folds per round, about as long as one default 1 s sample.
# ZipfGenDraw and ZipfGenDrawRun (10-20 ns per draw) take five samples of
# 2M draws per round, like the cosim pair.
benches=(
  ". ^(BenchmarkSimulateWildLife|BenchmarkSimulateWildLifeFastForward)$ -test.benchtime=5x"
  "internal/cluster ^BenchmarkClusterSweep$"
  "internal/cluster ^BenchmarkStreamFold$ -test.benchtime=40x -test.count=5"
  "internal/core ^BenchmarkStreamIngest$"
  "internal/cache ^BenchmarkStreamGenBatch$"
  "internal/xrand ^BenchmarkZipfGenDraw$ -test.benchtime=2000000x -test.count=5"
  "internal/sim ^BenchmarkZipfGenDrawRun$ -test.benchtime=2000000x -test.count=5"
  "internal/subset ^BenchmarkSubsetSelect$"
  "internal/cosim ^BenchmarkTimingModelInProcess$ -test.benchtime=10000000x -test.count=5"
  "internal/cosim ^BenchmarkTimingModelExternal$ -test.benchtime=2000x -test.count=5"
)

for side in base head; do
  ref=$1
  [ "$side" = head ] && ref=$2
  mkdir "$work/$side"
  git -C "$repo" archive "$ref" | tar -x -C "$work/$side"
  for i in "${!benches[@]}"; do
    read -r pkg _ <<<"${benches[$i]}"
    (cd "$work/$side" && go test -c -o "$work/$side.$i.test" "./$pkg")
  done
done

# run SIDE OUT appends one sample of every benchmark on SIDE to OUT.
run() {
  for i in "${!benches[@]}"; do
    read -r pkg re extra <<<"${benches[$i]}"
    (cd "$work/$1/$pkg" && "$work/$1.$i.test" -test.run '^$' -test.bench "$re" \
      -test.benchmem -test.count 1 -test.timeout 10m $extra) >>"$2"
  done
}

run base /dev/null
run head /dev/null
for ((r = 1; r <= rounds; r++)); do
  echo "bench-ab: round $r of $rounds" >&2
  if ((r % 2)); then
    run base "$work/base.txt"; run head "$work/head.txt"
  else
    run head "$work/head.txt"; run base "$work/base.txt"
  fi
done
cd "$repo" && go run ./scripts/benchdiff.go "$work/base.txt" "$work/head.txt"
