#!/usr/bin/env bash
# Builds the simulator and its benchmark (Release, into build/benchmark) and
# runs it.
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload untraced, then every workload traced
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one run of one workload
#
# Each run prints one `workload metric value unit` line per metric, the
# workload's output digest, and as its last line a JSON object with the
# keys correct, attempted, failed and metrics. Results and Chrome traces
# are written to build/benchmark/results/. Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="build/benchmark"

workload=""
seed=1
seconds=15
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "error: unknown argument $1" >&2; exit 2 ;;
  esac
done

# The simulator reads RAVE_* variables (cache directory, SIMD level, event
# coalescing); none may leak into a measurement.
while read -r var; do unset "$var"; done < <(compgen -e | grep '^RAVE_' || true)

generator=()
if command -v ninja >/dev/null 2>&1 && [[ ! -f "$build/Makefile" ]]; then
  generator=(-G Ninja)
fi
{
  cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target rave_benchmark benchmark_stats_test \
    --parallel 4
} >&2

driver=("$build/rave_benchmark" --seed "$seed" --seconds "$seconds"
        --work-dir "$build/work" --out-dir "$build/results")
if [[ $smoke -eq 1 ]]; then
  driver+=(--smoke)
fi

if [[ -n "$workload" ]]; then
  exec "${driver[@]}" --workload "$workload" --trace "$trace"
fi

status=0
for t in 0 1; do
  for w in suite-cold suite-warm high-rate lossy-low-rate; do
    "${driver[@]}" --workload "$w" --trace "$t" || status=1
  done
done
exit $status
