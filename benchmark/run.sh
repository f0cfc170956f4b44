#!/usr/bin/env bash
# The repo's benchmark: one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload in this process; the last line of stdout
#       is the JSON result BENCHMARK.json describes (what the driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       every workload, one fresh process each, one after the other; prints
#       every end-to-end metric, then the TCP/hub ratio. With --trace each
#       workload is run a second time, traced: every per-layer metric, and
#       bench.trace_overhead_pct from the two runs' sat-stage rates
#   benchmark/run.sh --calibrate [--runs R] [--seed N]
#       two interleaved sets of runs of every workload; appends a section
#       to NOISE.md
#
# --seed defaults to 1 and --seconds to BENCHMARK.json's run_seconds in
# every mode. Builds first (benchmark/build.sh, offline, raw rustc); build
# time is outside every metric.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(dirname "$HERE")
BIN=$(bash "$HERE/build.sh" | tail -n 1)

mode=all workload= seed=1 trace=0 runs=
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$ROOT/BENCHMARK.json")
while [ $# -gt 0 ]; do
  case "$1" in
    --calibrate) mode=calibrate ;;
    --workload) mode=one; workload=$2; shift ;;
    --seed) seed=$2; shift ;;
    --seconds) seconds=$2; shift ;;
    --runs) runs=$2; shift ;;
    --trace) trace=1; case "${2:-}" in 0|1) trace=$2; shift ;; esac ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

run_one() { # <workload> <trace 0|1>
  "$BIN" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --out "$HERE/out"
}

case "$mode" in
  one)
    run_one "$workload" "$trace"
    exit
    ;;
  calibrate)
    exec python3 "$HERE/calibrate.py" --binary "$BIN" --seed "$seed" --seconds "$seconds" ${runs:+--runs "$runs"}
    ;;
esac

# Every workload: a fresh process each, never two at once; this shell
# sleeps in wait() while one runs.
metric() { awk -v key="$2" '$1 == key { print $2 }' <<<"$1"; }
status=0 hub=0 tcp=0
for workload in $("$BIN" --list); do
  out=$(run_one "$workload" 0) || { echo "FAILED: $workload" >&2; status=1; }
  grep -v '^{' <<<"$out" || true
  rate=$(metric "$out" "$workload/tx_per_s")
  case "$workload" in hub_small) hub=${rate:-0} ;; tcp_small) tcp=${rate:-0} ;; esac
  if [ "$trace" = 1 ]; then
    out=$(run_one "$workload" 1) || { echo "FAILED: $workload (traced)" >&2; status=1; }
    grep -v '^{' <<<"$out" || true
    # Equal work, same estimator, tracing off and on: two separate runs, so
    # the figure carries their run-to-run spread (see NOISE.md).
    awk -v w="$workload" -v off="${rate:-0}" -v on="$(metric "$out" "$workload/bench.tx_per_s_traced")" \
      'BEGIN { if (off > 0 && on > 0) printf "%s/bench.trace_overhead_pct %.2f %%\n", w, (1 - on / off) * 100 }'
  fi
done
awk -v hub="$hub" -v tcp="$tcp" 'BEGIN { if (hub > 0)
  printf "tcp_small/tx_per_s / hub_small/tx_per_s = %.3f (expected band 0.5-0.75)\n", tcp / hub }'
exit $status
