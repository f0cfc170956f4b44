#!/usr/bin/env bash
# Runs one test, or the whole tier-1 suite, many times, optionally beside
# busy loops that keep the cores occupied, and counts the failures.
#
#   scripts/soak.sh <test> <runs> <busy-loops>
#
#   <test>        a test's name; its last path segment is enough
#                 (leader_crash_triggers_failover). `tier1` runs the whole
#                 tier-1 command, `cargo test -q`, instead
#   <runs>        how many runs
#   <busy-loops>  spinning shell loops to run beside it (0: idle box)
#
# Builds first: the release test binaries for one test (it is run as
# `<binary> --exact <full name>`), the tier-1 profile for `tier1`. Each
# failing run's output is kept in target/soak/<test>-<run>.log. Prints a
# line per failed run and a last line
#   soak: <test>: <failed> of <runs> runs failed (<busy-loops> busy loops)
# and exits non-zero if any run failed. The busy loops stop on exit.
set -euo pipefail

if [ $# -ne 3 ]; then
  sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
test=$1 runs=$2 busy=$3
ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$ROOT"
LOGS="${CARGO_TARGET_DIR:-$ROOT/target}/soak"
mkdir -p "$LOGS"

if [ "$test" = tier1 ]; then
  cargo build --release -q
  cargo test -q --no-run 2>/dev/null
  run() { cargo test -q; }
else
  bins=$(cargo test --release --workspace --no-run 2>&1 | sed -n 's/.*Executable .*(\(.*\))$/\1/p')
  matches=()
  for bin in $bins; do
    while read -r name; do
      matches+=("$bin $name")
    done < <("$bin" --list 2>/dev/null | sed -n "s/^\(\(.*::\)\{0,1\}$test\): test$/\1/p")
  done
  if [ "${#matches[@]}" -ne 1 ]; then
    echo "soak: '$test' names ${#matches[@]} tests, not one" >&2
    [ "${#matches[@]}" -eq 0 ] || printf '  %s\n' "${matches[@]}" >&2
    exit 2
  fi
  read -r bin name <<<"${matches[0]}"
  run() { "$bin" --exact "$name"; }
fi

pids=()
stop_busy() { for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done; }
trap stop_busy EXIT
for _ in $(seq "$busy"); do
  (while :; do :; done) &
  pids+=($!)
done

failed=0
for i in $(seq "$runs"); do
  if ! run >"$LOGS/current.log" 2>&1; then
    failed=$((failed + 1))
    mv "$LOGS/current.log" "$LOGS/$test-$i.log"
    echo "soak: run $i failed (log: $LOGS/$test-$i.log)"
  fi
done
rm -f "$LOGS/current.log"
echo "soak: $test: $failed of $runs runs failed ($busy busy loops)"
[ "$failed" -eq 0 ]
