#!/usr/bin/env bash
# Self-test of the benchmark itself.
#
#   benchmark/selftest.sh [--smoke]
#
# 1. `hlf-benchmark selftest`: the same seed gives the same payload digest
#    and another seed another; the checker passes a correct chain and
#    reports a dropped envelope, a duplicated one, a broken prev_hash, a
#    forged signature, foreign payload bytes and a data hash that does not
#    cover the envelopes.
# 2. Every workload, with 2 s stages: exits 0, is correct, loses nothing,
#    and its result line holds every end-to-end metric of BENCHMARK.json
#    exactly once, under a well-formed name, with the declared unit.
# 3. In a directory holding only BENCHMARK.json and benchmark/, the
#    command fails without printing a result.
#
# --smoke is the only mode: the stages are always short (under 60 s in all
# once built); full-length runs are `run.sh` and `run.sh --calibrate`.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(dirname "$HERE")
BIN=$(bash "$HERE/build.sh" | tail -n 1)
SECONDS_PER_RUN=4
fail() { echo "selftest: FAIL $*" >&2; exit 1; }

"$BIN" selftest || fail "the checker or the generator"

for workload in $("$BIN" --list); do
  out=$("$BIN" --workload "$workload" --seed 3 --seconds "$SECONDS_PER_RUN" --trace 0) \
    || fail "$workload exited non-zero"
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, re, sys
workload = sys.argv[1]
bench = json.load(open(sys.argv[2]))
line = sys.stdin.read()
def pairs(items):  # a repeated key must not vanish into a dict
    keys = [k for k, _ in items]
    assert len(keys) == len(set(keys)), f"repeated key in {keys}"
    return dict(items)
result = json.loads(line, object_pairs_hook=pairs)
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
assert set(result["metrics"]) == set(declared), sorted(set(result["metrics"]) ^ set(declared))
for name, metric in result["metrics"].items():
    assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert metric["unit"] == declared[name], (name, metric["unit"])
    assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, (name, metric)
print(f"selftest: ok   {workload}: every end-to-end metric once, correct, nothing failed")
' "$workload" "$ROOT/BENCHMARK.json" || fail "$workload result line"
done

bare="$(dirname "$BIN")/selftest-bare"
rm -rf "$bare"; mkdir -p "$bare"
trap 'rm -rf "$bare"' EXIT
cp "$ROOT/BENCHMARK.json" "$bare/"
cp -r "$HERE" "$bare/benchmark"
rm -rf "$bare/benchmark/out"
if out=$(cd "$bare" && CARGO_TARGET_DIR=.bench_build bash benchmark/run.sh --workload hub_small --seed 1 --seconds 4 --trace 0 2>/dev/null); then
  fail "the command succeeded without the program's sources"
fi
[ -z "$out" ] || fail "the command printed '$out' without the program's sources"
echo "selftest: ok   fails without a result where only the benchmark is present"
echo "selftest: all passed"
