#!/usr/bin/env bash
# Size and public surface of every package in the workspace.
#
#   scripts/surface.sh [ROOT]      # ROOT defaults to the repo this script is in
#
# One row per package (the root facade `hlf-bft` is src/, tests/ and
# examples/; a member is its crates/<dir>):
#   code   Rust lines outside `tests/` directories
#   tests  Rust lines inside `tests/` directories
#   pub    `pub fn|struct|enum|trait|const|type` declarations outside
#          `tests/` (`pub(crate)` and the like are not counted, nor is `pub mod`)
#   mods   `pub mod` declarations outside `tests/`
#   opts   `pub fn with_` and `pub(..) fn with_` builder methods outside
#          `tests/`: the settable options a caller can reach
#   knobs  environment reads (`env::var(` and `env::var_os(`) outside
#          `tests/`: the switches a process takes from its environment
# then a `total` row. Counts are of lines, tests and comments included;
# only grep, awk and find are used, so it runs on any checkout.
set -euo pipefail

ROOT=${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}
cd "$ROOT"

# count <dir...>: prints "code tests pub mods opts knobs" for the .rs files under the dirs.
count() {
  find "$@" -name '*.rs' -type f -print0 2>/dev/null | xargs -0 -r awk '
    FNR == 1 { in_tests = (FILENAME ~ /(^|\/)tests\//) }
    { if (in_tests) tests++; else code++ }
    !in_tests && /^[ \t]*pub (fn|struct|enum|trait|const|type) / { pubs++ }
    !in_tests && /^[ \t]*pub mod / { mods++ }
    !in_tests && /^[ \t]*pub(\([a-z]+\))? fn with_/ { opts++ }
    !in_tests { knobs += gsub(/env::var(_os)?\(/, "&") }
    END { printf "%d %d %d %d %d %d\n", code, tests, pubs, mods, opts, knobs }' |
    awk '{ for (i = 1; i <= 6; i++) s[i] += $i } END { printf "%d %d %d %d %d %d\n", s[1], s[2], s[3], s[4], s[5], s[6] }'
}

row() { printf '%-16s %7s %7s %5s %5s %5s %5s\n' "$@"; }

row package code tests pub mods opts knobs
total=(0 0 0 0 0 0)
emit() {
  local name=$1; shift
  local c
  c=($(count "$@"))
  row "$name" "${c[@]}"
  for i in 0 1 2 3 4 5; do total[i]=$((total[i] + c[i])); done
}

emit hlf-bft src tests examples
for dir in crates/*/; do
  dir=${dir%/}
  name=$(awk -F'"' '/^\[package\]/ { p = 1; next } /^\[/ { p = 0 } p && /^name[ \t]*=/ { print $2; exit }' "$dir/Cargo.toml")
  emit "${name:-$dir}" "$dir"
done
row total "${total[@]}"
