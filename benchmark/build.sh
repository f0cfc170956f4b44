#!/usr/bin/env bash
# Offline build of the benchmark harness and the workspace crates it
# links, with raw rustc (cargo cannot resolve crossbeam/parking_lot
# without a registry).
#
# Nothing about the workspace is hard-coded: the crate graph is read
# from benchmark/harness/Cargo.toml and crates/*/Cargo.toml
# ([package] name, [lib] name/path, [dependencies]); a dependency that
# is not a workspace crate is satisfied by benchmark/stubs/<name>.rs.
# A later PR that adds or drops a crate or an edge never edits this file.
#
# Prints the path of the built binary as the last line of stdout.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(dirname "$HERE")
TARGET=${CARGO_TARGET_DIR:-.bench_build}
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
OUT="$TARGET/benchmark"
BIN="$OUT/hlf-benchmark"

# Fixed flags: the same optimisation level on every commit, no debug
# assertions, one codegen unit so inlining does not depend on the
# number of cores of the machine that builds.
FLAGS=(--edition 2021 -Copt-level=3 -Ccodegen-units=1 -Cdebug-assertions=off -Awarnings)

say() { echo "build: $*" >&2; }

[ -d "$ROOT/crates" ] || { say "no crates/ next to $HERE: nothing to benchmark"; exit 2; }
command -v rustc >/dev/null || { say "rustc not found"; exit 2; }

# fields <Cargo.toml>: prints "name lib path dep dep ..." for a manifest.
fields() {
  awk '
    /^\[/ { section = $0; next }
    section == "[package]" && /^name[ \t]*=/ { gsub(/[" ]/, "", $0); sub(/^name=/, ""); name = $0 }
    section == "[lib]" && /^name[ \t]*=/ { gsub(/[" ]/, "", $0); sub(/^name=/, ""); lib = $0 }
    section == "[lib]" && /^path[ \t]*=/ { gsub(/[" ]/, "", $0); sub(/^path=/, ""); path = $0 }
    section == "[dependencies]" && /^[A-Za-z0-9_-]+[ \t]*[.=]/ {
      dep = $0; sub(/[ \t]*[.=].*/, "", dep); deps = deps " " dep
    }
    END {
      if (lib == "") { lib = name; gsub(/-/, "_", lib) }
      if (path == "") path = "src/lib.rs"
      print name, lib, path deps
    }' "$1"
}

declare -A DIR LIB SRC DEPS DONE
for manifest in "$ROOT"/crates/*/Cargo.toml; do
  read -r name lib path deps < <(fields "$manifest")
  DIR[$name]=$(dirname "$manifest"); LIB[$name]=$lib; SRC[$name]=$path; DEPS[$name]=$deps
done

# Rebuild only when a source, a manifest, the flags or the compiler change.
stamp() {
  {
    rustc -V; echo "${FLAGS[*]}"
    find "$ROOT/crates" "$HERE/harness" "$HERE/stubs" -type f \( -name '*.rs' -o -name Cargo.toml \) \
      -print0 | sort -z | xargs -0 cksum
  } | cksum
}
STAMP=$(stamp)
if [ -x "$BIN" ] && [ "$(cat "$OUT/stamp" 2>/dev/null)" = "$STAMP" ]; then
  say "up to date: $BIN"
  echo "$BIN"
  exit 0
fi

rm -rf "$OUT"; mkdir -p "$OUT"
say "$(rustc -V); flags: ${FLAGS[*]}"

# extern_flags <dep...>: the --extern flag of each (already built) dependency.
extern_flags() {
  local dep lib
  for dep in "$@"; do
    lib=${LIB[$dep]:-${dep//-/_}}
    printf -- '--extern %s=%s/lib%s.rlib ' "$lib" "$OUT" "$lib"
  done
}

# build_lib <package>: compiles the package's dependencies, then the package.
build_lib() {
  local name=$1 lib src dep ext=""
  [ -z "${DONE[$name]:-}" ] || return 0
  DONE[$name]=1
  if [ -n "${DIR[$name]:-}" ]; then
    lib=${LIB[$name]}; src="${DIR[$name]}/${SRC[$name]}"
    for dep in ${DEPS[$name]}; do build_lib "$dep"; done
    # shellcheck disable=SC2086
    ext=$(extern_flags ${DEPS[$name]})
  else
    lib=${name//-/_}; src="$HERE/stubs/$lib.rs"
    [ -f "$src" ] || { say "dependency '$name' is neither a workspace crate nor a stub in benchmark/stubs/"; exit 2; }
  fi
  say "lib $lib"
  # shellcheck disable=SC2086
  rustc "${FLAGS[@]}" -L "$OUT" --crate-type rlib --crate-name "$lib" $ext "$src" -o "$OUT/lib$lib.rlib"
}

read -r _ _ _ harness_deps < <(fields "$HERE/harness/Cargo.toml")
for dep in $harness_deps; do build_lib "$dep"; done
# shellcheck disable=SC2086
EXT=$(extern_flags $harness_deps)
say "bin hlf-benchmark"
# shellcheck disable=SC2086
rustc "${FLAGS[@]}" -L "$OUT" --crate-type bin --crate-name hlf_benchmark $EXT \
  "$HERE/harness/src/main.rs" -o "$BIN.tmp"
mv "$BIN.tmp" "$BIN"
echo "$STAMP" > "$OUT/stamp"
echo "$BIN"
