#!/bin/bash
# Sanitizer harness for the threaded transport stack and the crypto
# crate's raw-pointer loads.
#
#   scripts/sanitize.sh asan   # AddressSanitizer (works on plain nightly)
#   scripts/sanitize.sh tsan   # ThreadSanitizer (also needs rust-src)
#
# Runs the threaded test surface under the sanitizer with
# `RUSTFLAGS=-Zsanitizer=... cargo +nightly test`, in a target directory
# of its own: the transport unit tests (TCP links, admin socket, and the
# table of bad HELLOs both planes' shared handshake rejects), the
# cross-backend `tcp_codec` suite, the kill/restart `tcp_cluster`
# integration test, and `hlf-crypto`'s `sha256` tests (the SHA-NI
# compress loads message blocks through raw pointers, at unaligned
# offsets and every length the differential suite draws) next to its
# `ecdsa` and `p256` tests (index-form limb loops, comb tables and the
# group-signing vectors at every group size the differential suite
# draws). The `p256` filter also takes in the AVX-512 IFMA lane walk:
# its gathers from the lane comb table, its digit loads and its result
# stores, through the lane tests, which live under `p256` for that reason
# (on a host without IFMA they compare the scalar walk with itself), and
# the batch verifier's walks over the pinned keys' lane combs, through
# the `ecdsa` and `p256` tests and every `hlf-consensus` test (each
# quorum is verified as one batch). The `poly1305` tests take in the
# frame MAC's AVX-512 IFMA lanes: their 128-byte unaligned loads from
# every message length 0-300 and random lengths up to 70 KB at unaligned
# starts, the path forced on and off.
#
# Both modes are *gated*, not required: when the toolchain pieces are
# missing the script prints a SKIP notice and exits 0, so the verify
# pipeline stays green on stable-only machines.
#
# TSan specifically needs an instrumented std (`rustup component add
# rust-src --toolchain nightly`, then -Zbuild-std): against the
# prebuilt, uninstrumented std it reports false positives on every
# Mutex/Condvar because the futex calls inside std are invisible to the
# runtime. Without rust-src the mode skips rather than crying wolf.
set -eo pipefail
MODE=${1:-asan}
R="$(cd "$(dirname "$0")/.." && pwd)"
case "$MODE" in
  asan|tsan) ;;
  *) echo "usage: sanitize.sh [asan|tsan]"; exit 2 ;;
esac

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
  echo "sanitize[$MODE]: SKIP — no nightly toolchain (sanitizers are -Z flags)"
  exit 0
fi

BUILD_STD=""
if [ "$MODE" = tsan ]; then
  SYSROOT=$(rustc +nightly --print sysroot)
  if [ ! -d "$SYSROOT/lib/rustlib/src/rust/library" ]; then
    echo "sanitize[tsan]: SKIP — rust-src missing; TSan needs an instrumented std" \
         "(rustup component add rust-src --toolchain nightly)"
    exit 0
  fi
  SAN="-Zsanitizer=thread"
  BUILD_STD="-Zbuild-std"
  export TSAN_OPTIONS="suppressions=$R/scripts/tsan.supp history_size=7"
else
  SAN="-Zsanitizer=address"
  # Detached acceptor/reader/writer threads still hold their stacks and
  # TLS at process exit; leak accounting would flag those
  # still-reachable blocks, not real bugs. ASan's memory-error checking
  # (the part we want) is unaffected.
  export ASAN_OPTIONS="detect_leaks=0"
fi

export RUSTFLAGS="$SAN -Cunsafe-allow-abi-mismatch=sanitizer"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$R/target}/sanitize-$MODE"
# An explicit --target keeps the flags off host artifacts and is what
# -Zbuild-std requires.
HOST=$(cargo +nightly -vV | sed -n 's/^host: //p')
cd "$R"

run_test() { # cargo package + test-target selection
  echo "== sanitize[$MODE]: $* =="
  cargo +nightly test $BUILD_STD --target "$HOST" "$@" -- -q 2>&1 | tail -2 | sed -n "/./s/^/[$MODE] /p"
}

if [ "$MODE" = asan ]; then
  run_test -p hlf-crypto --lib sha256
  run_test -p hlf-crypto --lib ecdsa
  run_test -p hlf-crypto --lib p256
  run_test -p hlf-crypto --lib poly1305
  run_test -p hlf-consensus --tests
fi
run_test -p hlf-transport --lib
run_test -p hlf-smr --test tcp_codec
run_test -p hlf-bft --test tcp_cluster

echo "sanitize[$MODE]: OK"
