# Convenience targets for the hlf-bft reproduction.

.PHONY: build test lint figures bench bench-net tsan asan clean-results

build:
	cargo build --release

# The Tier-1 command: `default-members` makes the root build and test
# cover every crate, offline (no manifest names a non-path dependency).
test:
	cargo build --release && cargo test -q

# Two enforcers, one bar (DESIGN.md §7 has the table). hlf-lint keeps
# what no toolchain lint states: an acyclic lock graph (interprocedural,
# following call edges across crates), no blocking IO or waits while a
# guard is live, thread-lifecycle discipline (spawns joined or
# reasoned-detached, no channel wait cycles), constant-time secret
# scopes, Encode/Decode completeness, metric naming; suppressions are
# `// lint:allow(<pass>): <why>`. Clippy has the rest: the `#![warn]`
# block at the top of each library crate turns on panic discipline,
# SAFETY-documented unsafe and no stdout, and an exception is an
# `#[expect(clippy::.., reason = "..")]`. The same clippy run reports
# rustc's `unreachable_pub`, which the root manifest's
# `[workspace.lints.rust]` table turns on for every member: `pub` is for
# what another package names, the rest is `pub(crate)`, where
# `dead_code` sees it. Zero findings, no unused or reasonless
# suppression of either kind.
lint:
	cargo run --release -p hlf-lint -- --workspace
	cargo clippy --workspace --all-targets -- -D warnings

# Sanitizer sweeps over the threaded transport stack (transport unit
# tests, tcp_codec, tcp_cluster). Both are nightly-gated and skip with
# a notice when toolchain pieces are missing; tsan additionally needs
# rust-src for an instrumented std (see scripts/sanitize.sh).
asan:
	scripts/sanitize.sh asan

tsan:
	scripts/sanitize.sh tsan

# Regenerate every figure/table of the paper's evaluation. Build first,
# then run the binaries themselves: a results file holds exactly one
# binary's stdout (no cargo progress lines), so regenerating a
# deterministic figure diffs clean.
BIN := $(or $(CARGO_TARGET_DIR),target)/release
figures:
	cargo build --release -p bench
	$(BIN)/figures fig6        > results_fig6.txt
	$(BIN)/figures fig7 --full > results_fig7_full.txt
	$(BIN)/figures fig8        > results_fig8.txt
	$(BIN)/figures fig9        > results_fig9.txt
	$(BIN)/figures eq1         > results_eq1.txt
	$(BIN)/figures ablations   > results_ablations.txt

# The repo's one performance measurement (see benchmark/README.md and
# BENCHMARK.json): four workloads, four gated end-to-end metrics; add
# `--trace 1` for the per-layer rows. Baselines are the PR driver's
# parent/change pairs over it, not a committed file.
bench:
	bash benchmark/run.sh

# The same saturated ordering workload in-process (hub transport) and
# as 4 hlf_node replica OS processes + a TCP frontend on localhost,
# printed side by side. Kept until benchmark/ has a workload of OS
# processes.
bench-net:
	cargo build --release -p bench
	$(BIN)/bench_net

clean-results:
	rm -f results_*.txt
