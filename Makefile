# Convenience targets for the hlf-bft reproduction.

.PHONY: build test lint figures bench-crypto bench-wire bench-pipeline bench-net bench-all obs-report trace-report audit-report tsan asan clean-results

build:
	cargo build --release

# The Tier-1 command: `default-members` makes the root build and test
# cover every crate, offline (no manifest names a non-path dependency).
test:
	cargo build --release && cargo test -q

# hlf-lint enforces the invariants the compiler cannot see: panic
# discipline, SAFETY-documented unsafe, an acyclic lock graph (now
# interprocedural, following call edges across crates), no blocking IO
# or waits while a guard is live, thread-lifecycle discipline
# (spawns joined or reasoned-detached, no channel wait cycles),
# constant-time secret scopes, Encode/Decode completeness, and the
# println discipline the old grep target approximated. Zero unsuppressed
# findings is the bar; suppressions need a reason
# (`// lint:allow(<pass>): <why>`). See DESIGN.md §7.
# The cache keeps re-runs incremental: unchanged files (by content
# hash) skip extraction and only the cross-file combine re-runs.
lint:
	cargo run --release -p hlf-lint -- --workspace --cache .lint-cache.json
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
	$(BIN)/fig6_signing               > results_fig6.txt
	$(BIN)/fig7_lan_throughput --full > results_fig7_full.txt
	$(BIN)/fig8_geo_latency           > results_fig8.txt
	$(BIN)/fig9_geo_latency           > results_fig9.txt
	$(BIN)/eq1_bound_check            > results_eq1.txt
	$(BIN)/ablations                  > results_ablations.txt

# Crypto fast-path numbers: the single-thread sig_rate example and a
# refresh of BENCH_crypto.json (fast paths vs the in-tree
# double-and-add reference, measured on this machine).
bench-crypto:
	cargo run --release -p bench --example sig_rate
	cargo run --release -p bench --bin bench_crypto_json

# Message-path numbers: allocations per ordered envelope, block
# encode/decode, and Fig.-7-style e2e throughput. Writes a raw
# measurement file; rebuild against the pre-change libraries and pass
# it back with --baseline to refresh BENCH_wire.json (see the binary's
# doc comment for the two-step recipe).
bench-wire:
	cargo run --release -p bench --bin bench_wire -- --out bench_wire_raw.json

# Pipelined-consensus headline: the BENCH_trace geo topology (4
# replicas, f=1, one slowed by 250 ms) driven past the single-slot
# saturation point at window depths k = 1/2/4. Asserts k=4 orders at
# least 2x the k=1 throughput at an equal-or-better p50 and writes
# BENCH_pipeline.json.
bench-pipeline:
	cargo run --release -p bench --bin bench_pipeline

# Real-socket cluster headline: the same saturated ordering workload
# measured in-process (hub transport) and again as 4 hlf_node replica
# OS processes + a TCP frontend on localhost. Asserts the socket
# cluster keeps >= 0.5x the in-process throughput and that the writer
# threads coalesce >1 frame per writev, then writes BENCH_net.json.
bench-net:
	cargo build --release -p bench --bin hlf_node
	cargo run --release -p bench --bin bench_net

# Boot a 4-node cluster with tentative execution, drive ~2 s of
# traffic, print every obs registry and write BENCH_obs.json.
obs-report:
	cargo run --release -p bench --bin obs_report

# Traced 4-replica geo sim (f=1, one slowed replica): merges flight
# dumps into per-transaction timelines, prints the phase-attribution
# table, checks the straggler detector flagged the slow replica,
# measures the HLF_TRACE on/off overhead, and writes BENCH_trace.json
# (overhead delta lands in BENCH_obs.json).
trace-report:
	cargo run --release -p bench --bin trace_report

# Cluster safety auditor validation: every clean sim scenario (geo,
# wheat, k=2..4, slow replica, leader crash) must audit with zero
# violations; a seeded equivocating decide and a seeded dropped
# certified value must both be caught naming the offending cid and
# replica; and the auditor's wall-clock overhead on the bench_pipeline
# workload must stay under 3%. Writes BENCH_audit.json.
audit-report:
	cargo run --release -p bench --bin audit_report

# Refresh every cheap benchmark artifact, then aggregate the headline
# numbers of all BENCH_*.json files into BENCH_summary.json. The
# companion regression gate (`bench_summary --check`, run by check.sh)
# compares deterministic sim throughput probes against
# bench_baselines.json and fails on a >10% regression.
bench-all:
	cargo run --release -p bench --bin bench_crypto_json
	cargo run --release -p bench --bin bench_pipeline
	cargo run --release -p bench --bin obs_report
	cargo run --release -p bench --bin trace_report
	cargo run --release -p bench --bin audit_report
	cargo build --release -p bench --bin hlf_node
	cargo run --release -p bench --bin bench_net
	cargo run --release -p bench --bin bench_summary

clean-results:
	rm -f results_*.txt
