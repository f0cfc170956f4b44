//! Fixture-driven integration tests: one detection case and one
//! suppression case per analyzer pass.
//!
//! The fixtures live under `tests/fixtures/` (a directory the workspace
//! walker skips, so the seeded violations never count against the real
//! scan) and are embedded with `include_str!`, keeping the tests free of
//! filesystem dependencies.

use hlf_lint::{analyze, FileClass, Finding, SourceFile};

fn run(name: &str, text: &str) -> Vec<Finding> {
    let file = SourceFile {
        path: format!("fixtures/{name}"),
        class: FileClass::Lib,
        text: text.into(),
    };
    analyze(&[file]).findings
}

/// (line, message) pairs for one pass, sorted by line.
fn by_pass(findings: &[Finding], pass: &str) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = findings
        .iter()
        .filter(|f| f.pass == pass)
        .map(|f| (f.line, f.message.clone()))
        .collect();
    out.sort();
    out
}

#[test]
fn lock_order_pass_catches_seeded_cycle() {
    let findings = run("lock_order.rs", include_str!("fixtures/lock_order.rs"));
    let hits = by_pass(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(
        hits[0].1.contains("alpha -> beta -> alpha"),
        "cycle names both locks: {}",
        hits[0].1
    );
    assert!(hits[0].1.contains("deadlock"), "{}", hits[0].1);
}

#[test]
fn lock_order_suppression_silences_the_edge_site() {
    let findings = run(
        "lock_order_suppressed.rs",
        include_str!("fixtures/lock_order_suppressed.rs"),
    );
    assert!(
        by_pass(&findings, "lock-order").is_empty(),
        "{findings:?}"
    );
    // The suppression was consumed by the cycle site, not left dangling.
    assert!(by_pass(&findings, "lint").is_empty(), "{findings:?}");
}

#[test]
fn codec_pass_flags_missing_decode_missing_len_and_dup_tags() {
    let findings = run("codec.rs", include_str!("fixtures/codec.rs"));
    let hits = by_pass(&findings, "codec");
    assert_eq!(hits.len(), 3, "{findings:?}");
    assert_eq!(hits[0].0, 16, "Missing has no Decode");
    assert!(hits[0].1.contains("no matching `impl Decode`"), "{}", hits[0].1);
    assert_eq!(hits[1].0, 27, "NoLen does not override encoded_len");
    assert!(hits[1].1.contains("encoded_len"), "{}", hits[1].1);
    assert_eq!(hits[2].0, 48, "second push(7) reuses the tag");
    assert!(hits[2].1.contains("duplicate message tag 7"), "{}", hits[2].1);
    // OneWay's reasoned allow above the impl is honored.
    assert!(by_pass(&findings, "lint").is_empty(), "{findings:?}");
}

#[test]
fn consttime_pass_catches_seeded_secret_branch() {
    let findings = run("consttime.rs", include_str!("fixtures/consttime.rs"));
    let hits = by_pass(&findings, "consttime");
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert_eq!(hits[0].0, 7, "the secret-dependent `if` is on line 7");
    assert!(hits[0].1.contains("secret `secret`"), "{}", hits[0].1);
    assert_eq!(hits[1].0, 10, "the secret-indexed lookup is on line 10");
    assert!(hits[1].1.contains("table lookup"), "{}", hits[1].1);
    // The justified branch in `justified()` stays silent, and both the
    // consttime and panic suppressions are consumed.
    assert!(by_pass(&findings, "lint").is_empty(), "{findings:?}");
    assert!(by_pass(&findings, "panic").is_empty(), "{findings:?}");
}

#[test]
fn metric_name_pass_detects_and_suppresses() {
    let findings = run("metric_name.rs", include_str!("fixtures/metric_name.rs"));
    let hits = by_pass(&findings, "metric-name");
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert_eq!(hits[0].0, 5, "single-segment name on line 5");
    assert!(hits[0].1.contains("crate.subsystem.name"), "{}", hits[0].1);
    assert_eq!(hits[1].0, 7, "CamelCase segments on line 7");
    // The legacy-key suppression is honored and the format!-built name
    // is skipped; no dangling suppressions either way.
    assert!(by_pass(&findings, "lint").is_empty(), "{findings:?}");
}

/// Analyzes several fixture files together (the interprocedural passes
/// need to see cross-file call edges).
fn run_files(files: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile {
            path: (*path).to_string(),
            class: FileClass::Lib,
            text: (*text).to_string(),
        })
        .collect();
    analyze(&sources).findings
}

#[test]
fn blocking_pass_catches_io_under_a_guard() {
    let findings = run("blocking_io.rs", include_str!("fixtures/blocking_io.rs"));
    let hits = by_pass(&findings, "blocking");
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert_eq!(hits[0].0, 21, "write under the direct `.lock()` guard");
    assert!(
        hits[0].1.contains("`write_all()` while `streams` guard is live"),
        "{}",
        hits[0].1
    );
    assert_eq!(hits[1].0, 28, "write under the guard-returning `lock_clean`");
    assert!(
        hits[1].1.contains("`write_all()` while `streams` guard is live"),
        "{}",
        hits[1].1
    );
    // The allow in broadcast_suppressed was honored, not left dangling,
    // and the two drain-then-shutdown regression shapes (the fixed
    // transport/admin teardown paths) stay clean: exactly the two
    // seeded writes above, nothing from the shutdown fns.
    assert!(by_pass(&findings, "lint").is_empty(), "{findings:?}");
}

#[test]
fn blocking_pass_follows_call_chains() {
    let findings = run(
        "blocking_interproc.rs",
        include_str!("fixtures/blocking_interproc.rs"),
    );
    let hits = by_pass(&findings, "blocking");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].0, 14, "the held call site, not the sleep, is flagged");
    assert!(
        hits[0]
            .1
            .contains("call chain settle() -> pause() blocks while `state` guard is live"),
        "{}",
        hits[0].1
    );
    assert!(
        hits[0].1.contains("thread::sleep at fixtures/blocking_interproc.rs:23"),
        "witness names the op and its site: {}",
        hits[0].1
    );
}

#[test]
fn lock_order_pass_crosses_file_boundaries() {
    let findings = run_files(&[
        (
            "crates/router/src/lib.rs",
            include_str!("fixtures/lock_cycle_router.rs"),
        ),
        (
            "crates/registry/src/lib.rs",
            include_str!("fixtures/lock_cycle_registry.rs"),
        ),
    ]);
    let hits: Vec<&Finding> = findings.iter().filter(|f| f.pass == "lock-order").collect();
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].file, "crates/registry/src/lib.rs");
    assert_eq!(hits[0].line, 18, "the second half of the cycle is the edge site");
    assert!(
        hits[0].message.contains("metrics -> routes -> metrics"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("flush_metrics() calls poke_routes()"),
        "the call chain through the other crate is rendered: {}",
        hits[0].message
    );
    // Each half alone is cycle-free: the edge only exists through the
    // cross-file call graph.
    let solo = run(
        "lock_cycle_router.rs",
        include_str!("fixtures/lock_cycle_router.rs"),
    );
    assert!(by_pass(&solo, "lock-order").is_empty(), "{solo:?}");
}

#[test]
fn thread_pass_flags_unjoined_spawns() {
    let findings = run(
        "thread_unjoined.rs",
        include_str!("fixtures/thread_unjoined.rs"),
    );
    let hits = by_pass(&findings, "thread");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].0, 4, "only leak()'s spawn is unhandled");
    assert!(hits[0].1.contains("spawned thread in leak()"), "{}", hits[0].1);
    // joined() is handled by the join, detached() by its allow.
    assert!(by_pass(&findings, "lint").is_empty(), "{findings:?}");
}

#[test]
fn thread_pass_flags_channel_wait_cycles() {
    let findings = run(
        "channel_cycle.rs",
        include_str!("fixtures/channel_cycle.rs"),
    );
    let hits = by_pass(&findings, "thread");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].0, 11, "the first recv of the cycle is the site");
    assert!(hits[0].1.contains("channel wait cycle"), "{}", hits[0].1);
    assert!(
        hits[0].1.contains("@spawn:"),
        "spawn-closure contexts are named by their site: {}",
        hits[0].1
    );
    assert!(by_pass(&findings, "lint").is_empty(), "{findings:?}");
}
