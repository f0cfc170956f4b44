//! `hlf-lint` — a from-scratch static analyzer for this workspace.
//!
//! The ordering service's correctness arguments rest on invariants
//! neither the compiler nor clippy can see: the lock graph must stay
//! acyclic across crates, nothing may block while a guard is live,
//! every spawned thread must be joined or detached for a stated reason,
//! RFC 6979 signing must stay secret-independent in control flow, wire
//! messages must decode exactly what they encode, and metric names must
//! follow one scheme. This crate enforces those on every `make lint`
//! run with a lexer-backed scan that cannot be fooled by strings or
//! comments. What a toolchain lint already states — no panic paths, no
//! undocumented `unsafe`, no stdout in library code — is clippy's,
//! turned on by the `#![warn(clippy::..)]` block at the top of each
//! library crate (DESIGN.md §7 has the table).
//!
//! Zero dependencies by design: the analyzer builds with nothing but
//! `rustc` and `std`, so the offline verify harness can always run it.
//!
//! # Passes
//!
//! Analysis is two-stage: [`facts::extract`] produces per-file facts
//! (local findings plus the call/lock/blocking facts the
//! interprocedural passes need), and [`conc::combine`] joins them
//! workspace-wide, building the call graph and running the
//! `lock-order`, `blocking`, `thread`, and codec-completeness passes.
//! See [`passes`] for the local passes and the suppression grammar:
//! `// lint:allow(<pass>): <reason>` on the finding's line, the line
//! above, or above the enclosing `fn` (whole-function scope).
//!
//! # Example
//!
//! ```
//! use hlf_lint::{analyze, FileClass, SourceFile};
//!
//! let file = SourceFile {
//!     path: "demo.rs".into(),
//!     class: FileClass::Lib,
//!     text: "fn f(r: &Registry) { let _ = r.counter(\"decided\"); }".into(),
//! };
//! let report = analyze(&[file]);
//! assert_eq!(report.findings.len(), 1);
//! assert!(report.findings[0].render().contains("[metric-name]"));
//! ```

// Panic, `unsafe` and stdout discipline of this library target (DESIGN.md
// §7); an exception is an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks,
    clippy::print_stdout,
    clippy::allow_attributes_without_reason
)]

pub mod conc;
pub mod facts;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod scan;
pub mod walk;

pub use passes::{analyze, FileClass, SourceFile};
pub use report::{Finding, Report};

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(text: &str) -> SourceFile {
        SourceFile {
            path: "test.rs".into(),
            class: FileClass::Lib,
            text: text.into(),
        }
    }

    fn run(text: &str) -> Vec<String> {
        analyze(&[lib_file(text)])
            .findings
            .iter()
            .map(|f| f.render())
            .collect()
    }

    #[test]
    fn clean_file_has_no_findings() {
        let findings = run("fn add(a: u32, b: u32) -> u32 { a.wrapping_add(b) }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn strings_and_comments_cannot_fool_the_passes() {
        let src = r####"
// a comment mentioning r.counter("decided") and thread::spawn(|| {})
fn f() -> &'static str {
    let s = "r.gauge(\"Bad\") guard.lock() rx.recv()";
    let r = r#"r.histogram("x") std::thread::spawn(worker)"#;
    let _ = (s, r);
    "done"
}
"####;
        let findings = run(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppression_must_be_used_and_reasoned() {
        // A used suppression silences the finding.
        let used = run("fn f(r: &Registry) {\n    r.counter(\"decided\"); // lint:allow(metric-name): demo reason\n}\n");
        assert!(used.is_empty(), "{used:?}");
        // An unused one is itself a finding.
        let unused = run("// lint:allow(metric-name): nothing here\nfn f() {}\n");
        assert_eq!(unused.len(), 1, "{unused:?}");
        assert!(unused[0].contains("unused suppression"));
        // A reasonless one is malformed.
        let bare = run("fn f(r: &Registry) {\n    r.counter(\"decided\"); // lint:allow(metric-name)\n}\n");
        assert!(bare.iter().any(|f| f.contains("[lint]")), "{bare:?}");
    }

    #[test]
    fn metric_names_must_be_dotted_lowercase() {
        let bad = run("fn f(r: &Registry) { let _ = r.counter(\"decided\"); }\n");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("[metric-name]"), "{}", bad[0]);
        let camel = run("fn f(r: &Registry) { let _ = r.gauge(\"Smr.Node.Queue\"); }\n");
        assert_eq!(camel.len(), 1, "{camel:?}");
        let good =
            run("fn f(r: &Registry) { let _ = r.histogram(\"core.signing.sign_us\"); }\n");
        assert!(good.is_empty(), "{good:?}");
        // Dynamic names and non-metric idents are not this pass's business.
        let dynamic = run("fn f(r: &Registry, n: &str) { let _ = r.gauge(n); }\n");
        assert!(dynamic.is_empty(), "{dynamic:?}");
        let unrelated = run("fn f(g: &Grid) { let _ = g.counter; }\n");
        assert!(unrelated.is_empty(), "{unrelated:?}");
    }
}
