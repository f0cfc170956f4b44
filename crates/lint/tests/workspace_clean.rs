//! The lint is a tier-1 test: `cargo test` fails on a finding or an
//! unused suppression in the workspace, not only `make lint`.

use hlf_lint::analyze;
use hlf_lint::walk::discover_workspace;
use std::path::Path;

#[test]
fn workspace_has_no_findings_and_every_suppression_is_honored() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = discover_workspace(&root).expect("workspace sources are readable");
    assert!(files.iter().any(|f| f.path.ends_with("smr/src/core.rs")), "walked the wrong root");

    let report = analyze(&files);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(rendered.is_empty(), "{}", rendered.join("\n"));

    // Counted without the scanner: a suppression comment it failed to
    // recognise would be neither a finding nor honored. The analyzer's
    // own sources quote the grammar in docs and test strings and carry
    // no suppression, so they are left out of the count.
    let written = files
        .iter()
        .filter(|f| !f.path.contains("crates/lint/"))
        .flat_map(|f| f.text.lines())
        .filter(|line| line.contains("// lint:allow("))
        .count();
    assert_eq!(report.suppressions_used, written);
}
