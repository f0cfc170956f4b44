//! Findings, severities, stable text/JSON rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Finding severity. `Error` findings fail the build; `Warn` findings
/// are advisory (used by `--warn` self-check runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails `make lint`.
    Error,
    /// Advisory only.
    Warn,
}

impl Severity {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One diagnostic produced by a pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Pass name (`panic`, `unsafe`, `lock-order`, `consttime`,
    /// `codec`, `println`, `lint`).
    pub pass: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// `file:line: [pass] severity: message` — the grep-friendly line
    /// format the Makefile target prints.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}: {}",
            self.file,
            self.line,
            self.pass,
            self.severity.name(),
            self.message
        )
    }
}

/// A full analyzer run's output.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, pass, message).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of suppressions honored (used `lint:allow`s).
    pub suppressions_used: usize,
    /// Per-pass wall-clock microseconds (populated by the timed entry
    /// points; empty otherwise).
    pub timings_us: BTreeMap<String, u64>,
}

impl Report {
    /// Sorts findings into the stable output order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.pass, &a.message).cmp(&(&b.file, b.line, b.pass, &b.message)));
    }

    /// Count of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Per-pass finding counts, sorted by pass name.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.pass).or_insert(0) += 1;
        }
        counts
    }

    /// Stable JSON rendering (`--json`): sorted findings, per-pass
    /// counts, scan summary. Shape:
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "files_scanned": 63,
    ///   "suppressions_used": 12,
    ///   "counts": {"panic": 0},
    ///   "findings": [
    ///     {"file": "crates/x/src/lib.rs", "line": 10,
    ///      "pass": "panic", "severity": "error", "message": "…"}
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"suppressions_used\": {},", self.suppressions_used);
        let _ = writeln!(out, "  \"findings_total\": {},", self.findings.len());
        out.push_str("  \"counts\": {");
        let counts = self.counts();
        for (i, (pass, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{pass}\": {n}");
        }
        out.push_str("},\n  \"timings_us\": {");
        for (i, (pass, us)) in self.timings_us.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {us}", json_str(pass));
        }
        out.push_str("},\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"pass\": {}, \"severity\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.pass),
                json_str(f.severity.name()),
                json_str(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_sort_are_stable() {
        let mut r = Report::default();
        r.findings.push(Finding {
            file: "b.rs".into(),
            line: 2,
            pass: "panic",
            severity: Severity::Error,
            message: "x".into(),
        });
        r.findings.push(Finding {
            file: "a.rs".into(),
            line: 9,
            pass: "unsafe",
            severity: Severity::Warn,
            message: "y".into(),
        });
        r.sort();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.errors(), 1);
        assert_eq!(
            r.findings[1].render(),
            "b.rs:2: [panic] error: x"
        );
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        r.findings.push(Finding {
            file: "a\"b.rs".into(),
            line: 1,
            pass: "codec",
            severity: Severity::Error,
            message: "tag \\ dup\nline".into(),
        });
        let json = r.to_json();
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"a\\\"b.rs\""));
        assert!(json.contains("tag \\\\ dup\\nline"));
        assert!(json.contains("\"counts\": {\"codec\": 1}"));
        // Two identical reports render identically.
        assert_eq!(json, r.to_json());
    }
}
