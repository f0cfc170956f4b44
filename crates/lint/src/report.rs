//! Findings and their stable text rendering.

use std::collections::BTreeMap;

/// One diagnostic produced by a pass. Every finding fails `make lint`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Pass name (`lock-order`, `blocking`, `thread`, `consttime`,
    /// `codec`, `metric-name`, or `lint` for lex/suppression issues).
    pub pass: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// `file:line: [pass] error: message` — the grep-friendly line
    /// format the Makefile target prints.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] error: {}", self.file, self.line, self.pass, self.message)
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
}

impl Report {
    /// Sorts findings into the stable output order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.pass, &a.message).cmp(&(&b.file, b.line, b.pass, &b.message)));
    }

    /// Per-pass finding counts, sorted by pass name.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.pass).or_insert(0) += 1;
        }
        counts
    }
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
            pass: "codec",
            message: "x".into(),
        });
        r.findings.push(Finding {
            file: "a.rs".into(),
            line: 9,
            pass: "thread",
            message: "y".into(),
        });
        r.sort();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[1].render(), "b.rs:2: [codec] error: x");
        assert_eq!(r.counts().get("thread"), Some(&1));
    }
}
