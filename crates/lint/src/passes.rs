//! The per-file (local) analysis passes, plus the [`analyze`] facade.
//!
//! | pass       | invariant enforced                                        |
//! |------------|-----------------------------------------------------------|
//! | `consttime`| no secret-dependent control flow in `lint:secret-scope`s  |
//! | `codec`    | unique tags per `Encode` impl (completeness cross-file)   |
//! | `metric-name` | metric names follow the `crate.subsystem.name` scheme  |
//!
//! The interprocedural passes — `lock-order`, `blocking-while-locked`
//! (`blocking`), thread-lifecycle (`thread`), and codec completeness —
//! need the whole workspace at once and live in [`crate::conc`], fed by
//! per-file facts from [`crate::facts`].
//!
//! Every pass honors `// lint:allow(<pass>): <reason>` suppressions
//! (same line, line above, or above the enclosing `fn` for whole-item
//! scope); the meta pass reports unused or malformed suppressions.

use crate::facts::FileFacts;
use crate::lexer::{int_value, Tok, TokKind};
use crate::report::{Finding, Report};
use crate::scan::{is_non_index_keyword, Structure};
use std::collections::{BTreeMap, BTreeSet};

/// What kind of file is being analyzed. Every pass states an invariant
/// of library code, so library sources are the only kind there is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// A library crate source file: all passes.
    Lib,
}

/// One file handed to the analyzer.
pub struct SourceFile {
    /// Repo-relative path used in findings.
    pub path: String,
    /// Class (library source, the only kind).
    pub class: FileClass,
    /// Full source text.
    pub text: String,
}

pub(crate) struct FileCtx<'a> {
    pub(crate) path: &'a str,
    pub(crate) src: &'a str,
    pub(crate) toks: &'a [Tok],
    pub(crate) st: &'a Structure,
}

impl FileCtx<'_> {
    pub(crate) fn ctext(&self, ci: usize) -> &str {
        self.st
            .code
            .get(ci)
            .and_then(|&ti| self.toks.get(ti))
            .map_or("", |t| t.text(self.src))
    }

    pub(crate) fn ckind(&self, ci: usize) -> Option<TokKind> {
        self.st.code.get(ci).and_then(|&ti| self.toks.get(ti)).map(|t| t.kind)
    }

    pub(crate) fn cline(&self, ci: usize) -> u32 {
        self.st
            .code
            .get(ci)
            .and_then(|&ti| self.toks.get(ti))
            .map_or(0, |t| t.line)
    }

    pub(crate) fn mate(&self, ci: usize) -> Option<usize> {
        self.st.mate.get(ci).copied().filter(|&m| m != usize::MAX)
    }

    pub(crate) fn emit(&self, out: &mut Vec<Finding>, pass: &'static str, line: u32, message: String) {
        if self.st.suppressed(pass, line) {
            return;
        }
        out.push(Finding {
            file: self.path.to_string(),
            line,
            pass,
            message,
        });
    }
}

/// Analyzes a set of files and returns the combined report: extracts
/// per-file facts (`crate::facts::extract`), then combines them
/// workspace-wide (`crate::conc::combine`).
pub fn analyze(files: &[SourceFile]) -> Report {
    let facts: Vec<FileFacts> = files.iter().map(crate::facts::extract).collect();
    crate::conc::combine(&facts)
}

// ---------------------------------------------------------------------
// metric-naming
// ---------------------------------------------------------------------

const METRIC_CTORS: &[&str] = &["counter", "gauge", "histogram"];

/// Enforces the `crate.subsystem.name` scheme on metric registrations
/// (and literal-name lookups, which must reference registered names):
/// every string literal passed to `.counter("…")` / `.gauge("…")` /
/// `.histogram("…")` needs at least three non-empty dot-separated
/// segments of `[a-z0-9_]`, each starting with a lowercase letter.
/// Dynamically built names (`&format!`-per-peer gauges, variables) are
/// skipped — their static scheme is checked where the literal lives.
pub(crate) fn pass_metric_names(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for ci in 0..ctx.st.code.len() {
        if ctx.ckind(ci) != Some(TokKind::Ident) || !METRIC_CTORS.contains(&ctx.ctext(ci)) {
            continue;
        }
        if ctx.ctext(ci.wrapping_sub(1)) != "." || ctx.ctext(ci + 1) != "(" {
            continue;
        }
        let line = ctx.cline(ci);
        if ctx.st.in_test(line) {
            continue;
        }
        let name = match ctx.ckind(ci + 2) {
            Some(TokKind::Str) => {
                let text = ctx.ctext(ci + 2);
                text.trim_start_matches('"').trim_end_matches('"')
            }
            Some(TokKind::RawStr) => {
                let text = ctx.ctext(ci + 2);
                text.trim_start_matches('r')
                    .trim_matches('#')
                    .trim_matches('"')
            }
            _ => continue,
        };
        if !metric_name_ok(name) {
            ctx.emit(
                out,
                "metric-name",
                line,
                format!(
                    "metric name \"{name}\" violates the `crate.subsystem.name` scheme — \
                     use >= 3 dot-separated segments of [a-z0-9_], each starting with a letter"
                ),
            );
        }
    }
}

/// `crate.subsystem.name[...]`: at least three dot-segments, each a
/// lowercase identifier (letters, digits, underscores; letter first).
fn metric_name_ok(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 3
        && segments.iter().all(|seg| {
            seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

// ---------------------------------------------------------------------
// constant-time
// ---------------------------------------------------------------------

pub(crate) fn pass_consttime(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for scope in &ctx.st.secret_scopes {
        let secrets: BTreeSet<&str> = scope.secrets.iter().map(String::as_str).collect();
        let (lo, hi) = scope.range;
        for ci in 0..ctx.st.code.len() {
            let line = ctx.cline(ci);
            if line < lo || line > hi || ctx.st.in_test(line) {
                continue;
            }
            let text = ctx.ctext(ci);
            match ctx.ckind(ci) {
                Some(TokKind::Ident) => match text {
                    "if" | "while" => {
                        if let Some(name) = span_mentions(ctx, ci + 1, SpanEnd::Brace, &secrets) {
                            ctx.emit(
                                out,
                                "consttime",
                                line,
                                format!("`{text}` condition depends on secret `{name}` — branch timing leaks"),
                            );
                        }
                    }
                    "match" => {
                        if let Some(name) = span_mentions(ctx, ci + 1, SpanEnd::Brace, &secrets) {
                            ctx.emit(
                                out,
                                "consttime",
                                line,
                                format!("`match` scrutinee depends on secret `{name}` — branch timing leaks"),
                            );
                        }
                    }
                    "return" => {
                        if let Some(name) = span_mentions(ctx, ci + 1, SpanEnd::Semi, &secrets) {
                            ctx.emit(
                                out,
                                "consttime",
                                line,
                                format!("early `return` of secret-derived `{name}` — exit timing leaks"),
                            );
                        }
                    }
                    // A SIMD gather (`_mm512_i64gather_epi64`, ..) is a
                    // table lookup per lane, with the offsets as indices.
                    gather if gather.starts_with("_mm") && gather.contains("gather") => {
                        if let Some(name) = span_mentions(ctx, ci + 1, SpanEnd::Semi, &secrets) {
                            ctx.emit(
                                out,
                                "consttime",
                                line,
                                format!(
                                    "`{gather}` at offsets from secret `{name}` — cache-line \
                                     timing leaks the index"
                                ),
                            );
                        }
                    }
                    _ => {}
                },
                Some(TokKind::Punct) if text == "%" || text == "/" => {
                    let prev = ctx.ctext(ci.wrapping_sub(1));
                    let next = ctx.ctext(ci + 1);
                    let hit = [prev, next].into_iter().find(|t| secrets.contains(t));
                    if let Some(name) = hit {
                        ctx.emit(
                            out,
                            "consttime",
                            line,
                            format!(
                                "`{text}` on secret `{name}` — hardware divide is variable-time; \
                                 use Montgomery/branch-free reduction"
                            ),
                        );
                    }
                }
                Some(TokKind::Punct) if text == "[" => {
                    let prev_is_table = ci
                        .checked_sub(1)
                        .is_some_and(|p| ctx.ckind(p) == Some(TokKind::Ident)
                            && !is_non_index_keyword(ctx.ctext(p))
                            || matches!(ctx.ctext(p), ")" | "]"));
                    if prev_is_table {
                        if let Some(close) = ctx.mate(ci) {
                            let inner = (ci + 1..close)
                                .map(|k| ctx.ctext(k))
                                .find(|t| secrets.contains(t));
                            if let Some(name) = inner {
                                ctx.emit(
                                    out,
                                    "consttime",
                                    line,
                                    format!(
                                        "table lookup indexed by secret `{name}` — cache-line \
                                         timing leaks the index"
                                    ),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

enum SpanEnd {
    /// Up to the first `{` at relative depth 0.
    Brace,
    /// Up to the first `;` at relative depth 0.
    Semi,
}

/// Scans forward from `from` to the span end; returns the first secret
/// identifier mentioned, if any.
fn span_mentions<'a>(
    ctx: &FileCtx<'a>,
    from: usize,
    end: SpanEnd,
    secrets: &BTreeSet<&'a str>,
) -> Option<String> {
    let mut depth = 0i32;
    let mut found: Option<String> = None;
    for ci in from..ctx.st.code.len() {
        let text = ctx.ctext(ci);
        if ctx.ckind(ci) == Some(TokKind::Punct) {
            match text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    if matches!(end, SpanEnd::Brace) {
                        return found;
                    }
                    depth += 1;
                }
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return found;
                    }
                }
                ";" if depth == 0 => {
                    if matches!(end, SpanEnd::Semi) {
                        return found;
                    }
                }
                _ => {}
            }
        } else if ctx.ckind(ci) == Some(TokKind::Ident) && secrets.contains(text) && found.is_none()
        {
            found = Some(text.to_string());
        }
    }
    found
}

// ---------------------------------------------------------------------
// codec-completeness
// ---------------------------------------------------------------------
/// One `impl Encode for T` record, carried in [`FileFacts`] for the
/// cross-file completeness check in [`crate::conc`].
#[derive(Clone, Debug)]
pub(crate) struct EncodeImpl {
    /// The impl's self type, as written.
    pub ty: String,
    /// 1-based line of the `impl`.
    pub line: u32,
    /// The impl overrides `encoded_len`.
    pub has_len: bool,
}

/// Collects `Encode`/`Decode` impls from one file, emitting the local
/// duplicate-tag findings along the way. Completeness (every `Encode`
/// paired with a `Decode` + `encoded_len`) is checked cross-file in
/// [`crate::conc::combine`].
pub(crate) fn collect_codec_impls(
    ctx: &FileCtx<'_>,
    out: &mut Vec<Finding>,
) -> (Vec<EncodeImpl>, Vec<String>) {
    let mut encodes: Vec<EncodeImpl> = Vec::new();
    let mut decodes: Vec<String> = Vec::new();
    for imp in &ctx.st.impls {
        if ctx.st.in_test(imp.line) {
            continue;
        }
        let Some(trait_name) = imp.trait_name.as_deref() else {
            continue;
        };
        if imp.self_ty.contains('$') {
            continue; // macro_rules template — instantiations carry both impls
        }
        match trait_name {
            "Encode" => {
                let mut has_len = false;
                let mut tags: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
                let mut ci = imp.open_ci + 1;
                while ci < imp.close_ci {
                    let text = ctx.ctext(ci);
                    if text == "fn" && ctx.ctext(ci + 1) == "encoded_len" {
                        has_len = true;
                    }
                    // `.push(<int literal>)` — enum tag writes.
                    if text == "push"
                        && ctx.ctext(ci.wrapping_sub(1)) == "."
                        && ctx.ctext(ci + 1) == "("
                        && ctx.ckind(ci + 2) == Some(TokKind::Int)
                        && ctx.ctext(ci + 3) == ")"
                    {
                        if let Some(v) = int_value(ctx.ctext(ci + 2)) {
                            tags.entry(v).or_default().push(ctx.cline(ci + 2));
                        }
                    }
                    ci += 1;
                }
                for (tag, lines) in &tags {
                    if let [_, dups @ ..] = lines.as_slice() {
                        for &dup in dups {
                            ctx.emit(
                                out,
                                "codec",
                                dup,
                                format!(
                                    "duplicate message tag {tag} in `impl Encode for {}` — \
                                     two variants would decode identically",
                                    imp.self_ty
                                ),
                            );
                        }
                    }
                }
                encodes.push(EncodeImpl {
                    ty: imp.self_ty.clone(),
                    line: imp.line,
                    has_len,
                });
            }
            "Decode" => {
                decodes.push(imp.self_ty.clone());
            }
            _ => {}
        }
    }
    (encodes, decodes)
}
