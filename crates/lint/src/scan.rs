//! Structural scanning over the token stream: bracket matching, item
//! discovery (`fn`, `impl`, `mod`), `#[cfg(test)]` regions, and the
//! comment grammars (`lint:allow`, `lint:secret-scope`).
//!
//! This is deliberately not a parser. The passes need four things a
//! token-level scan answers reliably: where functions start and end,
//! which lines are test-only, which `impl Trait for Type` blocks exist,
//! and which suppression/marker comments govern which lines.

use crate::lexer::{Tok, TokKind};
use std::cell::Cell;

/// A discovered `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Code-token index of the `fn` keyword.
    pub kw_ci: usize,
    /// Code-token index of the body `{`, if the fn has a body.
    pub open_ci: Option<usize>,
    /// Code-token index of the matching `}`.
    pub close_ci: Option<usize>,
    /// First line of the item (its attributes included).
    pub start_line: u32,
    /// Last line of the body.
    pub end_line: u32,
    /// Covered by `#[test]`/`#[cfg(test)]` directly or via an enclosing
    /// test module.
    pub is_test: bool,
}

/// A discovered `impl` block (`impl Trait for Type` or inherent).
#[derive(Clone, Debug)]
pub struct ImplItem {
    /// Trait path's final segment (`Encode` in `impl wire::Encode for
    /// T`), `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Normalized self-type text (`Bytes`, `Vec<T>`, `[u8]`, `$ty`).
    pub self_ty: String,
    /// Code-token index of the body `{`.
    pub open_ci: usize,
    /// Code-token index of the matching `}`.
    pub close_ci: usize,
    /// Line of the `impl` keyword.
    pub line: u32,
}

/// One `// lint:allow(<pass>): <reason>` suppression comment.
#[derive(Debug)]
pub struct Suppression {
    /// The pass it silences.
    pub pass: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Inclusive line range it governs.
    pub scope: (u32, u32),
    /// Set when a finding was silenced by this suppression.
    pub used: Cell<bool>,
}

/// One `// lint:secret-scope(a, b, …)` constant-time region marker.
#[derive(Clone, Debug)]
pub struct SecretScope {
    /// Identifiers treated as secret inside the region.
    pub secrets: Vec<String>,
    /// Inclusive line range: marker line to `lint:end-secret-scope` or
    /// the end of the enclosing function.
    pub range: (u32, u32),
    /// Marker line (for diagnostics).
    pub line: u32,
}

/// Scanned structure of one source file.
pub struct Structure {
    /// Indices into the full token vec for non-comment tokens.
    pub code: Vec<usize>,
    /// For each code token: the code index of the matching close/open
    /// delimiter, `usize::MAX` when not a delimiter or unbalanced.
    pub mate: Vec<usize>,
    /// Discovered functions, in source order.
    pub fns: Vec<FnItem>,
    /// Discovered impl blocks.
    pub impls: Vec<ImplItem>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]`
    /// items (whole test modules included).
    pub test_ranges: Vec<(u32, u32)>,
    /// Suppression comments.
    pub allows: Vec<Suppression>,
    /// Constant-time region markers.
    pub secret_scopes: Vec<SecretScope>,
    /// Malformed `lint:` comments (reported by the meta pass).
    pub malformed: Vec<(u32, String)>,
}

impl Structure {
    /// True when `line` falls inside a test-only region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Finds a live suppression for `pass` covering `line`, marks it
    /// used, and returns whether one existed.
    pub fn suppressed(&self, pass: &str, line: u32) -> bool {
        for s in &self.allows {
            if s.pass == pass && s.scope.0 <= line && line <= s.scope.1 {
                s.used.set(true);
                return true;
            }
        }
        false
    }

    /// The innermost function whose body contains `line`.
    pub fn enclosing_fn(&self, line: u32) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }
}

/// Rust keywords that can precede `[` without it being an index
/// expression (`let [a, b] = …`, `return [0; 4]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "if", "else", "match", "while", "loop", "for", "move", "ref", "mut",
    "as", "break", "continue", "where", "unsafe", "box", "yield", "dyn", "impl", "const", "pub",
    "crate", "super", "static", "type", "fn", "struct", "enum", "union", "trait", "use", "mod",
];

/// True when `name` is a keyword from [`NON_INDEX_KEYWORDS`].
pub fn is_non_index_keyword(name: &str) -> bool {
    NON_INDEX_KEYWORDS.contains(&name)
}

/// Scans `toks` (as produced by [`crate::lexer::lex`]) into a
/// [`Structure`].
pub fn scan(src: &str, toks: &[Tok]) -> Structure {
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let mate = match_delims(src, toks, &code);
    let mut st = Structure {
        code,
        mate,
        fns: Vec::new(),
        impls: Vec::new(),
        test_ranges: Vec::new(),
        allows: Vec::new(),
        secret_scopes: Vec::new(),
        malformed: Vec::new(),
    };
    scan_items(src, toks, &mut st);
    scan_comments(src, toks, &mut st);
    st
}

/// Pairs up `()`, `[]`, `{}` across code tokens.
#[expect(clippy::indexing_slicing, reason = "`code[]` entries are token indices from the scanner; stack entries are prior `ci` values")]
fn match_delims(src: &str, toks: &[Tok], code: &[usize]) -> Vec<usize> {
    let mut mate = vec![usize::MAX; code.len()];
    let mut stack: Vec<(usize, u8)> = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text(src).as_bytes().first() {
            Some(open @ (b'(' | b'[' | b'{')) => stack.push((ci, *open)),
            Some(close @ (b')' | b']' | b'}')) => {
                let want = match close {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                // Pop unmatched openers (tolerates malformed input).
                while let Some(&(oci, ob)) = stack.last() {
                    stack.pop();
                    if ob == want {
                        if let (Some(m), Some(o)) = (mate.get_mut(oci), Some(ci)) {
                            *m = o;
                        }
                        if let Some(m) = mate.get_mut(ci) {
                            *m = oci;
                        }
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    mate
}

/// Text of code token at code-index `ci`, or `""` past the end.
fn ctext<'a>(src: &'a str, toks: &[Tok], st_code: &[usize], ci: usize) -> &'a str {
    st_code
        .get(ci)
        .and_then(|&ti| toks.get(ti))
        .map_or("", |t| t.text(src))
}

fn cline(toks: &[Tok], st_code: &[usize], ci: usize) -> u32 {
    st_code
        .get(ci)
        .and_then(|&ti| toks.get(ti))
        .map_or(0, |t| t.line)
}

fn cend_line(toks: &[Tok], st_code: &[usize], ci: usize) -> u32 {
    st_code
        .get(ci)
        .and_then(|&ti| toks.get(ti))
        .map_or(0, |t| t.end_line)
}

/// Walks code tokens discovering items, attributes, and test regions.
fn scan_items(src: &str, toks: &[Tok], st: &mut Structure) {
    let code = st.code.clone();
    let n = code.len();
    let mut i = 0usize;
    // Attribute state for the *next* item at any nesting depth; reset
    // once consumed. Attributes only decorate the item that follows.
    let mut pending_test = false;
    let mut pending_start_line: Option<u32> = None;
    // Stack of (close_ci, is_test) for enclosing mod/fn bodies opened
    // with a test marker.
    let mut test_depth: Vec<usize> = Vec::new();
    while i < n {
        let text = ctext(src, toks, &code, i);
        // Leaving a test region?
        while let Some(&close) = test_depth.last() {
            if i > close {
                test_depth.pop();
            } else {
                break;
            }
        }
        let in_test_region = !test_depth.is_empty();
        match text {
            "#" => {
                // `#[attr…]` or `#![attr…]`.
                let mut j = i + 1;
                if ctext(src, toks, &code, j) == "!" {
                    j += 1;
                }
                if ctext(src, toks, &code, j) == "[" {
                    let close = st.mate.get(j).copied().unwrap_or(usize::MAX);
                    if close != usize::MAX {
                        let attr = attr_text(src, toks, &code, j + 1, close);
                        if attr == "test"
                            || attr.starts_with("cfg(test")
                            || attr.contains("cfg(all(test")
                            || attr.contains("cfg(any(test")
                        {
                            pending_test = true;
                        }
                        if pending_start_line.is_none() {
                            pending_start_line = Some(cline(toks, &code, i));
                        }
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "fn" => {
                let name = ctext(src, toks, &code, i + 1).to_string();
                // Find the body `{` or the declaration-ending `;`,
                // skipping balanced parens/brackets in the signature.
                let mut j = i + 1;
                let mut open = None;
                while j < n {
                    let t = ctext(src, toks, &code, j);
                    match t {
                        "(" | "[" => {
                            let m = st.mate.get(j).copied().unwrap_or(usize::MAX);
                            if m == usize::MAX {
                                break;
                            }
                            j = m + 1;
                        }
                        "{" => {
                            open = Some(j);
                            break;
                        }
                        ";" => break,
                        _ => j += 1,
                    }
                }
                let close = open.and_then(|o| st.mate.get(o).copied()).filter(|&m| m != usize::MAX);
                let start_line = pending_start_line.take().unwrap_or_else(|| cline(toks, &code, i));
                let end_line = match close {
                    Some(c) => cend_line(toks, &code, c),
                    None => cline(toks, &code, j),
                };
                let is_test = pending_test || in_test_region;
                if is_test && !in_test_region {
                    st.test_ranges.push((start_line, end_line));
                }
                if is_test {
                    if let Some(c) = close {
                        test_depth.push(c);
                    }
                }
                st.fns.push(FnItem {
                    name,
                    kw_ci: i,
                    open_ci: open,
                    close_ci: close,
                    start_line,
                    end_line,
                    is_test,
                });
                pending_test = false;
                // Descend into the body (nested fns/items are scanned).
                i = match open {
                    Some(o) => o + 1,
                    None => j + 1,
                };
            }
            "mod" => {
                let mut j = i + 1;
                while j < n && !matches!(ctext(src, toks, &code, j), "{" | ";") {
                    j += 1;
                }
                let start_line = pending_start_line.take().unwrap_or_else(|| cline(toks, &code, i));
                if ctext(src, toks, &code, j) == "{" {
                    let close = st.mate.get(j).copied().unwrap_or(usize::MAX);
                    if (pending_test || in_test_region) && close != usize::MAX {
                        if !in_test_region {
                            st.test_ranges
                                .push((start_line, cend_line(toks, &code, close)));
                        }
                        test_depth.push(close);
                    }
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            "impl" => {
                let item = scan_impl(src, toks, &code, &st.mate, i);
                let start_line = pending_start_line.take().unwrap_or_else(|| cline(toks, &code, i));
                match item {
                    Some(impl_item) => {
                        if pending_test {
                            if !in_test_region {
                                st.test_ranges
                                    .push((start_line, cend_line(toks, &code, impl_item.close_ci)));
                            }
                            test_depth.push(impl_item.close_ci);
                        }
                        let next = impl_item.open_ci + 1;
                        st.impls.push(impl_item);
                        i = next;
                    }
                    None => i += 1,
                }
                pending_test = false;
            }
            _ => {
                // Any other token consumes pending attribute state only
                // when it starts a real item; cheap approximation: item
                // keywords reset it, everything else leaves it for the
                // next item (attributes are always adjacent in
                // practice).
                if matches!(
                    text,
                    "struct" | "enum" | "trait" | "const" | "static" | "use" | "type" | "macro_rules"
                ) {
                    // Test-gated non-fn items: cover their extent too.
                    if pending_test {
                        let mut j = i + 1;
                        while j < n && !matches!(ctext(src, toks, &code, j), "{" | ";") {
                            j += 1;
                        }
                        let end = if ctext(src, toks, &code, j) == "{" {
                            let close = st.mate.get(j).copied().unwrap_or(j);
                            cend_line(toks, &code, close)
                        } else {
                            cline(toks, &code, j)
                        };
                        let start = pending_start_line.take().unwrap_or_else(|| cline(toks, &code, i));
                        if !in_test_region {
                            st.test_ranges.push((start, end));
                        }
                    }
                    pending_test = false;
                    pending_start_line = None;
                }
                i += 1;
            }
        }
    }
}

/// Renders an attribute's tokens (`cfg ( test )` → `cfg(test)`).
fn attr_text(src: &str, toks: &[Tok], code: &[usize], from: usize, to: usize) -> String {
    let mut out = String::new();
    for ci in from..to {
        out.push_str(ctext(src, toks, code, ci));
    }
    out
}

/// Parses an `impl` header starting at code index `i` (the `impl`
/// keyword). Returns `None` for headers with no body (`impl Trait for
/// T;` does not exist, so this means malformed input).
fn scan_impl(
    src: &str,
    toks: &[Tok],
    code: &[usize],
    mate: &[usize],
    i: usize,
) -> Option<ImplItem> {
    let n = code.len();
    let line = cline(toks, code, i);
    let mut j = i + 1;
    // Skip `<…generics…>`: angle depth with `->`-guard.
    if ctext(src, toks, code, j) == "<" {
        let mut depth = 0i32;
        let mut prev = "";
        while j < n {
            let t = ctext(src, toks, code, j);
            if t == "<" {
                depth += 1;
            } else if t == ">" && prev != "-" {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            prev = t;
            j += 1;
        }
    }
    // Collect tokens until `for` (not HRTB `for<`) or `{` or `where`,
    // tracking angle depth so `Option<For>`-ish names can't confuse us.
    let mut head_a: Vec<String> = Vec::new(); // before `for`
    let mut head_b: Vec<String> = Vec::new(); // after `for`
    let mut after_for = false;
    let mut depth = 0i32;
    let mut prev = String::new();
    let mut open_ci = None;
    while j < n {
        let t = ctext(src, toks, code, j);
        match t {
            "<" => depth += 1,
            ">" if prev != "-" => depth -= 1,
            "(" | "[" => {
                // Skip grouped signature types wholesale.
                let m = mate.get(j).copied().unwrap_or(usize::MAX);
                if m != usize::MAX {
                    let target = if after_for { &mut head_b } else { &mut head_a };
                    for k in j..=m {
                        target.push(ctext(src, toks, code, k).to_string());
                    }
                    prev = ctext(src, toks, code, m).to_string();
                    j = m + 1;
                    continue;
                }
            }
            "{" if depth <= 0 => {
                open_ci = Some(j);
                break;
            }
            "where" if depth <= 0 => {
                // Self type is complete; skip ahead to the body brace.
                let mut k = j + 1;
                while k < n && ctext(src, toks, code, k) != "{" {
                    k += 1;
                }
                if k < n {
                    open_ci = Some(k);
                }
                break;
            }
            "for" if depth <= 0 && ctext(src, toks, code, j + 1) != "<" => {
                after_for = true;
                prev = t.to_string();
                j += 1;
                continue;
            }
            _ => {}
        }
        let target = if after_for { &mut head_b } else { &mut head_a };
        target.push(t.to_string());
        prev = t.to_string();
        j += 1;
    }
    let open_ci = open_ci?;
    let close_ci = mate.get(open_ci).copied().filter(|&m| m != usize::MAX)?;
    let (trait_name, self_ty) = if after_for {
        (Some(last_path_segment(&head_a)), join_ty(&head_b))
    } else {
        (None, join_ty(&head_a))
    };
    Some(ImplItem {
        trait_name,
        self_ty,
        open_ci,
        close_ci,
        line,
    })
}

/// `a :: b :: Encode` → `Encode` (generics already consumed upstream
/// or harmlessly included).
fn last_path_segment(parts: &[String]) -> String {
    let mut last = "";
    let mut depth = 0i32;
    for p in parts {
        match p.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "::" | ":" => {}
            _ if depth == 0 && p.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') => {
                last = p;
            }
            _ => {}
        }
    }
    last.to_string()
}

/// Joins type tokens without spaces: `Vec < u8 >` → `Vec<u8>`.
fn join_ty(parts: &[String]) -> String {
    let mut out = String::new();
    for p in parts {
        // A space only between two ident-ish tokens (`dyn Trait`).
        let need_space = out
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
            && p.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if need_space {
            out.push(' ');
        }
        out.push_str(p);
    }
    out
}

/// Parses `lint:` comment grammars and computes suppression scopes.
fn scan_comments(src: &str, toks: &[Tok], st: &mut Structure) {
    for (ti, t) in toks.iter().enumerate() {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let body = comment_body(t.text(src));
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        if let Some(rest) = rest.strip_prefix("allow(") {
            let Some(close) = rest.find(')') else {
                st.malformed
                    .push((t.line, "malformed lint:allow — missing ')'".to_string()));
                continue;
            };
            let pass = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
            if pass.is_empty() || reason.is_empty() {
                st.malformed.push((
                    t.line,
                    "lint:allow needs a pass name and a ': <reason>' justification".to_string(),
                ));
                continue;
            }
            let scope = suppression_scope(src, toks, st, ti);
            st.allows.push(Suppression {
                pass,
                line: t.line,
                scope,
                used: Cell::new(false),
            });
        } else if let Some(rest) = rest.strip_prefix("secret-scope(") {
            let Some(close) = rest.find(')') else {
                st.malformed
                    .push((t.line, "malformed lint:secret-scope — missing ')'".to_string()));
                continue;
            };
            let secrets: Vec<String> = rest[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if secrets.is_empty() {
                st.malformed.push((
                    t.line,
                    "lint:secret-scope needs at least one secret identifier".to_string(),
                ));
                continue;
            }
            let end = secret_scope_end(src, toks, st, t.line);
            st.secret_scopes.push(SecretScope {
                secrets,
                range: (t.line, end),
                line: t.line,
            });
        } else if rest.starts_with("end-secret-scope") {
            // Consumed by `secret_scope_end`; nothing to record.
        } else {
            st.malformed.push((
                t.line,
                format!("unknown lint: comment directive '{}'", body.chars().take(40).collect::<String>()),
            ));
        }
    }
}

/// Strips comment sigils: `// x`, `/// x`, `//! x`, `/* x */`.
fn comment_body(text: &str) -> &str {
    let t = text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!');
    t.trim().trim_end_matches("*/").trim()
}

/// Scope of a suppression at token index `ti`:
/// - trailing comment (code earlier on the same line) → that line span;
/// - standalone comment directly above a `fn` item → the whole fn;
/// - standalone comment otherwise → the following statement.
#[expect(clippy::indexing_slicing, reason = "`ti` is a valid token index, and all derived indices are bounds-guarded before use")]
fn suppression_scope(src: &str, toks: &[Tok], st: &Structure, ti: usize) -> (u32, u32) {
    let line = toks[ti].line;
    let trailing = toks[..ti]
        .iter()
        .rev()
        .take_while(|t| t.end_line == line)
        .any(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment));
    if trailing {
        return (line, line);
    }
    // First code token after the comment.
    let next_ti = toks[ti + 1..]
        .iter()
        .position(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|off| ti + 1 + off);
    let Some(next_ti) = next_ti else {
        return (line, line);
    };
    let next_line = toks[next_ti].line;
    // A fn item starting right below (attributes and qualifiers may
    // intervene) → whole-fn scope.
    if let Some(f) = st
        .fns
        .iter()
        .find(|f| f.start_line >= line && f.start_line <= next_line + 1 && f.end_line >= next_line)
    {
        if f.start_line.saturating_sub(line) <= 1 {
            return (line, f.end_line);
        }
    }
    // Comment *between* a fn's attributes and its `pub fn`/`fn` line
    // (the item's start_line is the first attribute, above the comment).
    let next_text = toks[next_ti].text(src);
    if (next_text == "pub" || next_text == "fn") && next_line.saturating_sub(line) <= 1 {
        if let Some(f) = st
            .fns
            .iter()
            .filter(|f| f.start_line <= next_line && next_line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
        {
            return (line, f.end_line);
        }
    }
    // Otherwise: the next statement (to `;` at depth 0, descending
    // through at most one block).
    let Some(start_ci) = st.code.iter().position(|&c| c >= next_ti) else {
        return (line, next_line);
    };
    let mut depth = 0i32;
    let mut ci = start_ci;
    while ci < st.code.len() {
        let t = &toks[st.code[ci]];
        if t.kind == TokKind::Punct {
            match t.text(src) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return (line, t.line);
                    }
                }
                ";" if depth == 0 => return (line, t.line),
                _ => {}
            }
        }
        ci += 1;
    }
    (line, next_line)
}

/// End line of a secret scope starting at `marker_line`: an explicit
/// `lint:end-secret-scope` comment if present before the enclosing
/// fn ends, else the enclosing fn's last line, else the marker line's
/// following statement.
fn secret_scope_end(src: &str, toks: &[Tok], st: &Structure, marker_line: u32) -> u32 {
    let fn_end = st.enclosing_fn(marker_line).map(|f| f.end_line);
    let explicit = toks
        .iter()
        .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .filter(|t| t.line > marker_line)
        .filter(|t| comment_body(t.text(src)).starts_with("lint:end-secret-scope"))
        .map(|t| t.line)
        .find(|&l| fn_end.is_none_or(|fe| l <= fe));
    explicit.or(fn_end).unwrap_or(marker_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_src(src: &str) -> Structure {
        let toks = lex(src).unwrap();
        scan(src, &toks)
    }

    #[test]
    fn finds_fns_and_bodies() {
        let src = "fn a(x: &[u8]) -> u8 { x[0] }\npub fn b() {}\n";
        let st = scan_src(src);
        assert_eq!(st.fns.len(), 2);
        assert_eq!(st.fns[0].name, "a");
        assert_eq!(st.fns[0].start_line, 1);
        assert_eq!(st.fns[1].name, "b");
        assert!(!st.fns[0].is_test);
    }

    #[test]
    fn cfg_test_mod_covers_nested_fns() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let st = scan_src(src);
        assert!(!st.in_test(1));
        assert!(st.in_test(4));
        assert!(st.in_test(5));
        let t = st.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        assert!(!st.fns.iter().find(|f| f.name == "lib").unwrap().is_test);
    }

    #[test]
    fn impl_trait_for_type_parsed() {
        let src = "impl Encode for Block { fn encode(&self) {} }\nimpl<T: Clone> wire::Decode for Vec<T> { }\nimpl Bytes { fn len(&self) {} }\n";
        let st = scan_src(src);
        assert_eq!(st.impls.len(), 2 + 1);
        assert_eq!(st.impls[0].trait_name.as_deref(), Some("Encode"));
        assert_eq!(st.impls[0].self_ty, "Block");
        assert_eq!(st.impls[1].trait_name.as_deref(), Some("Decode"));
        assert_eq!(st.impls[1].self_ty, "Vec<T>");
        assert_eq!(st.impls[2].trait_name, None);
        assert_eq!(st.impls[2].self_ty, "Bytes");
    }

    #[test]
    fn allow_scopes() {
        let src = "\
fn f() {
    x.recv(); // lint:allow(blocking): trailing
    // lint:allow(blocking): next statement
    y
        .recv();
}
// lint:allow(blocking): whole fn
fn g() {
    z.recv();
}
";
        let st = scan_src(src);
        assert_eq!(st.allows.len(), 3);
        assert_eq!(st.allows[0].scope, (2, 2));
        assert_eq!(st.allows[1].scope, (3, 5));
        assert_eq!(st.allows[2].scope.0, 7);
        assert!(st.allows[2].scope.1 >= 10);
        assert!(st.suppressed("blocking", 9));
        assert!(!st.suppressed("consttime", 9));
    }

    #[test]
    fn malformed_allow_reported() {
        let st = scan_src("// lint:allow(blocking) missing reason\nfn f() {}\n");
        assert_eq!(st.malformed.len(), 1);
        let st = scan_src("// lint:bogus-directive\nfn f() {}\n");
        assert_eq!(st.malformed.len(), 1);
    }

    #[test]
    fn secret_scope_extends_to_fn_end_or_marker() {
        let src = "\
fn sign(d: &U256) {
    // lint:secret-scope(d, k)
    let k = derive(d);
    use_it(k);
}
fn other() {
    // lint:secret-scope(s)
    step_one();
    // lint:end-secret-scope
    step_two();
}
";
        let st = scan_src(src);
        assert_eq!(st.secret_scopes.len(), 2);
        assert_eq!(st.secret_scopes[0].secrets, vec!["d", "k"]);
        assert_eq!(st.secret_scopes[0].range, (2, 5));
        assert_eq!(st.secret_scopes[1].range, (7, 9));
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        body();\n    }\n}\n";
        let st = scan_src(src);
        assert_eq!(st.enclosing_fn(3).unwrap().name, "inner");
        assert_eq!(st.enclosing_fn(5).unwrap().name, "outer");
    }
}
