//! A hand-rolled lexer for Rust source text.
//!
//! The passes in this crate only need a faithful *token stream*, not a
//! full grammar: what matters is that string literals, raw strings,
//! nested block comments, char-vs-lifetime quotes, and byte literals
//! can never be confused with code, because that is exactly how
//! grep-based lints get fooled. Comments are kept as tokens — the
//! suppression grammar (`// lint:allow(...)`) and the secret-scope
//! markers live in them.

use std::fmt;

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (including raw identifiers `r#type`).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A char literal `'x'`, `'\n'`, `'\u{1F600}'`.
    Char,
    /// A byte literal `b'x'`.
    Byte,
    /// A string literal `"…"`.
    Str,
    /// A raw string literal `r"…"`, `r#"…"#`, any number of `#`s.
    RawStr,
    /// A byte string `b"…"`.
    ByteStr,
    /// A raw byte string `br#"…"#`.
    RawByteStr,
    /// Integer literal (any base, underscores and suffix included).
    Int,
    /// Float literal.
    Float,
    /// `// …` comment, including doc comments `///` and `//!`.
    LineComment,
    /// `/* … */` comment, nesting handled.
    BlockComment,
    /// Any single punctuation character (`.`, `[`, `!`, …). Multi-char
    /// operators arrive as consecutive `Punct` tokens, which is all the
    /// passes need.
    Punct,
}

/// One token: kind plus byte span and 1-based source line.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based line of the last byte (differs for multi-line tokens).
    pub end_line: u32,
}

impl Tok {
    /// The token's text within `src`.
    pub(crate) fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// A malformed-source diagnostic (unterminated literal or comment).
#[derive(Clone, Debug)]
pub(crate) struct LexError {
    /// 1-based line where the offending token started.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    /// Advances one byte, tracking newlines. Only called at char
    /// boundaries or inside literals where byte-wise stepping is safe
    /// (multi-byte UTF-8 continuation bytes are never `\n`).
    fn bump(&mut self) {
        if self.peek() == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// With the cursor on an opening `'`, reports whether the would-be
/// lifetime ident is immediately closed by another quote — i.e. the
/// token is really a char literal. Scanning the *whole* ident matters
/// for multi-byte chars: in `'▁'` every continuation byte looks like
/// ident material, so peeking a fixed two bytes ahead misreads the
/// literal as a lifetime.
fn ident_then_quote(c: &Cursor<'_>) -> bool {
    let bytes = c.src.as_bytes();
    let mut at = c.pos + 1;
    while bytes.get(at).copied().is_some_and(is_ident_continue) {
        at += 1;
    }
    bytes.get(at) == Some(&b'\'')
}

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated strings, chars, or block
/// comments; everything syntactically stranger but delimiter-balanced
/// lexes fine (the passes are heuristic and tolerate oddities).
pub(crate) fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    let mut c = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut toks = Vec::new();
    while let Some(b) = c.peek() {
        let start = c.pos;
        let line = c.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
                continue;
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                while c.peek().is_some_and(|b| b != b'\n') {
                    c.bump();
                }
                push(&mut toks, TokKind::LineComment, start, &c, line);
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                c.bump_n(2);
                let mut depth = 1usize;
                loop {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            c.bump_n(2);
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            c.bump_n(2);
                            if depth == 0 {
                                break;
                            }
                        }
                        (Some(_), _) => c.bump(),
                        (None, _) => {
                            return Err(LexError {
                                line,
                                msg: "unterminated block comment".into(),
                            })
                        }
                    }
                }
                push(&mut toks, TokKind::BlockComment, start, &c, line);
            }
            b'r' if matches!(c.peek_at(1), Some(b'"') | Some(b'#')) => {
                if let Some(kind) = try_raw_string(&mut c, 1, TokKind::RawStr)? {
                    push(&mut toks, kind, start, &c, line);
                } else {
                    lex_ident(&mut c);
                    push(&mut toks, TokKind::Ident, start, &c, line);
                }
            }
            b'b' if c.peek_at(1) == Some(b'\'') => {
                c.bump_n(2);
                lex_char_body(&mut c, line)?;
                push(&mut toks, TokKind::Byte, start, &c, line);
            }
            b'b' if c.peek_at(1) == Some(b'"') => {
                c.bump();
                lex_string(&mut c, line)?;
                push(&mut toks, TokKind::ByteStr, start, &c, line);
            }
            b'b' if c.peek_at(1) == Some(b'r')
                && matches!(c.peek_at(2), Some(b'"') | Some(b'#')) =>
            {
                if let Some(kind) = try_raw_string(&mut c, 2, TokKind::RawByteStr)? {
                    push(&mut toks, kind, start, &c, line);
                } else {
                    lex_ident(&mut c);
                    push(&mut toks, TokKind::Ident, start, &c, line);
                }
            }
            b'"' => {
                lex_string(&mut c, line)?;
                push(&mut toks, TokKind::Str, start, &c, line);
            }
            b'\'' => {
                // Lifetime vs char. `'a'` is a char; `'a` (no closing
                // quote after one ident) is a lifetime. Escapes always
                // mean char.
                let kind = if c.peek_at(1) == Some(b'\\') {
                    c.bump();
                    lex_char_body(&mut c, line)?;
                    TokKind::Char
                } else if c.peek_at(1).is_some_and(is_ident_start)
                    && !ident_then_quote(&c)
                {
                    // `'a>` / `'static` / `'a,` … a lifetime: quote,
                    // ident, and the ident is not closed by a quote.
                    c.bump();
                    lex_ident(&mut c);
                    TokKind::Lifetime
                } else {
                    c.bump();
                    lex_char_body(&mut c, line)?;
                    TokKind::Char
                };
                push(&mut toks, kind, start, &c, line);
            }
            b if b.is_ascii_digit() => {
                let kind = lex_number(&mut c);
                push(&mut toks, kind, start, &c, line);
            }
            b if is_ident_start(b) => {
                lex_ident(&mut c);
                push(&mut toks, TokKind::Ident, start, &c, line);
            }
            _ => {
                c.bump();
                // Multi-byte UTF-8 punctuation (shouldn't appear outside
                // strings in valid Rust, but stay on char boundaries).
                while c.peek().is_some_and(|b| (0x80..0xC0).contains(&b)) {
                    c.bump();
                }
                push(&mut toks, TokKind::Punct, start, &c, line);
            }
        }
    }
    Ok(toks)
}

fn push(toks: &mut Vec<Tok>, kind: TokKind, start: usize, c: &Cursor<'_>, line: u32) {
    debug_assert!(c.src.is_char_boundary(start) && c.src.is_char_boundary(c.pos));
    toks.push(Tok {
        kind,
        start,
        end: c.pos,
        line,
        end_line: c.line,
    });
}

/// Consumes an identifier (cursor on its first byte). Handles raw
/// identifiers `r#name`.
fn lex_ident(c: &mut Cursor<'_>) {
    if c.peek() == Some(b'r') && c.peek_at(1) == Some(b'#') {
        c.bump_n(2);
    }
    while c.peek().is_some_and(is_ident_continue) {
        c.bump();
    }
}

/// Attempts a raw (byte) string whose `r` sits `r_off - 1` bytes ahead
/// of the cursor position (1 for `r…`, 2 for `br…`). Returns `None` if
/// the `#`s are not followed by a quote (then it's a raw identifier
/// like `r#type`, which the caller lexes as an ident).
fn try_raw_string(
    c: &mut Cursor<'_>,
    r_off: usize,
    kind: TokKind,
) -> Result<Option<TokKind>, LexError> {
    let line = c.line;
    let mut hashes = 0usize;
    while c.peek_at(r_off + hashes) == Some(b'#') {
        hashes += 1;
    }
    if c.peek_at(r_off + hashes) != Some(b'"') {
        return Ok(None);
    }
    c.bump_n(r_off + hashes + 1);
    // Scan for `"` followed by `hashes` hashes.
    loop {
        match c.peek() {
            Some(b'"') => {
                let mut got = 0usize;
                while got < hashes && c.peek_at(1 + got) == Some(b'#') {
                    got += 1;
                }
                if got == hashes {
                    c.bump_n(1 + hashes);
                    return Ok(Some(kind));
                }
                c.bump();
            }
            Some(_) => c.bump(),
            None => {
                return Err(LexError {
                    line,
                    msg: "unterminated raw string".into(),
                })
            }
        }
    }
}

/// Consumes a normal (byte) string body; cursor on the opening quote.
fn lex_string(c: &mut Cursor<'_>, line: u32) -> Result<(), LexError> {
    c.bump(); // opening quote
    loop {
        match c.peek() {
            Some(b'\\') => c.bump_n(2),
            Some(b'"') => {
                c.bump();
                return Ok(());
            }
            Some(_) => c.bump(),
            None => {
                return Err(LexError {
                    line,
                    msg: "unterminated string literal".into(),
                })
            }
        }
    }
}

/// Consumes a char/byte literal body up to and including the closing
/// quote; cursor just past the opening quote.
fn lex_char_body(c: &mut Cursor<'_>, line: u32) -> Result<(), LexError> {
    loop {
        match c.peek() {
            Some(b'\\') => c.bump_n(2),
            Some(b'\'') => {
                c.bump();
                return Ok(());
            }
            Some(_) => c.bump(),
            None => {
                return Err(LexError {
                    line,
                    msg: "unterminated char literal".into(),
                })
            }
        }
    }
}

/// Consumes a numeric literal; cursor on its first digit.
fn lex_number(c: &mut Cursor<'_>) -> TokKind {
    let mut kind = TokKind::Int;
    if c.peek() == Some(b'0')
        && matches!(
            c.peek_at(1),
            Some(b'x') | Some(b'X') | Some(b'o') | Some(b'O') | Some(b'b') | Some(b'B')
        )
    {
        c.bump_n(2);
        while c
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            c.bump();
        }
        return TokKind::Int;
    }
    while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        c.bump();
    }
    // Fractional part: `.` followed by a digit (so `0..10` stays two
    // ints and `1.to_string()` stays an int + method call).
    if c.peek() == Some(b'.') && c.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
        kind = TokKind::Float;
        c.bump();
        while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
    }
    // Exponent.
    if matches!(c.peek(), Some(b'e') | Some(b'E'))
        && (c.peek_at(1).is_some_and(|b| b.is_ascii_digit())
            || (matches!(c.peek_at(1), Some(b'+') | Some(b'-'))
                && c.peek_at(2).is_some_and(|b| b.is_ascii_digit())))
    {
        kind = TokKind::Float;
        c.bump();
        if matches!(c.peek(), Some(b'+') | Some(b'-')) {
            c.bump();
        }
        while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
    }
    // Type suffix (`u8`, `f64`, `usize` …).
    while c.peek().is_some_and(is_ident_continue) {
        if c.peek().is_some_and(|b| b == b'f') {
            kind = TokKind::Float;
        }
        c.bump();
    }
    kind
}

/// Parses the numeric value of an [`TokKind::Int`] token's text,
/// ignoring underscores and any type suffix.
///
/// # Errors
///
/// Returns `None` if the literal overflows `u64` or has no digits.
pub(crate) fn int_value(text: &str) -> Option<u64> {
    let (radix, digits) = match text.as_bytes() {
        [b'0', b'x' | b'X', rest @ ..] => (16, rest),
        [b'0', b'o' | b'O', rest @ ..] => (8, rest),
        [b'0', b'b' | b'B', rest @ ..] => (2, rest),
        rest => (10, rest),
    };
    let mut value: u64 = 0;
    let mut seen = false;
    for &b in digits {
        if b == b'_' {
            continue;
        }
        let Some(d) = (b as char).to_digit(radix) else {
            break; // type suffix (`u8`, `usize`, …)
        };
        value = value.checked_mul(radix as u64)?.checked_add(d as u64)?;
        seen = true;
    }
    if seen {
        Some(value)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).unwrap().iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src)
            .unwrap()
            .iter()
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let src = r####"let s = r#"an "unwrap()" inside"#; x.len()"####;
        let toks = lex(src).unwrap();
        let raw: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::RawStr).collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].text(src), r####"r#"an "unwrap()" inside"#"####);
        // The `unwrap` inside the raw string is NOT an ident token.
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(idents, vec!["let", "s", "x", "len"]);
    }

    #[test]
    fn raw_strings_with_many_hashes_and_inner_terminators() {
        let src = r#####"r##"ends "# not here"## ; 1"#####;
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].kind, TokKind::RawStr);
        assert_eq!(toks[0].text(src), r#####"r##"ends "# not here"##"#####);
        assert_eq!(toks[1].kind, TokKind::Punct);
        assert_eq!(toks[2].kind, TokKind::Int);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        assert_eq!(
            kinds(src),
            vec![TokKind::Ident, TokKind::BlockComment, TokKind::Ident]
        );
        assert_eq!(texts(src)[1], "/* outer /* inner */ still comment */");
    }

    #[test]
    fn unterminated_nested_comment_is_an_error() {
        assert!(lex("/* /* */").is_err());
    }

    #[test]
    fn lifetime_vs_char() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let s = 'static; let nl = '\\n'; }";
        let toks = lex(src).unwrap();
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(chars, vec!["'a'", "'\\n'"]);
    }

    #[test]
    fn multibyte_char_literals_are_chars_not_lifetimes() {
        // Every byte of `▁` looks like ident material, so a fixed
        // two-byte lookahead misreads the literal as a lifetime and the
        // stray closing quote derails the rest of the file.
        let src = "let glyphs = ['▁', '█']; fn f<'a>(x: &'a str) {}";
        let toks = lex(src).unwrap();
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(chars, vec!["'▁'", "'█'"]);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
    }

    #[test]
    fn byte_literals() {
        let src = r##"let a = b"bytes"; let b = b'x'; let c = br#"raw"#;"##;
        let toks = lex(src).unwrap();
        assert!(toks.iter().any(|t| t.kind == TokKind::ByteStr));
        assert!(toks.iter().any(|t| t.kind == TokKind::Byte));
        assert!(toks.iter().any(|t| t.kind == TokKind::RawByteStr));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let src = "let r#type = r#fn; r#\"but this is raw\"#";
        let toks = lex(src).unwrap();
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(idents, vec!["let", "r#type", "r#fn"]);
        assert_eq!(toks.last().unwrap().kind, TokKind::RawStr);
    }

    #[test]
    fn numbers_and_ranges() {
        let src = "0..10 1_000u64 0xff_u8 1.5 2e3 1.to_string()";
        let toks = lex(src).unwrap();
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| (t.kind, t.text(src)))
            .collect();
        assert_eq!(
            nums,
            vec![
                (TokKind::Int, "0"),
                (TokKind::Int, "10"),
                (TokKind::Int, "1_000u64"),
                (TokKind::Int, "0xff_u8"),
                (TokKind::Float, "1.5"),
                (TokKind::Float, "2e3"),
                (TokKind::Int, "1"),
            ]
        );
    }

    #[test]
    fn int_values_parse_all_bases() {
        assert_eq!(int_value("0"), Some(0));
        assert_eq!(int_value("42u8"), Some(42));
        assert_eq!(int_value("1_000"), Some(1000));
        assert_eq!(int_value("0xff"), Some(255));
        assert_eq!(int_value("0o17"), Some(15));
        assert_eq!(int_value("0b1010"), Some(10));
        assert_eq!(int_value("0x"), None);
    }

    #[test]
    fn strings_hide_comment_markers_and_macros() {
        let src = r#"let s = "// println!(\"no\") /* x */"; done()"#;
        let toks = lex(src).unwrap();
        assert!(!toks.iter().any(|t| t.kind == TokKind::LineComment));
        assert!(!toks.iter().any(|t| t.kind == TokKind::BlockComment));
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(idents, vec!["let", "s", "done"]);
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb\n\"str\nlit\"\nc";
        let toks = lex(src).unwrap();
        let by_text: Vec<_> = toks.iter().map(|t| (t.text(src), t.line, t.end_line)).collect();
        assert_eq!(by_text[0], ("a", 1, 1));
        assert_eq!(by_text[1], ("/* two\nlines */", 2, 3));
        assert_eq!(by_text[2], ("b", 4, 4));
        assert_eq!(by_text[3], ("\"str\nlit\"", 5, 6));
        assert_eq!(by_text[4], ("c", 7, 7));
    }

    #[test]
    fn doc_comments_are_line_comments() {
        let src = "/// doc with unwrap()\nfn f() {}";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert_eq!(toks[1].text(src), "fn");
    }
}
