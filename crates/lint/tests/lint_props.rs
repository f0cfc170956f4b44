//! Property tests: the analyzer is total — `analyze` returns a report
//! (possibly with lex-error findings) and never panics, whatever bytes
//! it is fed. Zero dependencies: a hand-rolled xorshift PRNG with a
//! fixed seed stands in for a property-testing framework, so failures
//! reproduce deterministically.

use hlf_lint::{analyze, FileClass, SourceFile};

/// xorshift64* — deterministic, seedable, good enough for fuzzing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn check(path: &str, text: String) {
    let file = SourceFile {
        path: path.to_string(),
        class: FileClass::Lib,
        text,
    };
    // The property is simply that this returns.
    let report = analyze(&[file]);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn arbitrary_ascii_never_panics() {
    let mut rng = Rng(0x5eed_0001);
    for round in 0..300 {
        let len = rng.below(600);
        let mut text = String::with_capacity(len);
        for _ in 0..len {
            // Printable ASCII plus whitespace — the lexer's home turf.
            let c = match rng.below(20) {
                0 => '\n',
                1 => '\t',
                2 => ' ',
                _ => char::from(32 + rng.below(95) as u8),
            };
            text.push(c);
        }
        check(&format!("ascii_{round}.rs"), text);
    }
}

#[test]
fn arbitrary_token_soup_never_panics() {
    // Tokens chosen to reach deep into the scanner and the fact
    // extractors: fn items, closures, spawns, locks, channels,
    // suppressions, raw strings, lifetimes — in random, usually
    // ill-formed orders.
    const VOCAB: &[&str] = &[
        "fn", "{", "}", "(", ")", "[", "]", "let", "mut", "=", ".", ";", ",",
        "lock", "read", "write", "spawn", "join", "recv", "send", "channel",
        "move", "|", "||", "match", "if", "while", "for", "in", "unsafe",
        "impl", "struct", "Mutex", "RwLock", "MutexGuard", "<", ">", ":",
        "::", "->", "&", "?", "drop", "unwrap", "self", "x", "alpha",
        "'a", "'x'", "0x1f", "42", "\"str\"", "r#\"raw\"#", "b\"bytes\"",
        "// lint:allow(thread): reason", "// lint:allow(blocking)",
        "#[test]", "#[cfg(test)]", "//! doc", "/* block */", "thread",
        "std", "sleep", "write_all", "Encode", "Decode", "encoded_len",
    ];
    let mut rng = Rng(0x5eed_0002);
    for round in 0..300 {
        let n = rng.below(120);
        let mut text = String::new();
        for _ in 0..n {
            text.push_str(VOCAB[rng.below(VOCAB.len())]);
            text.push(if rng.below(6) == 0 { '\n' } else { ' ' });
        }
        check(&format!("soup_{round}.rs"), text);
    }
}

#[test]
fn arbitrary_bytes_and_truncations_never_panic() {
    let mut rng = Rng(0x5eed_0003);
    // Raw bytes laundered through from_utf8_lossy — exercises the
    // replacement character and multi-byte boundaries.
    for round in 0..200 {
        let len = rng.below(400);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
        check(
            &format!("bytes_{round}.rs"),
            String::from_utf8_lossy(&bytes).into_owned(),
        );
    }
    // A real fixture truncated at random char boundaries — valid
    // prefixes of well-formed code are the likeliest malformed inputs.
    let seed_text = include_str!("fixtures/channel_cycle.rs");
    for round in 0..200 {
        let mut cut = rng.below(seed_text.len() + 1);
        while !seed_text.is_char_boundary(cut) {
            cut -= 1;
        }
        check(&format!("trunc_{round}.rs"), seed_text[..cut].to_string());
    }
}
