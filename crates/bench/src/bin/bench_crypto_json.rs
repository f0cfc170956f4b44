//! Emits `BENCH_crypto.json`: before/after rates for the ECDSA fast
//! paths and for SHA-256's two compress implementations, measured on
//! *this* machine.
//!
//! "Before" numbers come from the verified reference paths kept
//! in-tree (`Point::mul_reference`, `SigningKey::sign_digest_reference`,
//! `VerifyingKey::verify_digest_reference`) — the exact *algorithms* the
//! seed implementation used — so the comparison is same-binary,
//! same-machine, same-flags. Note the reference paths still run faster
//! here than in the seed binary, because the field arithmetic
//! underneath them (P-256-specialised Montgomery rounds, dedicated
//! squaring, branch-free modular add/sub) improved too; the committed
//! JSON additionally records the seed binary's absolute rates measured
//! on the same machine for the end-to-end speedup.
//!
//! The `sha256` rows set `sha256_reference` (the portable compress,
//! whatever the processor) beside `sha256` (SHA-NI where CPUID offers
//! it, the same portable code elsewhere, in which case both columns
//! agree); `hmac_150B_frame` is one MAC over a vote-sized frame.
//!
//! ```sh
//! cargo run --release -p bench --bin bench_crypto_json   # or: make bench-crypto
//! ```

use hlf_crypto::bignum::U256;
use hlf_crypto::ecdsa::SigningKey;
use hlf_crypto::p256::Point;
use hlf_crypto::hmac::hmac_sha256;
use hlf_crypto::sha256::{compress_backend, sha256, sha256_reference};
use std::hint::black_box;
use std::time::Instant;

/// Median-of-3 timing runs, microseconds per op.
fn time_us(iters: u32, mut op: impl FnMut()) -> f64 {
    for _ in 0..(iters / 10).max(1) {
        op();
    }
    let mut runs = [0.0f64; 3];
    for slot in &mut runs {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        *slot = start.elapsed().as_secs_f64() / iters as f64 * 1e6;
    }
    runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    runs[1]
}

struct Row {
    name: &'static str,
    before_us: f64,
    after_us: f64,
}

fn main() {
    let key = SigningKey::from_seed(b"bench-ecdsa");
    let digest = sha256(b"block header");
    let signature = key.sign_digest(&digest);
    let vk = *key.verifying_key();
    let k = U256::from_hex("7a1b3c5d9e8f70615243342516070899aabbccddeeff00112233445566778899")
        .unwrap();
    let u1 = U256::from_hex("3344556677889900aabbccddeeff00117a1b3c5d9e8f7061524334251607a899")
        .unwrap();
    let q = *vk.point();
    Point::mul_base(&k); // build the comb table outside the timing loops

    eprintln!("measuring (median of 3 runs per row)...");
    let rows = [
        Row {
            name: "p256_mul_base",
            before_us: time_us(500, || {
                black_box(Point::generator().mul_reference(black_box(&k)));
            }),
            after_us: time_us(2000, || {
                black_box(Point::mul_base(black_box(&k)));
            }),
        },
        Row {
            name: "p256_mul",
            before_us: time_us(500, || {
                black_box(q.mul_reference(black_box(&k)));
            }),
            after_us: time_us(500, || {
                black_box(q.mul(black_box(&k)));
            }),
        },
        Row {
            name: "p256_dual_scalar_mul",
            before_us: time_us(250, || {
                // The seed verify shape: two full scalar muls + add.
                black_box(
                    Point::generator()
                        .mul_reference(black_box(&u1))
                        .add(&q.mul_reference(black_box(&k))),
                );
            }),
            after_us: time_us(500, || {
                black_box(Point::lincomb(black_box(&u1), &q, black_box(&k)));
            }),
        },
        Row {
            name: "ecdsa_sign",
            before_us: time_us(500, || {
                black_box(key.sign_digest_reference(black_box(&digest)));
            }),
            after_us: time_us(1000, || {
                black_box(key.sign_digest(black_box(&digest)));
            }),
        },
        Row {
            name: "ecdsa_verify",
            before_us: time_us(250, || {
                vk.verify_digest_reference(black_box(&digest), black_box(&signature))
                    .unwrap();
            }),
            after_us: time_us(500, || {
                vk.verify_digest(black_box(&digest), black_box(&signature))
                    .unwrap();
            }),
        },
    ];

    let message = vec![0xa5u8; 400 << 10];
    let sha_rows = [("64B", 64usize), ("2KiB", 2 << 10), ("400KiB", 400 << 10)].map(|(name, len)| {
        let iters = (20_000_000 / len).clamp(50, 200_000) as u32;
        let ns_per_byte = |us: f64| us * 1e3 / len as f64;
        let scalar = ns_per_byte(time_us(iters, || {
            black_box(sha256_reference(black_box(&message[..len])));
        }));
        let dispatched = ns_per_byte(time_us(iters, || {
            black_box(sha256(black_box(&message[..len])));
        }));
        (name, scalar, dispatched)
    });
    let hmac_us = time_us(200_000, || {
        black_box(hmac_sha256(black_box(&message[..32]), black_box(&message[..150])));
    });

    // Hand-rolled JSON: the workspace deliberately has no serde_json.
    let mut out = String::from("{\n");
    out.push_str(
        "  \"description\": \"P-256 fast paths (fixed-base comb, windowed affine tables, \
         Strauss-Shamir) vs the in-tree double-and-add reference; same binary, same machine\",\n",
    );
    out.push_str("  \"unit\": \"microseconds per operation\",\n");
    out.push_str("  \"seed_binary\": {\n");
    out.push_str(
        "    \"note\": \"absolute rates of the pre-optimization seed (commit 42e160f) \
         measured on the machine that committed this file; the reference rows below use \
         the same algorithms but sit on the improved field arithmetic\",\n",
    );
    out.push_str("    \"p256_mul_base_us\": 89.8,\n");
    out.push_str("    \"p256_mul_us\": 88.7,\n");
    out.push_str("    \"ecdsa_sign_us\": 124.7,\n");
    out.push_str("    \"ecdsa_verify_us\": 249.6\n");
    out.push_str("  },\n");
    out.push_str("  \"results\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let speedup = row.before_us / row.after_us;
        out.push_str(&format!(
            "    \"{}\": {{ \"reference_us\": {:.1}, \"fast_us\": {:.1}, \
             \"speedup_vs_reference\": {:.2}, \
             \"reference_ops_per_sec\": {:.0}, \"fast_ops_per_sec\": {:.0} }}{}\n",
            row.name,
            row.before_us,
            row.after_us,
            speedup,
            1e6 / row.before_us,
            1e6 / row.after_us,
            if i + 1 < rows.len() { "," } else { "" },
        ));
        println!(
            "{:>22}: {:>8.1} us -> {:>7.1} us  ({:.2}x)",
            row.name, row.before_us, row.after_us, speedup
        );
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"sha256\": {{\n    \"unit\": \"nanoseconds per byte, one-shot hash of the stated length\",\n    \
         \"dispatched_compress\": \"{}\",\n",
        compress_backend(),
    ));
    for (name, scalar, dispatched) in sha_rows {
        let speedup = scalar / dispatched;
        out.push_str(&format!(
            "    \"{name}\": {{ \"scalar_reference_ns_per_byte\": {scalar:.2}, \
             \"dispatched_ns_per_byte\": {dispatched:.2}, \"speedup_vs_reference\": {speedup:.2} }},\n",
        ));
        println!(
            "{:>22}: {scalar:>8.2} ns/B -> {dispatched:>5.2} ns/B  ({speedup:.2}x)",
            format!("sha256_{name}"),
        );
    }
    out.push_str(&format!("    \"hmac_150B_frame_us\": {hmac_us:.3}\n  }}\n}}\n"));
    println!("{:>22}: {hmac_us:>8.3} us", "hmac_150B_frame");

    std::fs::write("BENCH_crypto.json", &out).expect("write BENCH_crypto.json");
    eprintln!("wrote BENCH_crypto.json");
}
