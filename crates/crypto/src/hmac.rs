//! HMAC-SHA-256 (RFC 2104), used by RFC 6979 deterministic ECDSA nonce
//! generation and by the test-network message authenticator.

use crate::sha256::{Digest, Hash256};

const BLOCK_SIZE: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
///
/// # Examples
///
/// ```
/// use hlf_crypto::hmac::hmac_sha256;
///
/// let mac = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     mac.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Hash256 {
    hmac_sha256_multi(key, &[message])
}

/// Computes HMAC-SHA256 over the concatenation of `parts` without copying
/// them into one buffer.
#[expect(clippy::indexing_slicing, reason = "`key.len() ≤ BLOCK_SIZE` on the copy branch and `i < BLOCK_SIZE` over `[u8; BLOCK_SIZE]` pads")]
pub fn hmac_sha256_multi(key: &[u8], parts: &[&[u8]]) -> Hash256 {
    let mut key_block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        let hashed = crate::sha256::sha256(key);
        key_block[..32].copy_from_slice(hashed.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK_SIZE];
    let mut opad = [0x5cu8; BLOCK_SIZE];
    for i in 0..BLOCK_SIZE {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }

    let mut inner = Digest::new();
    inner.update(&ipad);
    for p in parts {
        inner.update(p);
    }
    let inner_hash = inner.finalize();

    let mut outer = Digest::new();
    outer.update(&opad);
    outer.update(inner_hash.as_bytes());
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 4231 test cases 1-4, 6, 7.
    #[test]
    fn rfc4231_vectors() {
        struct Case {
            key: Vec<u8>,
            data: Vec<u8>,
            mac: &'static str,
        }
        let cases = [Case {
                key: vec![0x0b; 20],
                data: b"Hi There".to_vec(),
                mac: "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            },
            Case {
                key: b"Jefe".to_vec(),
                data: b"what do ya want for nothing?".to_vec(),
                mac: "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            },
            Case {
                key: vec![0xaa; 20],
                data: vec![0xdd; 50],
                mac: "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            },
            Case {
                key: hex::decode("0102030405060708090a0b0c0d0e0f10111213141516171819").unwrap(),
                data: vec![0xcd; 50],
                mac: "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            },
            Case {
                key: vec![0xaa; 131],
                data: b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                mac: "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            },
            Case {
                key: vec![0xaa; 131],
                data: b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."
                    .to_vec(),
                mac: "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            }];
        for (i, case) in cases.iter().enumerate() {
            assert_eq!(
                hmac_sha256(&case.key, &case.data).to_hex(),
                case.mac,
                "case {i}"
            );
        }
    }

    #[test]
    fn multi_part_matches_single() {
        let key = b"key material";
        let whole = b"part one and part two";
        assert_eq!(
            hmac_sha256_multi(key, &[b"part one", b" and ", b"part two"]),
            hmac_sha256(key, whole)
        );
    }
}
