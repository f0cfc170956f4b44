//! Minimal hex encoding/decoding helpers (keeps the workspace free of a
//! `hex` crate dependency).

/// Encodes `bytes` as a lowercase hex string.
///
/// # Examples
///
/// ```
/// assert_eq!(hlf_crypto::hex::encode(&[0xde, 0xad, 0x01]), "dead01");
/// ```
#[expect(clippy::indexing_slicing, reason = "nibble values are `< 16`, the exact alphabet length")]
pub fn encode(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(ALPHABET[(b >> 4) as usize] as char);
        out.push(ALPHABET[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decodes a hex string (upper- or lowercase) into bytes.
///
/// Returns `None` on odd length or non-hex characters.
///
/// # Examples
///
/// ```
/// assert_eq!(hlf_crypto::hex::decode("DEAD01"), Some(vec![0xde, 0xad, 0x01]));
/// assert_eq!(hlf_crypto::hex::decode("xyz"), None);
/// ```
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let (pairs, odd) = s.as_bytes().as_chunks::<2>();
    if !odd.is_empty() {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let mut out = Vec::with_capacity(pairs.len());
    for &[hi, lo] in pairs {
        out.push((nibble(hi)? << 4) | nibble(lo)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)), Some(data));
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(decode("a"), None);
        assert_eq!(decode("g0"), None);
        assert_eq!(decode(""), Some(vec![]));
    }

    #[test]
    fn accepts_uppercase() {
        assert_eq!(decode("FF00"), Some(vec![0xff, 0x00]));
    }
}
