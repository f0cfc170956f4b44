//! Canonical, deterministic binary wire format for hlf-bft.
//!
//! Every protocol message in the workspace — consensus messages, SMR
//! client requests, Fabric envelopes and blocks — is serialized through
//! the [`Encode`]/[`Decode`] traits defined here. The format is
//! deliberately boring:
//!
//! * fixed-width little-endian integers,
//! * `u32` length prefixes for variable-length data,
//! * no padding, no versioned self-description.
//!
//! Determinism matters twice over in a BFT system: replicas must compute
//! identical hashes over identical logical values, and signatures must
//! cover a canonical byte string.
//!
//! # Examples
//!
//! ```
//! use hlf_wire::{from_bytes, to_bytes, Decode, Encode, Reader, WireError};
//!
//! #[derive(Debug, PartialEq)]
//! struct Ping { seq: u64, payload: Vec<u8> }
//!
//! impl Encode for Ping {
//!     fn encode(&self, out: &mut Vec<u8>) {
//!         self.seq.encode(out);
//!         self.payload.encode(out);
//!     }
//! }
//!
//! impl Decode for Ping {
//!     fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
//!         Ok(Ping { seq: Decode::decode(r)?, payload: Decode::decode(r)? })
//!     }
//! }
//!
//! # fn main() -> Result<(), WireError> {
//! let ping = Ping { seq: 7, payload: vec![1, 2, 3] };
//! let bytes = to_bytes(&ping);
//! assert_eq!(from_bytes::<Ping>(&bytes)?, ping);
//! # Ok(())
//! # }
//! ```

// Panic, `unsafe` and stdout discipline of this library target (DESIGN.md
// §7); an exception is an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks,
    clippy::print_stdout,
    clippy::allow_attributes_without_reason
)]

pub mod bytes;
pub mod ids;
pub mod trace;

pub use bytes::{BufferPool, Bytes, PoolStats};
pub use ids::{ClientId, NodeId};
pub use trace::{
    decode_trailing_trace, encode_trailing_trace, trailing_trace_len, TRACE_MARKER,
    TRACE_WIRE_LEN,
};

use hlf_crypto::ecdsa::Signature;
use hlf_crypto::sha256::Hash256;
use std::error::Error;
use std::fmt;

/// Maximum length prefix the decoder will accept, as a defence against
/// allocation bombs from Byzantine peers (16 MiB).
pub const MAX_LEN: u32 = 16 * 1024 * 1024;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A length prefix exceeded [`MAX_LEN`].
    LengthOverflow(u32),
    /// An enum discriminant or flag byte had no defined meaning.
    InvalidDiscriminant(u8),
    /// Bytes remained after the top-level value was decoded.
    TrailingBytes(usize),
    /// A structurally valid encoding carried a semantically invalid value
    /// (for example an out-of-range signature scalar).
    InvalidValue(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of input"),
            WireError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds limit"),
            WireError::InvalidDiscriminant(d) => write!(f, "invalid discriminant {d}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::InvalidValue(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl Error for WireError {}

/// A cursor over an input buffer being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
    /// When decoding out of a shared buffer, the buffer itself, so that
    /// byte-string fields can be taken as zero-copy views of it.
    /// Invariant: `input == backing.as_slice()`.
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Reader<'a> {
        Reader { input, pos: 0, backing: None }
    }

    /// Creates a reader over a shared buffer. Byte-string fields decode
    /// as zero-copy views ([`Bytes::slice`]) of `bytes` instead of
    /// fresh allocations.
    pub fn for_shared(bytes: &'a Bytes) -> Reader<'a> {
        Reader { input: bytes.as_slice(), pos: 0, backing: Some(bytes) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Current read offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// A zero-copy view of `input[start..end]`, available when the
    /// reader was built with [`Reader::for_shared`]. Lets composite
    /// decoders adopt the canonical bytes they just consumed as an
    /// encode-once cache.
    pub fn shared_view(&self, start: usize, end: usize) -> Option<Bytes> {
        self.backing.map(|b| b.slice(start..end))
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        #[expect(clippy::indexing_slicing, reason = "guarded by the `remaining() < n` check above")]
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        #[expect(clippy::expect_used, reason = "`take(N)` returns exactly `N` bytes on success")]
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Takes `n` bytes as a [`Bytes`] value: a zero-copy view when the
    /// reader was built with [`Reader::for_shared`], a copy otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take_view(&mut self, n: usize) -> Result<Bytes, WireError> {
        match self.backing {
            Some(backing) => {
                if self.remaining() < n {
                    return Err(WireError::UnexpectedEof);
                }
                let view = backing.slice(self.pos..self.pos + n);
                self.pos += n;
                Ok(view)
            }
            None => Ok(Bytes::copy_from_slice(self.take(n)?)),
        }
    }
}

/// Serializes a value into a canonical byte string.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Exact length in bytes of [`Encode::encode`]'s output, so callers
    /// can preallocate once.
    ///
    /// The default does a scratch encode; implementations should
    /// override it with an O(1) (or at worst single-pass) computation.
    fn encoded_len(&self) -> usize {
        let mut scratch = Vec::new();
        self.encode(&mut scratch);
        scratch.len()
    }
}

/// Deserializes a value from its canonical byte string.
pub trait Decode: Sized {
    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformation found.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value to a fresh buffer, preallocated to the exact size in
/// one shot via [`Encode::encoded_len`].
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let expected = value.encoded_len();
    let mut out = Vec::with_capacity(expected);
    value.encode(&mut out);
    debug_assert_eq!(out.len(), expected, "encoded_len disagrees with encode output");
    out
}

/// Encodes a value into a pool-recycled buffer (see [`BufferPool`]).
///
/// The returned [`Bytes`] gives the buffer back to `pool` when its last
/// clone drops, so steady-state encode paths stop allocating.
pub fn to_pooled_bytes<T: Encode + ?Sized>(value: &T, pool: &BufferPool) -> Bytes {
    let mut out = pool.take(value.encoded_len());
    value.encode(&mut out);
    pool.wrap(out)
}

/// Decodes exactly one value, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed or over-long input.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

/// Decodes exactly one value out of a shared buffer, rejecting trailing
/// bytes. Byte-string fields inside the value are zero-copy views of
/// `bytes` rather than fresh allocations (see [`Reader::for_shared`]).
///
/// # Errors
///
/// Returns a [`WireError`] on malformed or over-long input.
pub fn from_bytes_shared<T: Decode>(bytes: &Bytes) -> Result<T, WireError> {
    let mut r = Reader::for_shared(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

macro_rules! impl_int {
    ($($ty:ty),*) => {
        $(
            impl Encode for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }

                fn encoded_len(&self) -> usize {
                    std::mem::size_of::<$ty>()
                }
            }
            impl Decode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok(<$ty>::from_le_bytes(r.take_array()?))
                }
            }
        )*
    };
}

impl_int!(u8, u16, u32, u64, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(WireError::InvalidDiscriminant(d)),
        }
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError::InvalidValue("usize overflow"))
    }
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    #[expect(clippy::expect_used, reason = "the wire format caps every value at u32 length; encoding more is a caller bug")]
    let len = u32::try_from(len).expect("value length fits in u32");
    len.encode(out);
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let len = u32::decode(r)?;
    if len > MAX_LEN {
        return Err(WireError::LengthOverflow(len));
    }
    Ok(len as usize)
}

// lint:allow(codec): `[u8]` is unsized, so it cannot implement
// `Decode`; the decode direction lives on `Vec<u8>` and `Bytes`.
impl Encode for [u8] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self);
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(r)?;
        Ok(r.take(len)?.to_vec())
    }
}

impl Encode for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for Bytes {
    /// Decodes a length-prefixed byte string. Zero-copy (a shared view
    /// of the input buffer) when decoding via [`Reader::for_shared`].
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(r)?;
        r.take_view(len)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = Vec::<u8>::decode(r)?;
        String::from_utf8(bytes).map_err(|_| WireError::InvalidValue("non-UTF-8 string"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            None => 1,
            Some(v) => 1 + v.encoded_len(),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            d => Err(WireError::InvalidDiscriminant(d)),
        }
    }
}

/// Encodes a slice of encodable values with a length prefix.
///
/// `Vec<u8>` has a specialized byte-string encoding; use this for all
/// other element types.
pub fn encode_seq<T: Encode>(items: &[T], out: &mut Vec<u8>) {
    encode_len(items.len(), out);
    for item in items {
        item.encode(out);
    }
}

/// Exact length of [`encode_seq`]'s output for `items`.
pub fn seq_encoded_len<T: Encode>(items: &[T]) -> usize {
    4 + items.iter().map(Encode::encoded_len).sum::<usize>()
}

/// Splices an already-canonical encoding into an output buffer.
///
/// This is the scatter-gather escape hatch for composite encoders: when
/// a field's canonical bytes are already at hand (e.g. memoized by an
/// encode-once cache), append them verbatim instead of re-serializing
/// the structured value. The caller asserts `canonical` is exactly what
/// the field's `encode` would have produced.
pub fn splice_canonical(canonical: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(canonical);
}

/// Decodes a length-prefixed sequence written by [`encode_seq`].
///
/// # Errors
///
/// Propagates element decode errors; rejects element counts that exceed
/// the remaining input (each element encodes to at least one byte).
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
    let len = decode_len(r)?;
    if len > r.remaining() {
        return Err(WireError::UnexpectedEof);
    }
    // The count is untrusted until the elements decode: reserve no more
    // memory up front than the input that is left could account for (an
    // in-memory `T` can be far larger than its shortest encoding). A
    // sequence of small encodings grows the `Vec` past this as it goes.
    let reserve = len.min(r.remaining() / std::mem::size_of::<T>().max(1));
    let mut out = Vec::with_capacity(reserve);
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Encode for Hash256 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for Hash256 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Hash256(r.take_array()?))
    }
}

impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    fn encoded_len(&self) -> usize {
        64
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes: [u8; 64] = r.take_array()?;
        Signature::from_bytes(&bytes).ok_or(WireError::InvalidValue("signature out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_crypto::ecdsa::SigningKey;
    use hlf_crypto::sha256::sha256;

    #[test]
    fn int_roundtrips() {
        assert_eq!(from_bytes::<u8>(&to_bytes(&0xabu8)).unwrap(), 0xab);
        assert_eq!(from_bytes::<u16>(&to_bytes(&0xbeefu16)).unwrap(), 0xbeef);
        assert_eq!(from_bytes::<u32>(&to_bytes(&7u32)).unwrap(), 7);
        assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_bytes::<i64>(&to_bytes(&-42i64)).unwrap(), -42);
        assert_eq!(from_bytes::<usize>(&to_bytes(&99usize)).unwrap(), 99);
    }

    #[test]
    fn bool_rejects_junk() {
        assert!(from_bytes::<bool>(&[1]).unwrap());
        assert!(!from_bytes::<bool>(&[0]).unwrap());
        assert_eq!(
            from_bytes::<bool>(&[2]),
            Err(WireError::InvalidDiscriminant(2))
        );
    }

    #[test]
    fn byte_vec_roundtrip_and_limits() {
        let v = vec![1u8, 2, 3];
        assert_eq!(from_bytes::<Vec<u8>>(&to_bytes(&v)).unwrap(), v);
        // A length prefix beyond MAX_LEN is rejected before allocating.
        let mut evil = Vec::new();
        (MAX_LEN + 1).encode(&mut evil);
        assert_eq!(
            from_bytes::<Vec<u8>>(&evil),
            Err(WireError::LengthOverflow(MAX_LEN + 1))
        );
        // A truthful-looking prefix with missing payload is EOF.
        let mut truncated = Vec::new();
        8u32.encode(&mut truncated);
        truncated.extend_from_slice(&[1, 2, 3]);
        assert_eq!(from_bytes::<Vec<u8>>(&truncated), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn string_utf8_enforced() {
        let s = "consensus".to_string();
        assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
        let mut bad = Vec::new();
        vec![0xffu8, 0xfe].encode(&mut bad);
        assert_eq!(
            from_bytes::<String>(&bad),
            Err(WireError::InvalidValue("non-UTF-8 string"))
        );
    }

    #[test]
    fn option_roundtrip() {
        assert_eq!(
            from_bytes::<Option<u64>>(&to_bytes(&Some(9u64))).unwrap(),
            Some(9)
        );
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&None::<u64>)).unwrap(), None);
        assert_eq!(
            from_bytes::<Option<u64>>(&[7]),
            Err(WireError::InvalidDiscriminant(7))
        );
    }

    #[test]
    fn seq_roundtrip_and_count_bomb() {
        let items = vec![10u64, 20, 30];
        let mut out = Vec::new();
        encode_seq(&items, &mut out);
        let mut r = Reader::new(&out);
        assert_eq!(decode_seq::<u64>(&mut r).unwrap(), items);
        assert_eq!(r.remaining(), 0);

        // A count prefix that promises more elements than bytes remain
        // must fail fast rather than attempt a huge reservation.
        let mut bomb = Vec::new();
        1_000_000u32.encode(&mut bomb);
        let mut r = Reader::new(&bomb);
        assert_eq!(decode_seq::<u64>(&mut r), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn hash_and_signature_roundtrip() {
        let h = sha256(b"wire");
        assert_eq!(from_bytes::<Hash256>(&to_bytes(&h)).unwrap(), h);

        let key = SigningKey::from_seed(b"wire");
        let sig = key.sign(b"msg");
        assert_eq!(from_bytes::<Signature>(&to_bytes(&sig)).unwrap(), sig);
        assert_eq!(
            from_bytes::<Signature>(&[0u8; 64]),
            Err(WireError::InvalidValue("signature out of range"))
        );
    }

    #[test]
    fn tuple_and_bytes_type() {
        let pair = (7u64, Bytes::from_static(b"abc"));
        let encoded = to_bytes(&pair);
        let decoded: (u64, Bytes) = from_bytes(&encoded).unwrap();
        assert_eq!(decoded, pair);
    }

    #[test]
    fn shared_decode_is_zero_copy() {
        let pair = (7u64, Bytes::from_static(b"payload bytes"));
        let encoded = Bytes::from(to_bytes(&pair));
        let decoded: (u64, Bytes) = from_bytes_shared(&encoded).unwrap();
        assert_eq!(decoded, pair);
        // The decoded payload is a view of the input buffer, not a copy.
        assert!(decoded.1.shares_storage_with(&encoded.slice(12..12 + 13)));
    }

    #[test]
    fn shared_decode_rejects_truncation_and_bombs() {
        // Truncated payload inside a shared buffer is EOF, not a panic.
        let mut truncated = Vec::new();
        8u32.encode(&mut truncated);
        truncated.extend_from_slice(&[1, 2, 3]);
        let shared = Bytes::from(truncated);
        assert_eq!(from_bytes_shared::<Bytes>(&shared), Err(WireError::UnexpectedEof));

        // A MAX_LEN-busting prefix is rejected before any view is taken.
        let mut evil = Vec::new();
        (MAX_LEN + 1).encode(&mut evil);
        let shared = Bytes::from(evil);
        assert_eq!(
            from_bytes_shared::<Bytes>(&shared),
            Err(WireError::LengthOverflow(MAX_LEN + 1))
        );
    }

    #[test]
    fn encoded_len_matches_encode_for_builtins() {
        assert_eq!(7u8.encoded_len(), to_bytes(&7u8).len());
        assert_eq!(7u64.encoded_len(), to_bytes(&7u64).len());
        assert_eq!(true.encoded_len(), 1);
        let v = vec![1u8, 2, 3];
        assert_eq!(v.encoded_len(), to_bytes(&v).len());
        let s = "channel".to_string();
        assert_eq!(s.encoded_len(), to_bytes(&s).len());
        let opt = Some(9u64);
        assert_eq!(opt.encoded_len(), to_bytes(&opt).len());
        let b = Bytes::from_static(b"xyz");
        assert_eq!(b.encoded_len(), to_bytes(&b).len());
        let items = vec![1u64, 2, 3];
        let mut out = Vec::new();
        encode_seq(&items, &mut out);
        assert_eq!(seq_encoded_len(&items), out.len());
    }

    #[test]
    fn pooled_encode_recycles_buffers() {
        let pool = BufferPool::new(8, 1 << 20);
        let value = (42u64, Bytes::from_static(b"pooled"));
        let first = to_pooled_bytes(&value, &pool);
        assert_eq!(from_bytes_shared::<(u64, Bytes)>(&first).unwrap(), value);
        drop(first);
        assert_eq!(pool.idle(), 1);
        let _second = to_pooled_bytes(&value, &pool);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn error_display_is_meaningful() {
        assert_eq!(WireError::UnexpectedEof.to_string(), "unexpected end of input");
        assert!(WireError::LengthOverflow(9).to_string().contains('9'));
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::{for_each_case, SimRng};

        const CASES: u64 = 64;

        #[test]
        fn arbitrary_bytes_roundtrip() {
            for_each_case(0x317e_0001, CASES, |rng| {
                let v = rng.bytes(0..2048);
                assert_eq!(from_bytes::<Vec<u8>>(&to_bytes(&v)).unwrap(), v);
            });
        }

        #[test]
        fn arbitrary_u64_seq_roundtrip() {
            for_each_case(0x317e_0002, CASES, |rng| {
                let v = rng.vec(0..256, SimRng::next_u64);
                let mut out = Vec::new();
                encode_seq(&v, &mut out);
                let mut r = Reader::new(&out);
                assert_eq!(decode_seq::<u64>(&mut r).unwrap(), v);
                assert_eq!(r.remaining(), 0);
            });
        }

        #[test]
        fn decoder_never_panics_on_garbage() {
            for_each_case(0x317e_0003, CASES, |rng| {
                // Whatever the bytes, decoding returns Ok or Err, never panics.
                let v = rng.bytes(0..512);
                let _ = from_bytes::<Vec<u8>>(&v);
                let _ = from_bytes::<String>(&v);
                let _ = from_bytes::<Option<u64>>(&v);
                let _ = from_bytes::<Hash256>(&v);
                let _ = from_bytes::<Signature>(&v);
            });
        }

        #[test]
        fn encoding_is_injective_for_pairs() {
            for_each_case(0x317e_0004, CASES, |rng| {
                let (a, b) = (rng.next_u64(), rng.next_u64());
                // Half the cases compare a pair with itself, so both
                // sides of the equivalence are exercised.
                let fresh = (rng.next_u64(), rng.next_u64());
                let (c, d) = if rng.next_range(2) == 0 { (a, b) } else { fresh };
                assert_eq!(to_bytes(&(a, b)) == to_bytes(&(c, d)), (a, b) == (c, d));
            });
        }

        #[test]
        fn bytes_view_roundtrip_at_arbitrary_offsets() {
            for_each_case(0x317e_0005, CASES, |rng| {
                let (prefix, suffix) = (rng.bytes(0..64), rng.bytes(0..64));
                let payload = rng.bytes(0..1024);
                // Embed an encoded value at an arbitrary offset of a larger
                // shared buffer and decode out of a sliced view of it.
                let mut full = prefix.clone();
                full.extend_from_slice(&to_bytes(&payload));
                full.extend_from_slice(&suffix);
                let shared = Bytes::from(full);
                let view = shared.slice(prefix.len()..shared.len() - suffix.len());
                let decoded = from_bytes_shared::<Bytes>(&view).unwrap();
                assert_eq!(decoded.as_slice(), payload.as_slice());
                // Zero-copy: non-empty payloads share the outer buffer.
                if !payload.is_empty() {
                    let expect_off = prefix.len() + 4;
                    assert!(decoded
                        .shares_storage_with(&shared.slice(expect_off..expect_off + payload.len())));
                }
            });
        }

        #[test]
        fn arbitrary_splits_view_the_same_bytes() {
            for_each_case(0x317e_0006, CASES, |rng| {
                let data = rng.bytes(1..512);
                let shared = Bytes::from(data.clone());
                let (mut a, mut b) = (rng.next_in(0..data.len()), rng.next_in(0..data.len()));
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                assert_eq!(shared.slice(a..b).as_slice(), &data[a..b]);
                // Re-slicing a view composes offsets correctly.
                let outer = shared.slice(a..);
                assert_eq!(outer.slice(..b - a).as_slice(), &data[a..b]);
            });
        }

        #[test]
        fn truncated_views_are_rejected_not_panicked() {
            for_each_case(0x317e_0007, CASES, |rng| {
                let shared = Bytes::from(to_bytes(&rng.bytes(0..512)));
                let truncated = shared.slice(..rng.next_in(0..shared.len()));
                assert!(from_bytes_shared::<Bytes>(&truncated).is_err());
            });
        }

        #[test]
        fn length_bombs_rejected_on_sliced_buffers() {
            for_each_case(0x317e_0008, CASES, |rng| {
                // A length prefix beyond MAX_LEN inside a sliced shared
                // buffer is rejected before allocating or taking a view.
                let prefix = rng.bytes(0..32);
                let bomb_len = MAX_LEN.saturating_add((rng.next_u64() as u32).max(1));
                let mut full = prefix.clone();
                bomb_len.encode(&mut full);
                let shared = Bytes::from(full);
                let view = shared.slice(prefix.len()..);
                assert_eq!(
                    from_bytes_shared::<Bytes>(&view),
                    Err(WireError::LengthOverflow(bomb_len))
                );
            });
        }
    }
}
