//! The blockcutter: groups the totally ordered envelope stream into
//! blocks (paper §5.1).
//!
//! Cutting decisions must be **deterministic functions of the ordered
//! stream** — every ordering node must cut at exactly the same
//! positions, or frontends could never collect matching blocks. The
//! cutter therefore cuts on envelope count and on accumulated bytes,
//! both properties of the stream itself. (Hyperledger Fabric's
//! wall-clock `BatchTimeout` requires an *ordered* time trigger, as the
//! reference implementation routes through consensus; see DESIGN.md.)

use hlf_wire::Bytes;
use hlf_wire::{decode_seq, encode_seq, seq_encoded_len, Encode, Reader, WireError};

/// Why a block was cut — a property of the ordered stream itself, so
/// every replica attributes each cut identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutReason {
    /// The envelope count reached the configured block size.
    Size,
    /// The next envelope would have exceeded the byte cap.
    Bytes,
}

/// A cut block's envelopes plus the reason the cut happened.
///
/// Dereferences to the envelope slice, so existing `cut.len()` /
/// iteration call sites keep working.
#[derive(Clone, Debug)]
pub struct Cut {
    /// The envelopes, in stream order.
    pub envelopes: Vec<Bytes>,
    /// What triggered the cut.
    pub reason: CutReason,
}

impl Cut {
    /// Consumes the cut, returning just the envelopes.
    pub fn into_envelopes(self) -> Vec<Bytes> {
        self.envelopes
    }
}

impl std::ops::Deref for Cut {
    type Target = [Bytes];
    fn deref(&self) -> &[Bytes] {
        &self.envelopes
    }
}

impl IntoIterator for Cut {
    type Item = Bytes;
    type IntoIter = std::vec::IntoIter<Bytes>;
    fn into_iter(self) -> Self::IntoIter {
        self.envelopes.into_iter()
    }
}

/// Deterministic envelope-to-block grouping.
///
/// # Examples
///
/// ```
/// use hlf_wire::Bytes;
/// use ordering_core::blockcutter::{BlockCutter, CutReason};
///
/// let mut cutter = BlockCutter::new(3, 1024 * 1024);
/// assert!(cutter.push(Bytes::from_static(b"e1")).is_none());
/// assert!(cutter.push(Bytes::from_static(b"e2")).is_none());
/// let cut = cutter.push(Bytes::from_static(b"e3")).unwrap();
/// assert_eq!(cut.len(), 3);
/// assert_eq!(cut.reason, CutReason::Size);
/// assert_eq!(cutter.pending(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct BlockCutter {
    /// Envelopes per block (the paper evaluates 10 and 100).
    block_size: usize,
    /// Byte cap: a block is cut early rather than exceed this.
    max_block_bytes: usize,
    buffer: Vec<Bytes>,
    buffered_bytes: usize,
}

impl BlockCutter {
    /// Creates a cutter.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize, max_block_bytes: usize) -> BlockCutter {
        assert!(block_size > 0, "block size must be positive");
        BlockCutter {
            block_size,
            max_block_bytes,
            buffer: Vec::with_capacity(block_size),
            buffered_bytes: 0,
        }
    }

    /// Envelopes currently buffered.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// The envelopes-per-block target.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Adds one ordered envelope; returns a full block's envelopes when
    /// the addition completes a block, tagged with the [`CutReason`].
    ///
    /// An envelope that would push the buffer past `max_block_bytes`
    /// first cuts the buffered envelopes (if any), then starts the next
    /// block — mirroring Fabric's `PreferredMaxBytes` behaviour, and
    /// still a pure function of the stream.
    pub fn push(&mut self, envelope: Bytes) -> Option<Cut> {
        let overflow = !self.buffer.is_empty()
            && self.buffered_bytes + envelope.len() > self.max_block_bytes;
        if overflow {
            let envelopes = self.drain();
            self.buffered_bytes = envelope.len();
            self.buffer.push(envelope);
            return Some(Cut {
                envelopes,
                reason: CutReason::Bytes,
            });
        }
        self.buffered_bytes += envelope.len();
        self.buffer.push(envelope);
        if self.buffer.len() >= self.block_size {
            Some(Cut {
                envelopes: self.drain(),
                reason: CutReason::Size,
            })
        } else {
            None
        }
    }

    /// Cuts whatever is buffered (used by deterministic flush points
    /// and snapshots).
    pub fn drain(&mut self) -> Vec<Bytes> {
        self.buffered_bytes = 0;
        std::mem::take(&mut self.buffer)
    }

    /// Serializes the cutter's replicated state (checkpointing:
    /// buffered envelopes are decided-but-uncut, so they must survive
    /// recovery identically at every replica).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Restores the cutter's replicated state from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed snapshots.
    pub fn restore(&mut self, snapshot: &mut Reader<'_>) -> Result<(), WireError> {
        self.buffer = decode_seq(snapshot)?;
        self.buffered_bytes = self.buffer.iter().map(Bytes::len).sum();
        Ok(())
    }
}

// lint:allow(codec): snapshot-only encoding — the decode direction is
// `restore()`, which rebuilds `buffered_bytes` in place instead of
// constructing a fresh value.
impl Encode for BlockCutter {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.buffer, out);
    }

    fn encoded_len(&self) -> usize {
        seq_encoded_len(&self.buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(len: usize) -> Bytes {
        Bytes::from(vec![0xabu8; len])
    }

    #[test]
    fn cuts_exactly_on_count() {
        let mut cutter = BlockCutter::new(10, usize::MAX);
        for i in 0..9 {
            assert!(cutter.push(env(5)).is_none(), "envelope {i}");
        }
        let cut = cutter.push(env(5)).unwrap();
        assert_eq!(cut.len(), 10);
        assert_eq!(cut.reason, CutReason::Size);
        assert_eq!(cutter.pending(), 0);
        // And again: the cutter is reusable.
        for _ in 0..9 {
            assert!(cutter.push(env(5)).is_none());
        }
        assert_eq!(cutter.push(env(5)).unwrap().len(), 10);
    }

    #[test]
    fn byte_cap_cuts_early() {
        let mut cutter = BlockCutter::new(100, 1000);
        for _ in 0..3 {
            assert!(cutter.push(env(300)).is_none());
        }
        // The fourth 300-byte envelope would exceed 1000 bytes: the
        // first three are cut, the fourth starts the next block.
        let cut = cutter.push(env(300)).unwrap();
        assert_eq!(cut.len(), 3);
        assert_eq!(cut.reason, CutReason::Bytes);
        assert_eq!(cutter.pending(), 1);
    }

    #[test]
    fn oversized_single_envelope_still_flows() {
        let mut cutter = BlockCutter::new(10, 100);
        // A lone envelope above the cap is buffered (it cannot be
        // split); the next envelope cuts it.
        assert!(cutter.push(env(500)).is_none());
        let cut = cutter.push(env(10)).unwrap();
        assert_eq!(cut.len(), 1);
        assert_eq!(cutter.pending(), 1);
    }

    #[test]
    fn drain_returns_partial() {
        let mut cutter = BlockCutter::new(10, usize::MAX);
        cutter.push(env(1));
        cutter.push(env(2));
        let cut = cutter.drain();
        assert_eq!(cut.len(), 2);
        assert_eq!(cutter.pending(), 0);
        assert!(cutter.drain().is_empty());
    }

    #[test]
    fn snapshot_restore_preserves_pending() {
        let mut cutter = BlockCutter::new(10, usize::MAX);
        cutter.push(env(3));
        cutter.push(env(4));
        let snap = cutter.snapshot();

        let mut restored = BlockCutter::new(10, usize::MAX);
        let mut reader = Reader::new(&snap);
        restored.restore(&mut reader).unwrap();
        assert_eq!(restored.pending(), 2);
        // Byte accounting is rebuilt too: 7 more bytes fit the same way.
        assert_eq!(restored.buffered_bytes, 7);
    }

    #[test]
    fn determinism_same_stream_same_cuts() {
        let stream: Vec<Bytes> = (0..57).map(|i| env((i % 7 + 1) * 10)).collect();
        let run = |mut cutter: BlockCutter| {
            let mut cuts = Vec::new();
            for envelope in &stream {
                if let Some(cut) = cutter.push(envelope.clone()) {
                    cuts.push(cut.len());
                }
            }
            cuts
        };
        let a = run(BlockCutter::new(10, 250));
        let b = run(BlockCutter::new(10, 250));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        let _ = BlockCutter::new(0, 100);
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::for_each_case;

        const CASES: u64 = 64;

        /// No envelope is lost or duplicated by cutting.
        #[test]
        fn conservation() {
            for_each_case(0xc077_0001, CASES, |rng| {
                let sizes = rng.vec(1..100, |r| r.next_in(1..200));
                let mut cutter = BlockCutter::new(rng.next_in(1..20), 500);
                let mut out = Vec::new();
                for (i, len) in sizes.iter().enumerate() {
                    let envelope = Bytes::from(vec![i as u8; *len]);
                    if let Some(cut) = cutter.push(envelope) {
                        out.extend(cut);
                    }
                }
                out.extend(cutter.drain());
                assert_eq!(out.len(), sizes.len());
                for (i, envelope) in out.iter().enumerate() {
                    assert_eq!(envelope.len(), sizes[i]);
                    assert!(envelope.iter().all(|&b| b == i as u8));
                }
            });
        }

        /// Cut blocks never exceed the count cap.
        #[test]
        fn count_cap_respected() {
            for_each_case(0xc077_0002, CASES, |rng| {
                let (n, block_size) = (rng.next_in(1..200), rng.next_in(1..20));
                let mut cutter = BlockCutter::new(block_size, usize::MAX);
                for i in 0..n {
                    if let Some(cut) = cutter.push(Bytes::from(vec![0u8; 8])) {
                        assert_eq!(cut.len(), block_size, "at envelope {i}");
                    }
                }
                assert!(cutter.pending() < block_size);
            });
        }

        /// No cut exceeds the byte cap (except a lone oversized
        /// envelope, which cannot be split).
        #[test]
        fn byte_cap_respected_under_adaptation() {
            for_each_case(0xc077_0003, CASES, |rng| {
                let sizes = rng.vec(1..400, |r| r.next_in(1..300));
                let block_size = rng.next_in(1..25);
                let mut cutter = BlockCutter::new(block_size, 600);
                for len in sizes {
                    if let Some(cut) = cutter.push(Bytes::from(vec![0u8; len])) {
                        let bytes: usize = cut.iter().map(Bytes::len).sum();
                        assert!(bytes <= 600 || cut.len() == 1, "cut over byte cap");
                        assert!(cut.len() <= block_size, "cut over count cap");
                    }
                }
            });
        }

        /// `encoded_len` is exact, and restore round-trips the state.
        #[test]
        fn snapshot_encoded_len_exact() {
            for_each_case(0xc077_0005, CASES, |rng| {
                let lens = rng.vec(0..30, |r| r.next_in(0..100));
                let mut cutter = BlockCutter::new(31, usize::MAX);
                for len in &lens {
                    cutter.push(Bytes::from(vec![0xcd; *len]));
                }
                let mut out = Vec::new();
                cutter.encode(&mut out);
                assert_eq!(out.len(), cutter.encoded_len(), "encoded_len drifted");

                let mut restored = BlockCutter::new(31, usize::MAX);
                let mut reader = Reader::new(&out);
                restored.restore(&mut reader).unwrap();
                assert_eq!(restored.buffer, cutter.buffer);
                assert_eq!(restored.buffered_bytes, cutter.buffered_bytes);
            });
        }
    }
}
