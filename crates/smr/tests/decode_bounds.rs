//! Sequence counts off a socket are untrusted: `decode_seq` must turn
//! truncated, oversized-count and bit-flipped input into a typed error
//! without panicking, and must not reserve memory the input could not
//! account for (a 16 MiB frame whose count field says 16 Mi used to
//! reserve 16 Mi × `size_of::<Request>()` before the first element
//! failed to decode — and `SmrMsg::Requests` puts this decoder on every
//! client socket).
//!
//! One table over the three element types that cross the transport in
//! sequences: `Request` (windows, batches, forwards), `LogEntry` (state
//! transfer) and `Vote` (decision proofs, write certificates).

use hlf_consensus::messages::{Batch, DecisionProof, Request, Vote, VotePhase};
use hlf_crypto::ecdsa::SigningKey;
use hlf_smr::wire::LogEntry;
use hlf_wire::{decode_seq, encode_seq, Bytes, ClientId, Decode, Encode, NodeId, Reader, WireError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation requested since it was last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct WatchingAlloc;

// SAFETY: pure pass-through to `System`; the atomic allocates nothing,
// so `GlobalAlloc`'s no-reentrancy and layout contracts are exactly
// `System`'s own.
unsafe impl GlobalAlloc for WatchingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded
    // unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior `System` allocation via
    // this allocator, so forwarding to `System.dealloc` is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
    // is forwarded unchanged, so `System.realloc`'s contract holds.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: WatchingAlloc = WatchingAlloc;

/// Decodes `input` as a sequence of `T` and returns the result with the
/// largest allocation the attempt asked for.
fn decode_watched<T: Decode>(input: &[u8]) -> (Result<Vec<T>, WireError>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let result = decode_seq::<T>(&mut Reader::new(input));
    (result, LARGEST.load(Ordering::Relaxed))
}

fn check<T: Encode + Decode + PartialEq + Debug>(name: &str, items: Vec<T>) {
    let mut bytes = Vec::new();
    encode_seq(&items, &mut bytes);
    let (back, _) = decode_watched::<T>(&bytes);
    assert_eq!(back.as_ref(), Ok(&items), "{name}: round trip");

    // Truncated anywhere: always the same typed error.
    for cut in 0..bytes.len() {
        let (result, _) = decode_watched::<T>(&bytes[..cut]);
        assert_eq!(result, Err(WireError::UnexpectedEof), "{name}: cut at {cut}");
    }

    // A count far beyond what the input holds, over 1 MiB of bytes that
    // decode as no element: a typed error, and no reservation larger
    // than the input (the count × size_of::<T>() of old is 48 MiB and up).
    let mut bomb = vec![0xffu8; 4 + (1 << 20)];
    bomb[..4].copy_from_slice(&(1u32 << 20).to_le_bytes());
    let (result, largest) = decode_watched::<T>(&bomb);
    assert!(result.is_err(), "{name}: count bomb decoded");
    assert!(largest <= bomb.len(), "{name}: count bomb reserved {largest} B for {} B of input", bomb.len());
    // And a count the remaining bytes cannot even hold one byte each of.
    let (result, largest) = decode_watched::<T>(&bomb[..4]);
    assert_eq!(result, Err(WireError::UnexpectedEof), "{name}: bare count");
    assert_eq!(largest, 0, "{name}: bare count allocated");

    // Any single flipped bit: an `Ok` or a typed `Err`, never a panic,
    // and never more memory than a small multiple of the input (other
    // test-harness threads may allocate a little meanwhile).
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let (result, largest) = decode_watched::<T>(&flipped);
        if let Ok(decoded) = result {
            assert_ne!(decoded, items, "{name}: bit {bit} flipped, nothing changed");
        }
        assert!(largest <= 64 * 1024, "{name}: bit {bit} flipped, {largest} B reserved");
    }
}

#[test]
fn sequences_of_untrusted_input_fail_typed_and_reserve_within_the_input() {
    let requests = vec![
        Request::new(ClientId(7), 1, Bytes::from_static(b"envelope-one")),
        Request::new(ClientId(7), 2, Bytes::from_static(b"")),
        Request::new(ClientId(7), 3, Bytes::from(vec![0xabu8; 200])),
    ];
    let key = SigningKey::from_seed(b"decode-bounds");
    let batch = Batch::new(requests.clone());
    let votes: Vec<Vote> = (0..3)
        .map(|node| Vote::sign(&key, VotePhase::Accept, NodeId(node), 5, 0, batch.digest()))
        .collect();
    let entries: Vec<LogEntry> = (5..7)
        .map(|cid| LogEntry {
            cid,
            batch: batch.clone(),
            proof: DecisionProof {
                cid,
                hash: batch.digest(),
                votes: votes.clone(),
            },
        })
        .collect();

    check("Request", requests);
    check("Vote", votes);
    check("LogEntry", entries);
}
