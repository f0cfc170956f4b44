//! Sequence counts off a socket are untrusted: `decode_seq` must turn
//! truncated, oversized-count and bit-flipped input into a typed error
//! without panicking, and must not reserve memory the input could not
//! account for (a 16 MiB frame whose count field says 16 Mi used to
//! reserve 16 Mi × `size_of::<Request>()` before the first element
//! failed to decode — and `SmrMsg::Requests` puts this decoder on every
//! client socket).
//!
//! One table over the three element types that cross the transport in
//! sequences — `Request` (windows, batches, forwards), `LogEntry`
//! (catch-up) and `Vote` (decision proofs, write certificates) — and the
//! two message enums every replica decodes from every frame:
//! `ConsensusMsg`, every variant, and `SmrMsg`, every variant. Plus the
//! session table every checkpoint carries (a catch-up installs one that
//! `f + 1` peers sent, a restart one read off the disk).

use hlf_consensus::messages::{
    Batch, ConsensusMsg, DecisionProof, Request, SlotRebind, SlotReport, StopData, Vote, VotePhase,
};
use hlf_consensus::{Executed, Window};
use hlf_crypto::ecdsa::SigningKey;
use hlf_smr::{LogEntry, SmrMsg};
use hlf_wire::{decode_seq, encode_seq, from_bytes, to_bytes, Bytes, ClientId, Decode, Encode, NodeId, Reader, WireError};
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

    check("Request", requests.clone());
    check("Vote", votes.clone());
    check("LogEntry", entries.clone());

    let proof = |cid| DecisionProof {
        cid,
        hash: batch.digest(),
        votes: votes.clone(),
    };
    let last_write = Some((1, batch.digest()));
    let stop_data = |node| {
        let slot = SlotReport {
            cid: 6,
            last_write,
            value: Some(batch.clone()),
            write_cert: votes.clone(),
        };
        let slots = vec![slot];
        let value = Some(batch.clone());
        StopData::sign_with_slots(&key, NodeId(node), 2, 5, last_write, value, votes.clone(), slots, Some(proof(4)))
    };
    let messages = vec![
        ConsensusMsg::Propose {
            cid: 5,
            epoch: 1,
            batch: batch.clone(),
        },
        ConsensusMsg::Write(votes[0].clone()),
        ConsensusMsg::Accept(votes[1].clone()),
        ConsensusMsg::Stop { regency: 2 },
        ConsensusMsg::StopData(StopData::sign(&key, NodeId(3), 2, 5, None, None, vec![], None)),
        ConsensusMsg::Sync {
            regency: 2,
            collect: vec![stop_data(0), stop_data(1)],
            cid: 5,
            batch: batch.clone(),
            rebinds: vec![
                SlotRebind {
                    cid: 6,
                    batch: batch.clone(),
                },
                SlotRebind {
                    cid: 7,
                    batch: Batch::new(vec![]),
                },
            ],
        },
        ConsensusMsg::Forward {
            requests: requests.clone(),
        },
    ];
    check("ConsensusMsg", messages.clone());
    // Tags 7 and 8 were a value request and its reply: a frame that
    // still carries one, as it did, is a typed error, bare or inside an
    // `SmrMsg`.
    for tag in [7u8, 8] {
        let mut frame = vec![tag];
        4u64.encode(&mut frame);
        assert_eq!(from_bytes::<ConsensusMsg>(&frame), Err(WireError::InvalidDiscriminant(tag)));
        frame.insert(0, 2);
        assert_eq!(from_bytes::<SmrMsg>(&frame), Err(WireError::InvalidDiscriminant(tag)));
    }

    let frames = vec![
        SmrMsg::Requests(requests),
        SmrMsg::Reply {
            seq: 3,
            payload: Bytes::from_static(b"block"),
        },
        SmrMsg::Consensus(messages[0].clone()),
        SmrMsg::Consensus(messages[5].clone()),
        SmrMsg::StateRequest { from_cid: 5 },
        SmrMsg::StateReply {
            checkpoint: Some((4, Bytes::from_static(b"snapshot"))),
            entries,
        },
        SmrMsg::StateReply {
            checkpoint: None,
            entries: vec![],
        },
        SmrMsg::Subscribe,
    ];
    check("SmrMsg", frames);
    check_session_checkpoints();
}

/// The executed half of the sessions, as a checkpoint carries it: a
/// sequence of `(client, window)` pairs in ascending client order. The
/// table above runs on its pairs (truncation, count bombs, bit flips:
/// a window that is not canonical is a typed error); the table itself
/// adds its order check. (Run from the test above: the allocation
/// watcher is process-wide, so two tests at once would see each
/// other's allocations.)
fn check_session_checkpoints() {
    let window = |seqs: &[u64]| {
        let mut window = Window::default();
        for &seq in seqs {
            assert!(window.execute(seq));
        }
        window
    };
    let pairs = vec![
        (ClientId(3), window(&[1, 2, 3])),
        (ClientId(7), window(&[1, 5, 70, 200, 8000])),
        (ClientId(9), Window::default()),
    ];
    check("session window", pairs.clone());

    let requests = [(3, 1), (3, 2), (7, 5), (7, 1), (7, 300)]
        .map(|(client, seq)| Request::new(ClientId(client), seq, Bytes::from_static(b"")));
    let mut executed = Executed::default();
    assert!(executed.execute(&Batch::new(requests.to_vec())).is_empty());
    let bytes = to_bytes(&executed);
    assert_eq!(from_bytes::<Executed>(&bytes), Ok(executed.clone()));
    for cut in 0..bytes.len() {
        assert_eq!(from_bytes::<Executed>(&bytes[..cut]), Err(WireError::UnexpectedEof), "cut at {cut}");
    }
    // The same pairs, clients descending: not the table of any replica.
    let mut descending = Vec::new();
    let listed = [ClientId(7), ClientId(3)];
    encode_seq(&listed.map(|client| (client, executed.window(client).cloned().unwrap_or_default())), &mut descending);
    assert_eq!(from_bytes::<Executed>(&descending), Err(WireError::InvalidValue("session table order")));
}
