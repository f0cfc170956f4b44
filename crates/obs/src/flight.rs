//! Lock-free ring-buffer flight recorder.
//!
//! Every node keeps a bounded in-memory ring of the most recent
//! protocol events ([`FlightEvent`]). Recording is wait-free and
//! allocation-free: a slot is six `AtomicU64` fields claimed with one
//! `fetch_add` and published with a per-slot seqlock, so the hot path
//! (consensus steps, vote arrivals, block signing) pays a handful of
//! atomic stores regardless of contention. The ring overwrites oldest
//! entries; its purpose is not a complete log but the *recent past*.
//! One reader, [`FlightRecorder::events_since`], drains it: the admin
//! plane serves it to `hlf_top` by cursor, and the simulator reads each
//! ring whole at run end.
//!
//! A drained ring travels as a [`FlightDump`], in the same stable
//! hand-rolled JSON dialect as [`crate::Snapshot`]: fixed key order, no
//! whitespace, integers only — `to_json` → `from_json` → `to_json` is
//! byte-identical.

use crate::snapshot::json;
use crate::snapshot::json_string;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// What happened. Stored in a slot as a `u64`; the name mapping is part
/// of the stable dump format, so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum EventKind {
    /// Client/frontend submitted a request. a=trace_id, b=client, c=seq.
    Submit = 0,
    /// Leader accepted a proposal (PROPOSE). a=consensus id, b=regency,
    /// c=batch length.
    Propose = 1,
    /// A request was included in a proposed batch. a=trace_id,
    /// b=consensus id, c=position in batch.
    TxInBatch = 2,
    /// A WRITE vote arrived. a=consensus id, b=voting node, c=lag in
    /// microseconds since the local PROPOSE.
    WriteVote = 3,
    /// WRITE quorum formed. a=consensus id, b=votes counted, c=weight.
    WriteQuorum = 4,
    /// An ACCEPT vote arrived. a=consensus id, b=voting node, c=lag µs.
    AcceptVote = 5,
    /// Instance decided. a=consensus id, b=batch length, c=decide
    /// latency µs since PROPOSE.
    Decide = 6,
    /// Tentative (pre-ACCEPT) delivery. a=consensus id.
    TentativeDeliver = 7,
    /// Tentative delivery rolled back. a=consensus id.
    Rollback = 8,
    /// Regency (leader) changed. a=new regency, b=new leader.
    RegencyChange = 9,
    /// State transfer started (a=from cid) or finished (a=last cid,
    /// b=1).
    StateTransfer = 10,
    /// Block signing started. a=block number.
    SignStart = 11,
    /// Block signed and sent. a=block number, b=sign latency µs.
    SignDone = 12,
    /// Frontend saw the first signed copy of a block. a=block number,
    /// b=sending node.
    CollectFirst = 13,
    /// Frontend reached the collection threshold. a=block number,
    /// b=copies, c=collect latency µs since first copy.
    CollectDone = 14,
    /// A collection round was evicted before completing. a=block
    /// number, b=copies seen.
    CollectEvict = 15,
    /// An envelope was delivered end-to-end. a=trace_id, b=block
    /// number, c=e2e latency µs since origin.
    Deliver = 16,
    /// Health detector suspects a peer is slow. a=peer, b=EWMA lag µs,
    /// c=median peer lag µs.
    Suspect = 17,
    /// A transport frame was sent (a=peer, b=bytes) or received
    /// (a=peer, b=bytes, c=1).
    Frame = 18,
    /// Instance decided, with the decision digest and certificate
    /// signers for the cluster auditor. a=consensus id, b=first eight
    /// bytes of the decided batch digest (little-endian), c=bitmap of
    /// the distinct signer node ids behind the decision proof.
    DecideHash = 19,
    /// A WRITE certificate formed locally. a=consensus id, b=first
    /// eight bytes of the certified digest, c=bitmap of the distinct
    /// WRITE signers.
    WriteCert = 20,
    /// Tentative (pre-ACCEPT) delivery with its value digest.
    /// a=consensus id, b=first eight bytes of the delivered digest.
    TentativeHash = 21,
    /// A slot was re-proposed by a new regent's SYNC window.
    /// a=consensus id, b=first eight bytes of the re-proposed digest,
    /// c=regency adopting the window.
    Rebind = 22,
    /// A simulated wire message crossed a link: sent (c=0) or received
    /// (c=1). a=peer actor index, b=sender-unique message id — matched
    /// send/recv pairs let the auditor stitch a Lamport order across
    /// nodes. Distinct from [`EventKind::Frame`], which carries byte
    /// counts but no matchable identity.
    FrameSeq = 23,
}

impl EventKind {
    /// Stable short name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Propose => "propose",
            EventKind::TxInBatch => "tx_in_batch",
            EventKind::WriteVote => "write_vote",
            EventKind::WriteQuorum => "write_quorum",
            EventKind::AcceptVote => "accept_vote",
            EventKind::Decide => "decide",
            EventKind::TentativeDeliver => "tentative_deliver",
            EventKind::Rollback => "rollback",
            EventKind::RegencyChange => "regency_change",
            EventKind::StateTransfer => "state_transfer",
            EventKind::SignStart => "sign_start",
            EventKind::SignDone => "sign_done",
            EventKind::CollectFirst => "collect_first",
            EventKind::CollectDone => "collect_done",
            EventKind::CollectEvict => "collect_evict",
            EventKind::Deliver => "deliver",
            EventKind::Suspect => "suspect",
            EventKind::Frame => "frame",
            EventKind::DecideHash => "decide_hash",
            EventKind::WriteCert => "write_cert",
            EventKind::TentativeHash => "tentative_hash",
            EventKind::Rebind => "rebind",
            EventKind::FrameSeq => "frame_seq",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub(crate) fn from_name(name: &str) -> Option<EventKind> {
        Some(match name {
            "submit" => EventKind::Submit,
            "propose" => EventKind::Propose,
            "tx_in_batch" => EventKind::TxInBatch,
            "write_vote" => EventKind::WriteVote,
            "write_quorum" => EventKind::WriteQuorum,
            "accept_vote" => EventKind::AcceptVote,
            "decide" => EventKind::Decide,
            "tentative_deliver" => EventKind::TentativeDeliver,
            "rollback" => EventKind::Rollback,
            "regency_change" => EventKind::RegencyChange,
            "state_transfer" => EventKind::StateTransfer,
            "sign_start" => EventKind::SignStart,
            "sign_done" => EventKind::SignDone,
            "collect_first" => EventKind::CollectFirst,
            "collect_done" => EventKind::CollectDone,
            "collect_evict" => EventKind::CollectEvict,
            "deliver" => EventKind::Deliver,
            "suspect" => EventKind::Suspect,
            "frame" => EventKind::Frame,
            "decide_hash" => EventKind::DecideHash,
            "write_cert" => EventKind::WriteCert,
            "tentative_hash" => EventKind::TentativeHash,
            "rebind" => EventKind::Rebind,
            "frame_seq" => EventKind::FrameSeq,
            _ => return None,
        })
    }

    fn from_u64(v: u64) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Submit,
            1 => EventKind::Propose,
            2 => EventKind::TxInBatch,
            3 => EventKind::WriteVote,
            4 => EventKind::WriteQuorum,
            5 => EventKind::AcceptVote,
            6 => EventKind::Decide,
            7 => EventKind::TentativeDeliver,
            8 => EventKind::Rollback,
            9 => EventKind::RegencyChange,
            10 => EventKind::StateTransfer,
            11 => EventKind::SignStart,
            12 => EventKind::SignDone,
            13 => EventKind::CollectFirst,
            14 => EventKind::CollectDone,
            15 => EventKind::CollectEvict,
            16 => EventKind::Deliver,
            17 => EventKind::Suspect,
            18 => EventKind::Frame,
            19 => EventKind::DecideHash,
            20 => EventKind::WriteCert,
            21 => EventKind::TentativeHash,
            22 => EventKind::Rebind,
            23 => EventKind::FrameSeq,
            _ => return None,
        })
    }
}

/// One recorded event: a timestamp, a kind, and three kind-specific
/// operands (see the [`EventKind`] docs for each variant's meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds on the recording node's clock (the recorder's
    /// origin for `record_now`, or whatever the caller passed).
    pub at_us: u64,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

const SLOT_EMPTY: u64 = 0;
const SLOT_WRITING: u64 = u64::MAX;

struct Slot {
    /// Seqlock: 0 = empty, MAX = being written, otherwise 1-based
    /// global sequence number of the event it holds.
    seq: AtomicU64,
    at_us: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(SLOT_EMPTY),
            at_us: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
        }
    }
}

/// The events drained from one node's ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Recorder name (usually `node-N`).
    pub node: String,
    /// Ring contents, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Stable compact JSON. Fixed key order, no whitespace; re-encoding
    /// a parsed dump is byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 64);
        out.push_str("{\"node\":");
        json_string(&mut out, &self.node);
        out.push_str(",\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_us\":{},\"kind\":\"{}\",\"a\":{},\"b\":{},\"c\":{}}}",
                ev.at_us,
                ev.kind.name(),
                ev.a,
                ev.b,
                ev.c
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses [`FlightDump::to_json`] output.
    pub fn from_json(input: &str) -> Result<FlightDump, String> {
        let value = json::parse(input)?;
        let node = value
            .get("node")
            .and_then(|v| v.as_str())
            .ok_or("missing node")?
            .to_string();
        let mut events = Vec::new();
        for ev in value
            .get("events")
            .and_then(|v| v.as_array())
            .ok_or("missing events")?
        {
            let kind_name = ev.get("kind").and_then(|v| v.as_str()).ok_or("missing kind")?;
            let kind = EventKind::from_name(kind_name)
                .ok_or_else(|| format!("unknown event kind {kind_name:?}"))?;
            events.push(FlightEvent {
                at_us: ev.get("at_us").and_then(|v| v.as_u64()).ok_or("missing at_us")?,
                kind,
                a: ev.get("a").and_then(|v| v.as_u64()).ok_or("missing a")?,
                b: ev.get("b").and_then(|v| v.as_u64()).ok_or("missing b")?,
                c: ev.get("c").and_then(|v| v.as_u64()).ok_or("missing c")?,
            });
        }
        Ok(FlightDump { node, events })
    }
}

/// Per-node lock-free flight recorder. See the module docs.
pub struct FlightRecorder {
    name: String,
    slots: Box<[Slot]>,
    head: AtomicU64,
    origin: Instant,
}

impl FlightRecorder {
    /// Default ring capacity: enough for several seconds of protocol
    /// events on a busy node (~64 B/slot → 256 KiB).
    pub(crate) const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a recorder named `name` with the default capacity.
    pub fn new(name: impl Into<String>) -> FlightRecorder {
        FlightRecorder::with_capacity(name, Self::DEFAULT_CAPACITY)
    }

    /// Creates a recorder with an explicit ring capacity (rounded up to
    /// a power of two, minimum 8).
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(8).next_power_of_two();
        let slots = (0..capacity).map(|_| Slot::new()).collect::<Vec<_>>();
        FlightRecorder {
            name: name.into(),
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            origin: Instant::now(),
        }
    }

    /// Recorder name (used as the `node` field of dumps).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Microseconds elapsed since this recorder was created — the
    /// timestamp `record_now` stamps events with.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Records an event stamped with the recorder's own clock.
    #[inline]
    pub fn record_now(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        self.record(self.now_us(), kind, a, b, c);
    }

    /// Records an event with an explicit timestamp (deterministic
    /// simulations pass virtual time). Wait-free, allocation-free. When
    /// the ring laps mid-write, the writer that finds its slot taken by
    /// another writer, or already holding a newer event, drops its event.
    #[expect(clippy::indexing_slicing, reason = "the ring size is a power of two, so `ticket & (len - 1)` is always in bounds")]
    pub fn record(&self, at_us: u64, kind: EventKind, a: u64, b: u64, c: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        // Seqlock write: claim the slot (only one writer fills it at a
        // time), fill it, publish the 1-based sequence. A concurrent
        // reader that observes WRITING or a mismatched sequence discards
        // the slot.
        // `held > ticket`: another writer is in it (SLOT_WRITING is the
        // largest value) or it already holds a newer event.
        let held = slot.seq.load(Ordering::Relaxed);
        if held > ticket
            || slot
                .seq
                .compare_exchange(held, SLOT_WRITING, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        slot.at_us.store(at_us, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The whole ring, oldest event first: [`Self::events_since`]
    /// from cursor `0`.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.events_since(0).1
    }

    /// Incremental drain for online consumers (the cluster auditor):
    /// returns every event recorded after `cursor` that still survives
    /// in the ring, oldest first, together with the new cursor to pass
    /// next time. Events overwritten between drains are silently lost —
    /// size the ring for the drain interval. Start with cursor `0`. A
    /// cursor past the head (it arrives from a remote reader) drains
    /// nothing and returns the head.
    #[expect(clippy::indexing_slicing, reason = "the ring size is a power of two, so `(seq-1) & (len-1)` is always in bounds")]
    pub fn events_since(&self, cursor: u64) -> (u64, Vec<FlightEvent>) {
        let head = self.head.load(Ordering::Acquire);
        // Sequences are 1-based (`ticket + 1`); anything older than one
        // full ring ago has certainly been overwritten.
        let start = cursor.min(head).max(head.saturating_sub(self.slots.len() as u64));
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start + 1..=head {
            let slot = &self.slots[((seq - 1) as usize) & (self.slots.len() - 1)];
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // overwritten or mid-write
            }
            let at_us = slot.at_us.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let c = slot.c.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq {
                continue;
            }
            let Some(kind) = EventKind::from_u64(kind) else {
                continue;
            };
            out.push(FlightEvent { at_us, kind, a, b, c });
        }
        (head, out)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("name", &self.name)
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_reads_back_in_order() {
        let rec = FlightRecorder::with_capacity("node-0", 16);
        for i in 0..10u64 {
            rec.record(i * 100, EventKind::Submit, i, 0, 0);
        }
        let events = rec.events();
        assert_eq!(events.len(), 10);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.a, i as u64);
            assert_eq!(ev.at_us, i as u64 * 100);
            assert_eq!(ev.kind, EventKind::Submit);
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = FlightRecorder::with_capacity("node-0", 8);
        for i in 0..20u64 {
            rec.record(i, EventKind::Decide, i, 0, 0);
        }
        let events = rec.events();
        assert_eq!(events.len(), 8);
        // The newest 8 events survive.
        let ids: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, (12..20).collect::<Vec<_>>());
        assert_eq!(rec.recorded(), 20);
    }

    #[test]
    fn events_since_drains_incrementally() {
        let rec = FlightRecorder::with_capacity("node-0", 8);
        for i in 0..5u64 {
            rec.record(i, EventKind::Submit, i, 0, 0);
        }
        let (cursor, events) = rec.events_since(0);
        assert_eq!(cursor, 5);
        assert_eq!(events.len(), 5);
        assert_eq!(events[4].a, 4);
        // Nothing new: empty drain, cursor unchanged.
        let (cursor, events) = rec.events_since(cursor);
        assert_eq!(cursor, 5);
        assert!(events.is_empty());
        // Only the delta comes back on the next drain.
        rec.record(5, EventKind::Decide, 5, 0, 0);
        let (cursor, events) = rec.events_since(cursor);
        assert_eq!(cursor, 6);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Decide);
        // A cursor past the head (a remote reader's, from before the
        // node restarted) drains nothing and resynchronises to the head.
        assert_eq!(rec.events_since(100), (6, Vec::new()));
    }

    #[test]
    fn events_since_skips_overwritten_span() {
        let rec = FlightRecorder::with_capacity("node-0", 8);
        rec.record(0, EventKind::Submit, 0, 0, 0);
        let (cursor, _) = rec.events_since(0);
        // Push two full ring turns; everything before is overwritten.
        for i in 1..=16u64 {
            rec.record(i, EventKind::Submit, i, 0, 0);
        }
        let (cursor, events) = rec.events_since(cursor);
        assert_eq!(cursor, 17);
        assert_eq!(events.len(), 8);
        let ids: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, (9..=16).collect::<Vec<_>>());
    }

    #[test]
    fn dump_json_roundtrip_is_byte_identical() {
        let dump = FlightDump {
            node: "node-1".into(),
            events: vec![
                FlightEvent {
                    at_us: 1,
                    kind: EventKind::Submit,
                    a: 7,
                    b: 104,
                    c: 3,
                },
                FlightEvent {
                    at_us: 99,
                    kind: EventKind::Rollback,
                    a: 42,
                    b: 0,
                    c: 0,
                },
            ],
        };
        let json = dump.to_json();
        let parsed = FlightDump::from_json(&json).unwrap();
        assert_eq!(parsed, dump);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn event_kind_names_roundtrip() {
        for v in 0..64u64 {
            let Some(kind) = EventKind::from_u64(v) else {
                continue;
            };
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("bogus"), None);
    }

    #[test]
    fn concurrent_writers_never_corrupt_reads() {
        let rec = Arc::new(FlightRecorder::with_capacity("node-0", 64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    // Encode the writer id in every operand so a torn
                    // read would mix operands from different writers.
                    rec.record(t, EventKind::WriteVote, t, t, t);
                    if i % 64 == 0 {
                        for ev in rec.events() {
                            assert_eq!(ev.at_us, ev.a);
                            assert_eq!(ev.a, ev.b);
                            assert_eq!(ev.b, ev.c);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 8000);
    }

    #[test]
    fn ring_tail_survives_unwind() {
        // Events written before a panic stay in the ring: a later read
        // still sees the lead-up, nothing is rolled back by scope
        // unwind.
        let rec = Arc::new(FlightRecorder::with_capacity("node-0", 16));
        let rec2 = Arc::clone(&rec);
        let result = std::panic::catch_unwind(move || {
            rec2.record(1, EventKind::Submit, 7, 0, 0);
            rec2.record(2, EventKind::Deliver, 7, 0, 0);
            panic!("mid-flight");
        });
        assert!(result.is_err());
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Submit);
        assert_eq!(events[1].kind, EventKind::Deliver);
    }
}
