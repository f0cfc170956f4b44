//! Lock-free ring-buffer flight recorder with anomaly dumps.
//!
//! Every node keeps a bounded in-memory ring of the most recent
//! protocol events ([`FlightEvent`]). Recording is wait-free and
//! allocation-free: a slot is six `AtomicU64` fields claimed with one
//! `fetch_add` and published with a per-slot seqlock, so the hot path
//! (consensus steps, vote arrivals, block signing) pays a handful of
//! atomic stores regardless of contention. The ring overwrites oldest
//! entries; its purpose is not a complete log but the *recent past* —
//! when something anomalous happens (regency change, tentative
//! rollback, state transfer, collection-round eviction) the recorder
//! snapshots the ring into a [`FlightDump`] so the events leading up
//! to the anomaly survive for post-mortem analysis.
//!
//! Dumps serialise to the same stable hand-rolled JSON dialect as
//! [`crate::Snapshot`]: fixed key order, no whitespace, integers only —
//! `to_json` → `from_json` → `to_json` is byte-identical, which
//! merging per-node dumps offline relies on.

use crate::snapshot::json;
use crate::snapshot::json_string;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
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
    pub fn from_name(name: &str) -> Option<EventKind> {
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

/// A ring-buffer snapshot taken when an anomaly fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Recorder name (usually `node-N`).
    pub node: String,
    /// Why the dump was taken (e.g. `regency_change`).
    pub reason: String,
    /// Microsecond timestamp of the dump on the node's clock.
    pub at_us: u64,
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
        out.push_str(",\"reason\":");
        json_string(&mut out, &self.reason);
        out.push_str(&format!(",\"at_us\":{},\"events\":[", self.at_us));
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
        Self::from_value(&value)
    }

    pub(crate) fn from_value(value: &json::Value) -> Result<FlightDump, String> {
        let node = value
            .get("node")
            .and_then(|v| v.as_str())
            .ok_or("missing node")?
            .to_string();
        let reason = value
            .get("reason")
            .and_then(|v| v.as_str())
            .ok_or("missing reason")?
            .to_string();
        let at_us = value
            .get("at_us")
            .and_then(|v| v.as_u64())
            .ok_or("missing at_us")?;
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
        Ok(FlightDump {
            node,
            reason,
            at_us,
            events,
        })
    }
}

/// Serialises several dumps as `{"dumps":[...]}` — the on-disk format
/// of a per-node dump file.
pub fn dumps_to_json(dumps: &[FlightDump]) -> String {
    let mut out = String::from("{\"dumps\":[");
    for (i, dump) in dumps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&dump.to_json());
    }
    out.push_str("]}");
    out
}

/// Parses [`dumps_to_json`] output.
pub fn dumps_from_json(input: &str) -> Result<Vec<FlightDump>, String> {
    let value = json::parse(input)?;
    value
        .get("dumps")
        .and_then(|v| v.as_array())
        .ok_or("missing dumps")?
        .iter()
        .map(FlightDump::from_value)
        .collect()
}

/// Maximum anomaly dumps retained per recorder; older dumps are kept
/// (the first anomalies are usually the interesting ones) and later
/// ones dropped, with a counter of how many were discarded.
const MAX_DUMPS: usize = 32;

/// Token-bucket refill interval for anomaly dumps: at most one dump per
/// trigger reason per node in any such window. A trigger that can fire
/// per decide (the pipeline-stall dump under sustained backpressure)
/// would otherwise exhaust [`MAX_DUMPS`] with near-identical rings.
const DUMP_INTERVAL_US: u64 = 5_000_000;

/// Per-node lock-free flight recorder. See the module docs.
pub struct FlightRecorder {
    name: String,
    slots: Box<[Slot]>,
    head: AtomicU64,
    origin: Instant,
    dumps: Mutex<Vec<FlightDump>>,
    dropped_dumps: AtomicU64,
    /// `(reason, last dump timestamp)` token bucket — reasons are few,
    /// so a linear scan beats a map here.
    dump_gate: Mutex<Vec<(String, u64)>>,
    suppressed_dumps: AtomicU64,
}

impl FlightRecorder {
    /// Default ring capacity: enough for several seconds of protocol
    /// events on a busy node (~64 B/slot → 256 KiB).
    pub const DEFAULT_CAPACITY: usize = 4096;

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
            dumps: Mutex::new(Vec::new()),
            dropped_dumps: AtomicU64::new(0),
            dump_gate: Mutex::new(Vec::new()),
            suppressed_dumps: AtomicU64::new(0),
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
    /// simulations pass virtual time). Wait-free, allocation-free.
    #[expect(clippy::indexing_slicing, reason = "the ring size is a power of two, so `ticket & (len - 1)` is always in bounds")]
    pub fn record(&self, at_us: u64, kind: EventKind, a: u64, b: u64, c: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        // Seqlock write: mark the slot in-flight, fill it, publish the
        // 1-based sequence. A concurrent reader that observes WRITING
        // or a mismatched sequence discards the slot.
        slot.seq.store(SLOT_WRITING, Ordering::Release);
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

    /// Snapshots the ring, oldest event first. Slots mid-write or
    /// overwritten during the scan are skipped — the snapshot is a
    /// consistent sample, not a barrier.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == SLOT_EMPTY || seq == SLOT_WRITING {
                continue;
            }
            let at_us = slot.at_us.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let c = slot.c.load(Ordering::Relaxed);
            // Re-check: if the slot was reused mid-read the sequence
            // moved and the fields above may be torn — drop it.
            if slot.seq.load(Ordering::Acquire) != seq {
                continue;
            }
            let Some(kind) = EventKind::from_u64(kind) else {
                continue;
            };
            out.push((seq, FlightEvent { at_us, kind, a, b, c }));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, ev)| ev).collect()
    }

    /// Incremental drain for online consumers (the cluster auditor):
    /// returns every event recorded after `cursor` that still survives
    /// in the ring, oldest first, together with the new cursor to pass
    /// next time. Events overwritten between drains are silently lost —
    /// size the ring for the drain interval. Start with cursor `0`.
    #[expect(clippy::indexing_slicing, reason = "the ring size is a power of two, so `(seq-1) & (len-1)` is always in bounds")]
    pub fn events_since(&self, cursor: u64) -> (u64, Vec<FlightEvent>) {
        let head = self.head.load(Ordering::Acquire);
        // Sequences are 1-based (`ticket + 1`); anything older than one
        // full ring ago has certainly been overwritten.
        let start = cursor.max(head.saturating_sub(self.slots.len() as u64));
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
            if slot.seq.load(Ordering::Acquire) != seq {
                continue;
            }
            let Some(kind) = EventKind::from_u64(kind) else {
                continue;
            };
            out.push(FlightEvent { at_us, kind, a, b, c });
        }
        (head, out)
    }

    /// Returns `true` if a dump for `reason` at `at_us` passes the
    /// per-reason token bucket, consuming the token.
    fn dump_admitted(&self, at_us: u64, reason: &str) -> bool {
        let mut gate = self.dump_gate.lock().unwrap_or_else(|e| e.into_inner());
        match gate.iter_mut().find(|(r, _)| r == reason) {
            Some((_, last)) => {
                if at_us < last.saturating_add(DUMP_INTERVAL_US) {
                    self.suppressed_dumps.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                *last = at_us;
            }
            None => gate.push((reason.to_string(), at_us)),
        }
        true
    }

    fn push_dump(&self, at_us: u64, reason: &str) {
        if !self.dump_admitted(at_us, reason) {
            return;
        }
        let dump = FlightDump {
            node: self.name.clone(),
            reason: reason.to_string(),
            at_us,
            events: self.events(),
        };
        let mut dumps = self.dumps.lock().unwrap_or_else(|e| e.into_inner());
        if dumps.len() < MAX_DUMPS {
            dumps.push(dump);
        } else {
            self.dropped_dumps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshots the ring into an anomaly dump tagged `reason`. The
    /// dump is retained in-process (up to [`MAX_DUMPS`]) until
    /// collected with [`FlightRecorder::take_dumps`]. Rate-limited to
    /// one dump per `reason` per [`DUMP_INTERVAL_US`]; suppressed dumps
    /// are counted in [`FlightRecorder::suppressed_dumps`]. Uses a
    /// poison-proof lock so a panic elsewhere never loses dumps.
    pub fn anomaly(&self, reason: &str) {
        self.push_dump(self.now_us(), reason);
    }

    /// Like [`FlightRecorder::anomaly`] but with an explicit timestamp
    /// (deterministic simulations). The same timestamp drives the
    /// per-reason rate limit, so suppression is deterministic too.
    pub fn anomaly_at(&self, at_us: u64, reason: &str) {
        self.push_dump(at_us, reason);
    }

    /// Removes and returns all retained anomaly dumps.
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        std::mem::take(&mut *self.dumps.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Anomaly dumps discarded because the retention cap was hit.
    pub fn dropped_dumps(&self) -> u64 {
        self.dropped_dumps.load(Ordering::Relaxed)
    }

    /// Anomaly dumps suppressed by the per-reason rate limit.
    pub fn suppressed_dumps(&self) -> u64 {
        self.suppressed_dumps.load(Ordering::Relaxed)
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
    fn anomaly_captures_ring_and_is_taken_once() {
        let rec = FlightRecorder::with_capacity("node-3", 8);
        rec.record(1, EventKind::Propose, 5, 0, 2);
        rec.record(2, EventKind::RegencyChange, 1, 1, 0);
        rec.anomaly("regency_change");
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].node, "node-3");
        assert_eq!(dumps[0].reason, "regency_change");
        assert_eq!(dumps[0].events.len(), 2);
        assert_eq!(dumps[0].events[1].kind, EventKind::RegencyChange);
        assert!(rec.take_dumps().is_empty());
    }

    #[test]
    fn dump_retention_is_capped() {
        let rec = FlightRecorder::with_capacity("node-0", 8);
        // Space the timestamps past the rate-limit window so every
        // dump is admitted and the retention cap is what bites.
        for i in 0..(MAX_DUMPS + 5) as u64 {
            rec.anomaly_at(i * 2 * DUMP_INTERVAL_US, "loop");
        }
        assert_eq!(rec.take_dumps().len(), MAX_DUMPS);
        assert_eq!(rec.dropped_dumps(), 5);
        assert_eq!(rec.suppressed_dumps(), 0);
    }

    #[test]
    fn dumps_are_rate_limited_per_reason() {
        let rec = FlightRecorder::with_capacity("node-0", 8);
        // Burst within one window: only the first dump per reason lands.
        for i in 0..10u64 {
            rec.anomaly_at(i * 1000, "pipeline_stall");
        }
        rec.anomaly_at(5000, "rollback"); // distinct reason, own bucket
        assert_eq!(rec.take_dumps().len(), 2);
        assert_eq!(rec.suppressed_dumps(), 9);
        // A dump after the window reopens is admitted again.
        rec.anomaly_at(DUMP_INTERVAL_US, "pipeline_stall");
        assert_eq!(rec.take_dumps().len(), 1);
        assert_eq!(rec.suppressed_dumps(), 9);
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
            reason: "rollback".into(),
            at_us: 123_456,
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
    fn dumps_many_roundtrip() {
        let rec = FlightRecorder::with_capacity("node-2", 8);
        rec.record(5, EventKind::StateTransfer, 17, 0, 0);
        rec.anomaly("state_transfer");
        rec.record(9, EventKind::CollectEvict, 3, 1, 0);
        rec.anomaly("collect_evict");
        let dumps = rec.take_dumps();
        let json = dumps_to_json(&dumps);
        let parsed = dumps_from_json(&json).unwrap();
        assert_eq!(parsed, dumps);
        assert_eq!(dumps_to_json(&parsed), json);
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
    fn anomaly_dumps_survive_a_poisoned_panic() {
        // A panic while recording elsewhere must not lose dumps: the
        // dump list lock recovers from poisoning.
        let rec = Arc::new(FlightRecorder::with_capacity("node-0", 8));
        rec.record(1, EventKind::Propose, 1, 0, 0);
        let rec2 = Arc::clone(&rec);
        let _ = std::thread::spawn(move || {
            let _guard = rec2.dumps.lock().unwrap();
            panic!("induced");
        })
        .join();
        rec.anomaly("after_poison");
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "after_poison");
        assert_eq!(dumps[0].events.len(), 1);
    }

    #[test]
    fn ring_tail_survives_unwind() {
        // Events written before a panic stay in the ring: a later
        // anomaly dump still sees the lead-up, nothing is rolled back
        // by scope unwind.
        let rec = Arc::new(FlightRecorder::with_capacity("node-0", 16));
        let rec2 = Arc::clone(&rec);
        let result = std::panic::catch_unwind(move || {
            rec2.record(1, EventKind::Submit, 7, 0, 0);
            rec2.record(2, EventKind::Deliver, 7, 0, 0);
            panic!("mid-flight");
        });
        assert!(result.is_err());
        rec.anomaly_at(3, "post_panic");
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].events.len(), 2);
        assert_eq!(dumps[0].events[0].kind, EventKind::Submit);
        assert_eq!(dumps[0].events[1].kind, EventKind::Deliver);
    }
}
