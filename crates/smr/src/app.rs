//! The application interface executed on top of total order.
//!
//! BFT-SMaRt delivers a stream of totally ordered batches to an
//! application object on each replica. The ordering service's
//! application is the block generator (node thread + signing pool); the
//! tests use simpler applications such as a replicated counter.

use hlf_wire::Bytes;
use hlf_consensus::messages::Batch;
use hlf_wire::ClientId;

/// Where an application output should be delivered.
///
/// BFT-SMaRt's default replier answers the invoking client;
/// the ordering service installs a *custom replier* that pushes every
/// generated block to all connected frontends (paper §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dest {
    /// One specific client.
    Client(ClientId),
    /// Every currently connected client (custom-replier broadcast).
    AllClients,
}

/// A message produced by application execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Outbound {
    /// Delivery target.
    pub(crate) dest: Dest,
    /// The request sequence number this answers (0 for unsolicited
    /// pushes such as blocks).
    pub(crate) seq: u64,
    /// Payload bytes.
    pub(crate) payload: Bytes,
}

impl Outbound {
    /// A reply to a specific client's request.
    pub fn reply(client: ClientId, seq: u64, payload: impl Into<Bytes>) -> Outbound {
        Outbound {
            dest: Dest::Client(client),
            seq,
            payload: payload.into(),
        }
    }

    /// An unsolicited push to every connected client.
    pub fn push_all(payload: impl Into<Bytes>) -> Outbound {
        Outbound {
            dest: Dest::AllClients,
            seq: 0,
            payload: payload.into(),
        }
    }
}

/// A deterministic replicated state machine.
///
/// Implementations must be deterministic: the same sequence of
/// `execute_batch` calls on two replicas must produce identical state
/// and identical outputs (up to signatures over identical bytes).
pub trait Application: Send {
    /// Executes a decided (or, under WHEAT, tentatively decided) batch.
    ///
    /// `tentative` is `true` when the batch reached only its WRITE
    /// quorum; a later [`Application::rollback`] may undo it. The
    /// returned messages are routed by the replica node.
    fn execute_batch(&mut self, cid: u64, batch: &Batch, tentative: bool) -> Vec<Outbound>;

    /// Confirms a previously tentative batch (its decision is now
    /// final). Default: nothing to do.
    fn confirm(&mut self, cid: u64) {
        let _ = cid;
    }

    /// Rolls back the tentative execution of `cid`. Applications using
    /// tentative execution must restore their pre-`cid` state.
    fn rollback(&mut self, cid: u64) -> Vec<Outbound> {
        let _ = cid;
        Vec::new()
    }

    /// Serializes the full application state for checkpointing.
    fn snapshot(&self) -> Bytes;

    /// Replaces the application state with a checkpoint snapshot.
    fn restore(&mut self, snapshot: &[u8]);

    /// Periodic hook driven by the node's tick loop (the ordering
    /// service flushes partially filled blocks here). Default: no-op.
    fn on_tick(&mut self) -> Vec<Outbound> {
        Vec::new()
    }
}

/// A trivial replicated counter used by tests and examples: each
/// request's payload length is added to the counter, and the new value
/// is returned to the invoking client.
#[derive(Debug, Default)]
pub struct CounterApp {
    value: u64,
    /// Snapshots taken before tentative executions, for rollback.
    tentative_undo: Vec<(u64, u64)>,
}

impl CounterApp {
    /// Creates a counter at zero.
    pub fn new() -> CounterApp {
        CounterApp::default()
    }

    /// Current counter value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl Application for CounterApp {
    fn execute_batch(&mut self, cid: u64, batch: &Batch, tentative: bool) -> Vec<Outbound> {
        if tentative {
            self.tentative_undo.push((cid, self.value));
        }
        let mut out = Vec::with_capacity(batch.len());
        for request in &batch.requests {
            self.value = self.value.wrapping_add(request.payload.len() as u64);
            out.push(Outbound::reply(
                request.client,
                request.seq,
                self.value.to_le_bytes().to_vec(),
            ));
        }
        out
    }

    fn confirm(&mut self, cid: u64) {
        self.tentative_undo.retain(|(c, _)| *c != cid);
    }

    fn rollback(&mut self, cid: u64) -> Vec<Outbound> {
        if let Some(pos) = self.tentative_undo.iter().position(|(c, _)| *c == cid) {
            let (_, value) = self.tentative_undo.remove(pos);
            self.value = value;
        }
        Vec::new()
    }

    fn snapshot(&self) -> Bytes {
        Bytes::copy_from_slice(&self.value.to_le_bytes())
    }

    #[expect(clippy::expect_used, reason = "a snapshot shorter than the counter was certified by consensus yet is corrupt — halting beats running with unknown state")]
    fn restore(&mut self, snapshot: &[u8]) {
        let bytes = snapshot.first_chunk::<8>().expect("valid snapshot");
        self.value = u64::from_le_bytes(*bytes);
        self.tentative_undo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_consensus::messages::Request;

    fn batch(lens: &[usize]) -> Batch {
        Batch::new(
            lens.iter()
                .enumerate()
                .map(|(i, &len)| Request::new(ClientId(3), i as u64, vec![0u8; len]))
                .collect(),
        )
    }

    #[test]
    fn counter_accumulates_and_replies() {
        let mut app = CounterApp::new();
        let out = app.execute_batch(1, &batch(&[5, 10]), false);
        assert_eq!(app.value(), 15);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dest, Dest::Client(ClientId(3)));
        assert_eq!(out[1].payload.as_ref(), 15u64.to_le_bytes());
    }

    #[test]
    fn tentative_rollback_restores_value() {
        let mut app = CounterApp::new();
        app.execute_batch(1, &batch(&[7]), false);
        assert_eq!(app.value(), 7);
        app.execute_batch(2, &batch(&[100]), true);
        assert_eq!(app.value(), 107);
        app.rollback(2);
        assert_eq!(app.value(), 7);
        // Rolling back an unknown cid is a no-op.
        app.rollback(99);
        assert_eq!(app.value(), 7);
    }

    #[test]
    fn confirm_clears_undo_entry() {
        let mut app = CounterApp::new();
        app.execute_batch(1, &batch(&[1]), true);
        app.confirm(1);
        // Rollback after confirm must not restore anything.
        app.rollback(1);
        assert_eq!(app.value(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut app = CounterApp::new();
        app.execute_batch(1, &batch(&[42]), false);
        let snap = app.snapshot();
        let mut other = CounterApp::new();
        other.restore(&snap);
        assert_eq!(other.value(), 42);
    }

    #[test]
    fn outbound_constructors() {
        let reply = Outbound::reply(ClientId(1), 9, vec![1]);
        assert_eq!(reply.seq, 9);
        let push = Outbound::push_all(vec![2]);
        assert_eq!(push.dest, Dest::AllClients);
        assert_eq!(push.seq, 0);
    }
}
