//! Point-to-point transport for the ordering cluster, with two
//! interchangeable backends behind one authenticated [`Endpoint`] API:
//!
//! * [`hub`] — the in-process channel hub used by tests, benchmarks
//!   and the deterministic simulations. Supports fault injection
//!   (blocked links, drops, isolation).
//! * [`tcp`] — real kernel TCP sockets for multi-process deployments
//!   (the paper's §6.2 LAN/WAN clusters run replicas as OS processes).
//!   Length-framed, HMAC-sealed, with per-peer send coalescing into
//!   `writev` and reconnect/re-key with exponential backoff.
//!
//! Protocol code (SMR nodes, clients, the ordering frontends) is
//! backend-agnostic: it receives an [`Endpoint`] and never learns
//! whether its bytes cross a channel or a socket. The *bytes* are
//! identical either way — the TCP backend frames exactly the payload
//! the in-process hub would deliver (see [`tcp`] module docs).
//!
//! # Examples
//!
//! ```
//! use hlf_transport::{Network, PeerId};
//! use std::time::Duration;
//!
//! let network = Network::new();
//! let a = network.join(PeerId::replica(0));
//! let b = network.join(PeerId::replica(1));
//! a.send(PeerId::replica(1), hlf_wire::Bytes::from_static(b"hello")).unwrap();
//! let (from, msg) = b.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(from, PeerId::replica(0));
//! assert_eq!(&msg[..], b"hello");
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

pub mod admin;
pub mod hub;
pub mod tcp;

pub use admin::{AdminClient, AdminRequest, AdminServer, AdminSources, DeltaReply, HealthReport};
pub use hub::Network;
pub use tcp::{NetStats, TcpConfig, TcpNetwork};

use hlf_crypto::hmac::hmac_sha256_multi;
use hlf_obs::flight::EventKind;
use hlf_obs::FlightRecorder;
use hlf_wire::{BufferPool, Bytes};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `m`, recovering the guard if a holder panicked: the state
/// behind the transport's mutexes (send queues, socket lists, fault
/// tables) is plain collections that stay consistent under unwind.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identity of a transport participant.
///
/// The ordering service has two kinds of participants: cluster replicas
/// and frontends (SMR clients). Keeping them in one address space lets
/// the custom replier push blocks directly to frontends.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum PeerId {
    /// An ordering node (BFT-SMaRt replica).
    Replica(u32),
    /// A frontend / client.
    Client(u32),
}

/// Bit set in [`PeerId::flight_code`] for client ids, keeping the two
/// id spaces disjoint in flight-recorder events.
const FLIGHT_CLIENT_BIT: u64 = 1 << 32;

impl PeerId {
    /// Shorthand constructor for a replica id.
    pub fn replica(id: u32) -> PeerId {
        PeerId::Replica(id)
    }

    /// Shorthand constructor for a client id.
    pub fn client(id: u32) -> PeerId {
        PeerId::Client(id)
    }

    /// Returns `true` for replica ids.
    pub fn is_replica(&self) -> bool {
        matches!(self, PeerId::Replica(_))
    }

    /// Compact form used in flight-recorder events: replicas map to
    /// their id, clients to `id | 1 << 32`.
    pub fn flight_code(&self) -> u64 {
        match self {
            PeerId::Replica(id) => *id as u64,
            PeerId::Client(id) => *id as u64 | FLIGHT_CLIENT_BIT,
        }
    }

    /// Inverse of [`PeerId::flight_code`]. Returns `None` for values no
    /// `flight_code` produces, so timeline tooling can reject corrupt
    /// events instead of misattributing them.
    pub fn from_flight_code(code: u64) -> Option<PeerId> {
        let id = u32::try_from(code & !FLIGHT_CLIENT_BIT).ok()?;
        if code & FLIGHT_CLIENT_BIT != 0 {
            Some(PeerId::Client(id))
        } else {
            Some(PeerId::Replica(id))
        }
    }

    /// Parses the textual form used by CLI flags and config files:
    /// `replica:3` or `client:1001` (also accepts the
    /// [`fmt::Display`] form `replica-3` / `client-1001`).
    pub fn parse(s: &str) -> Option<PeerId> {
        let (kind, id) = s
            .split_once(':')
            .or_else(|| s.split_once('-'))?;
        let id: u32 = id.parse().ok()?;
        match kind {
            "replica" => Some(PeerId::Replica(id)),
            "client" => Some(PeerId::Client(id)),
            _ => None,
        }
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerId::Replica(id) => write!(f, "replica-{id}"),
            PeerId::Client(id) => write!(f, "client-{id}"),
        }
    }
}

/// Transport failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// Destination is not registered on the hub (or has no known
    /// address on the TCP backend).
    UnknownPeer(PeerId),
    /// Destination endpoint was dropped.
    Disconnected(PeerId),
    /// No message arrived before the timeout.
    Timeout,
    /// The hub dropped the message due to an injected fault. Callers
    /// usually treat this as success (the network "lost" the packet).
    Dropped,
    /// Message failed authentication.
    BadAuthenticator(PeerId),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            TransportError::Disconnected(p) => write!(f, "peer {p} disconnected"),
            TransportError::Timeout => f.write_str("receive timed out"),
            TransportError::Dropped => f.write_str("message dropped by fault injection"),
            TransportError::BadAuthenticator(p) => {
                write!(f, "bad message authenticator from {p}")
            }
        }
    }
}

impl Error for TransportError {}

/// Per-endpoint traffic counters.
#[derive(Debug, Default)]
pub struct TrafficStats {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    messages_received: AtomicU64,
    bytes_received: AtomicU64,
}

impl TrafficStats {
    /// Messages sent by this endpoint.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }
    /// Payload bytes sent by this endpoint.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }
    /// Messages received by this endpoint.
    pub fn messages_received(&self) -> u64 {
        self.messages_received.load(Ordering::Relaxed)
    }
    /// Payload bytes received by this endpoint.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    fn note_sent(&self, bytes: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Which backend carries an endpoint's traffic.
#[derive(Clone)]
enum Backend {
    /// In-process channel hub.
    Hub(Arc<hub::Hub>),
    /// Kernel TCP sockets.
    Tcp(Arc<tcp::TcpCore>),
}

impl Backend {
    fn send(&self, from: PeerId, to: PeerId, payload: Bytes) -> Result<(), TransportError> {
        match self {
            Backend::Hub(hub) => hub.send(from, to, payload),
            Backend::Tcp(core) => core.send(to, payload),
        }
    }

    fn pool(&self) -> &BufferPool {
        match self {
            Backend::Hub(hub) => &hub.pool,
            Backend::Tcp(core) => core.pool(),
        }
    }

    /// Transport tag recorded in flight-recorder [`EventKind::Frame`]
    /// events (`c` bit 1): 0 = in-process, 1 = TCP.
    fn flight_transport_bit(&self) -> u64 {
        match self {
            Backend::Hub(_) => 0,
            Backend::Tcp(_) => frame_tag::TCP_BIT,
        }
    }
}

/// Bit layout of the `c` field in transport [`EventKind::Frame`]
/// events: bit 0 = direction (1 = received), bit 1 = backend
/// (1 = TCP socket, 0 = in-process hub). `hlf-audit` timeline
/// stitching keys on `(kind, a, b)` and ignores unknown `c` bits, so
/// both backends produce stitchable event streams.
pub mod frame_tag {
    /// Set on received frames (sends are currently not ring-recorded).
    pub const RECEIVED_BIT: u64 = 1;
    /// Set on frames that crossed a real TCP socket.
    pub const TCP_BIT: u64 = 2;
}

/// One participant's handle on the network: the single consumer of its
/// inbound message stream, plus the send side.
///
/// Built by [`Network::join`] (in-process) or
/// [`TcpNetwork::endpoint`] (sockets); protocol code treats both
/// identically.
pub struct Endpoint {
    id: PeerId,
    backend: Backend,
    incoming: Receiver<(PeerId, Bytes)>,
    stats: Arc<TrafficStats>,
    /// Optional flight recorder: every received frame is logged as an
    /// [`EventKind::Frame`] event so anomaly dumps show the message
    /// arrivals leading up to the anomaly. `None` costs nothing.
    flight: Option<Arc<FlightRecorder>>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Endpoint({})", self.id)
    }
}

/// A cloneable, send-only handle derived from an [`Endpoint`].
///
/// Receiving stays single-consumer on the endpoint; senders can be
/// handed to worker threads (the ordering service's signing pool sends
/// finished blocks straight to frontends from its workers).
#[derive(Clone)]
pub struct SenderHandle {
    id: PeerId,
    backend: Backend,
    stats: Arc<TrafficStats>,
}

impl fmt::Debug for SenderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SenderHandle({})", self.id)
    }
}

impl SenderHandle {
    /// The originating endpoint's identity.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The backend-wide send-buffer pool (see [`Endpoint::pool`]).
    pub fn pool(&self) -> &BufferPool {
        self.backend.pool()
    }

    /// Sends `payload` to `to` (same semantics as [`Endpoint::send`]).
    ///
    /// # Errors
    ///
    /// See [`Endpoint::send`].
    pub fn send(&self, to: PeerId, payload: Bytes) -> Result<(), TransportError> {
        let len = payload.len();
        self.backend.send(self.id, to, payload)?;
        self.stats.note_sent(len);
        Ok(())
    }
}

impl Endpoint {
    pub(crate) fn new(
        id: PeerId,
        backend: Backend,
        incoming: Receiver<(PeerId, Bytes)>,
    ) -> Endpoint {
        Endpoint {
            id,
            backend,
            incoming,
            stats: Arc::new(TrafficStats::default()),
            flight: None,
        }
    }

    /// This endpoint's identity.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The backend-wide send-buffer pool. Encode outgoing messages
    /// through it (e.g. [`hlf_wire::to_pooled_bytes`]) so their buffers
    /// recycle once delivered.
    pub fn pool(&self) -> &BufferPool {
        self.backend.pool()
    }

    /// A cloneable send-only handle for worker threads.
    pub fn sender(&self) -> SenderHandle {
        SenderHandle {
            id: self.id,
            backend: self.backend.clone(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Shared traffic counters (clone the `Arc` to watch from outside).
    pub fn stats(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.stats)
    }

    /// Attaches a flight recorder; every subsequently received frame is
    /// logged as an [`EventKind::Frame`] event (`a` = sender's
    /// [`PeerId::flight_code`], `b` = payload bytes, `c` =
    /// [`frame_tag`] bits).
    pub fn attach_flight(&mut self, flight: Arc<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// Sends `payload` to `to`.
    ///
    /// On the in-process hub the message lands in `to`'s mailbox before
    /// the call returns. On TCP it is queued on the per-peer link and
    /// coalesced into the next `writev`; delivery is asynchronous and
    /// a dead peer surfaces as silence, not an error (the BFT layers
    /// tolerate loss).
    ///
    /// # Errors
    ///
    /// [`TransportError::UnknownPeer`] if the destination never joined
    /// (hub) or has no configured address (TCP),
    /// [`TransportError::Disconnected`] if its endpoint was dropped, and
    /// [`TransportError::Dropped`] if fault injection consumed the
    /// message.
    pub fn send(&self, to: PeerId, payload: Bytes) -> Result<(), TransportError> {
        let len = payload.len();
        self.backend.send(self.id, to, payload)?;
        self.stats.note_sent(len);
        Ok(())
    }

    /// Sends `payload` to every peer in `recipients`, ignoring
    /// individual delivery failures (the BFT layers tolerate loss).
    pub fn multicast(&self, recipients: &[PeerId], payload: &Bytes) {
        for &to in recipients {
            let _ = self.send(to, payload.clone());
        }
    }

    /// Receives the next message, blocking indefinitely.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if the hub is gone.
    pub fn recv(&self) -> Result<(PeerId, Bytes), TransportError> {
        let (from, payload) = self
            .incoming
            .recv()
            .map_err(|_| TransportError::Disconnected(self.id))?;
        self.note_received(from, &payload);
        Ok((from, payload))
    }

    /// Receives with a timeout.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if nothing arrives in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(PeerId, Bytes), TransportError> {
        match self.incoming.recv_timeout(timeout) {
            Ok((from, payload)) => {
                self.note_received(from, &payload);
                Ok((from, payload))
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected(self.id)),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(PeerId, Bytes)> {
        match self.incoming.try_recv() {
            Ok((from, payload)) => {
                self.note_received(from, &payload);
                Some((from, payload))
            }
            Err(_) => None,
        }
    }

    fn note_received(&self, from: PeerId, payload: &Bytes) {
        self.stats.messages_received.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_received
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if let Some(flight) = &self.flight {
            flight.record_now(
                EventKind::Frame,
                from.flight_code(),
                payload.len() as u64,
                frame_tag::RECEIVED_BIT | self.backend.flight_transport_bit(),
            );
        }
    }
}

/// Pairwise HMAC session authentication, mirroring the authenticated
/// channels BFT-SMaRt establishes between replicas.
///
/// Both sides derive the same link key from their shared secret seeds;
/// [`seal`](Authenticator::seal) prepends a 32-byte tag that
/// [`open`](Authenticator::open) verifies. The TCP backend layers a
/// per-connection session key on top via
/// [`rekey`](Authenticator::rekey), so every reconnect re-keys the
/// link.
#[derive(Clone, Debug)]
pub struct Authenticator {
    key: [u8; 32],
}

impl Authenticator {
    /// Derives the symmetric link key for the unordered pair `{a, b}`
    /// from a cluster-wide secret.
    pub fn for_link(cluster_secret: &[u8], a: PeerId, b: PeerId) -> Authenticator {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let label = format!("link:{lo}:{hi}");
        let key = hmac_sha256_multi(cluster_secret, &[label.as_bytes()]);
        Authenticator {
            key: *key.as_bytes(),
        }
    }

    /// Derives a per-session authenticator from this link key and the
    /// two sides' connection nonces. A fresh connection exchanges fresh
    /// nonces, so a re-established link never reuses a session key.
    pub fn rekey(&self, initiator_nonce: &[u8], acceptor_nonce: &[u8]) -> Authenticator {
        let key = hmac_sha256_multi(
            &self.key,
            &[b"hlf-session", initiator_nonce, acceptor_nonce],
        );
        Authenticator {
            key: *key.as_bytes(),
        }
    }

    /// The 32-byte authentication tag for `payload` under this key.
    pub fn tag(&self, payload: &[u8]) -> [u8; 32] {
        *hmac_sha256_multi(&self.key, &[payload]).as_bytes()
    }

    /// A domain-separated tag over `parts` (handshake messages use
    /// distinct labels so a hello can never be replayed as an ack).
    pub fn tag_labeled(&self, label: &[u8], parts: &[&[u8]]) -> [u8; 32] {
        let mut all: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
        all.push(label);
        all.extend_from_slice(parts);
        *hmac_sha256_multi(&self.key, &all).as_bytes()
    }

    /// Prepends the authentication tag to `payload`.
    pub fn seal(&self, payload: &[u8]) -> Bytes {
        let tag = self.tag(payload);
        let mut out = Vec::with_capacity(32 + payload.len());
        out.extend_from_slice(&tag);
        out.extend_from_slice(payload);
        Bytes::from(out)
    }

    /// Like [`seal`](Authenticator::seal), but takes the output buffer
    /// from `pool` so it recycles when the sealed message is dropped.
    pub fn seal_with(&self, payload: &[u8], pool: &BufferPool) -> Bytes {
        let tag = self.tag(payload);
        let mut out = pool.take(32 + payload.len());
        out.extend_from_slice(&tag);
        out.extend_from_slice(payload);
        pool.wrap(out)
    }

    /// Verifies and strips the tag.
    ///
    /// # Errors
    ///
    /// Returns `None` if the message is too short or the tag does not
    /// verify.
    pub fn open(&self, sealed: &[u8]) -> Option<Bytes> {
        if sealed.len() < 32 {
            return None;
        }
        let (tag, payload) = sealed.split_at(32);
        let expected = self.tag(payload);
        if constant_time_eq(tag, &expected) {
            Some(Bytes::copy_from_slice(payload))
        } else {
            None
        }
    }

    /// Verifies the tag and returns the payload as a zero-copy view of
    /// `sealed` (no allocation on the receive path).
    ///
    /// # Errors
    ///
    /// Returns `None` if the message is too short or the tag does not
    /// verify.
    pub fn open_shared(&self, sealed: &Bytes) -> Option<Bytes> {
        let (tag, payload) = sealed.split_first_chunk::<32>()?;
        let expected = self.tag(payload);
        if constant_time_eq(tag, &expected) {
            Some(sealed.slice(32..))
        } else {
            None
        }
    }
}

/// Constant-time-ish tag comparison: accumulate differences.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn pair() -> (Network, Endpoint, Endpoint) {
        let network = Network::new();
        let a = network.join(PeerId::replica(0));
        let b = network.join(PeerId::replica(1));
        (network, a, b)
    }

    #[test]
    fn pooled_send_buffers_recycle_through_the_hub() {
        let (network, a, b) = pair();
        let pool = a.pool();
        assert_eq!(network.pool().stats().recycled, 0);
        let mut buf = pool.take(64);
        buf.extend_from_slice(b"pooled payload");
        a.send(b.id(), pool.wrap(buf)).unwrap();
        let (_, received) = b.recv().unwrap();
        assert_eq!(received.as_ref(), b"pooled payload");
        drop(received);
        // The last view just dropped: the buffer is back on the free
        // list and the next take reuses it.
        assert_eq!(a.pool().stats().recycled, 1);
        let again = b.sender().pool().take(16);
        assert!(again.capacity() >= 64);
        assert_eq!(network.pool().stats().hits, 1);
    }

    #[test]
    fn seal_with_and_open_shared_roundtrip_without_copying() {
        let auth = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1));
        let pool = hlf_wire::BufferPool::default();
        let sealed = auth.seal_with(b"payload", &pool);
        assert_eq!(sealed.len(), 32 + 7);
        let opened = auth.open_shared(&sealed).unwrap();
        assert_eq!(opened.as_ref(), b"payload");
        assert!(opened.shares_storage_with(&sealed.slice(32..)));
        // Tampering still rejected.
        let mut bad = sealed.to_vec();
        bad[0] ^= 1;
        assert!(auth.open_shared(&Bytes::from(bad)).is_none());
        assert!(auth.open_shared(&Bytes::from_static(b"short")).is_none());
        // Both buffers dropped -> the seal buffer recycles.
        drop(sealed);
        drop(opened);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn send_and_receive() {
        let (_n, a, b) = pair();
        a.send(b.id(), Bytes::from_static(b"one")).unwrap();
        a.send(b.id(), Bytes::from_static(b"two")).unwrap();
        assert_eq!(b.recv().unwrap().1, Bytes::from_static(b"one"));
        assert_eq!(b.recv().unwrap().1, Bytes::from_static(b"two"));
        assert_eq!(a.stats().messages_sent(), 2);
        assert_eq!(b.stats().messages_received(), 2);
        assert_eq!(a.stats().bytes_sent(), 6);
    }

    #[test]
    fn unknown_peer_is_reported() {
        let (_n, a, _b) = pair();
        assert_eq!(
            a.send(PeerId::client(99), Bytes::new()),
            Err(TransportError::UnknownPeer(PeerId::client(99)))
        );
    }

    #[test]
    fn duplicate_join_panics() {
        let network = Network::new();
        let _a = network.join(PeerId::replica(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            network.join(PeerId::replica(0))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn timeout_and_try_recv() {
        let (_n, _a, b) = pair();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn blocked_link_is_one_directional() {
        let (network, a, b) = pair();
        network.block_link(a.id(), b.id());
        assert_eq!(
            a.send(b.id(), Bytes::from_static(b"x")),
            Err(TransportError::Dropped)
        );
        // Reverse direction still works.
        b.send(a.id(), Bytes::from_static(b"y")).unwrap();
        assert_eq!(a.recv().unwrap().1, Bytes::from_static(b"y"));
        network.unblock_all();
        a.send(b.id(), Bytes::from_static(b"z")).unwrap();
        assert_eq!(b.recv().unwrap().1, Bytes::from_static(b"z"));
    }

    #[test]
    fn isolation_and_heal() {
        let (network, a, b) = pair();
        network.isolate(b.id());
        assert_eq!(
            a.send(b.id(), Bytes::from_static(b"x")),
            Err(TransportError::Dropped)
        );
        assert_eq!(
            b.send(a.id(), Bytes::from_static(b"x")),
            Err(TransportError::Dropped)
        );
        network.heal(b.id());
        a.send(b.id(), Bytes::from_static(b"x")).unwrap();
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn probabilistic_drops_are_deterministic() {
        let run = |seed: u64| {
            let (network, a, b) = pair();
            network.set_drop_probability(0.5, seed);
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(a.send(b.id(), Bytes::from_static(b"p")).is_ok());
            }
            outcomes
        };
        assert_eq!(run(11), run(11));
        let outcomes = run(11);
        let delivered = outcomes.iter().filter(|&&ok| ok).count();
        assert!(delivered > 10 && delivered < 54, "drop rate wildly off");
    }

    #[test]
    fn multicast_reaches_all_live_peers() {
        let network = Network::new();
        let sender = network.join(PeerId::replica(0));
        let receivers: Vec<Endpoint> =
            (1..4).map(|i| network.join(PeerId::replica(i))).collect();
        let targets: Vec<PeerId> = receivers.iter().map(|r| r.id()).collect();
        sender.multicast(&targets, &Bytes::from_static(b"block"));
        for r in &receivers {
            assert_eq!(r.recv().unwrap().1, Bytes::from_static(b"block"));
        }
    }

    #[test]
    fn part_simulates_process_exit() {
        let (network, a, b) = pair();
        network.part(b.id());
        assert_eq!(
            a.send(b.id(), Bytes::from_static(b"x")),
            Err(TransportError::UnknownPeer(b.id()))
        );
        drop(b);
    }

    #[test]
    fn cross_thread_usage() {
        let (_n, a, b) = pair();
        let handle = thread::spawn(move || {
            for i in 0..100u32 {
                a.send(PeerId::replica(1), Bytes::from(i.to_le_bytes().to_vec()))
                    .unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            got.push(u32::from_le_bytes(payload[..4].try_into().unwrap()));
        }
        handle.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn authenticator_roundtrip_and_tamper() {
        let auth_a = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1));
        let auth_b = Authenticator::for_link(b"secret", PeerId::replica(1), PeerId::replica(0));
        let sealed = auth_a.seal(b"propose");
        assert_eq!(auth_b.open(&sealed).unwrap(), Bytes::from_static(b"propose"));

        let mut tampered = sealed.to_vec();
        *tampered.last_mut().unwrap() ^= 1;
        assert!(auth_b.open(&tampered).is_none());
        assert!(auth_b.open(&sealed[..10]).is_none());

        // Different cluster secret cannot open.
        let rogue = Authenticator::for_link(b"other", PeerId::replica(0), PeerId::replica(1));
        assert!(rogue.open(&sealed).is_none());
    }

    #[test]
    fn rekey_separates_sessions() {
        let link = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1));
        let s1 = link.rekey(b"nonce-a1", b"nonce-b1");
        let s2 = link.rekey(b"nonce-a2", b"nonce-b1");
        let sealed = s1.seal(b"frame");
        assert!(s1.open(&sealed).is_some());
        assert!(s2.open(&sealed).is_none(), "different nonces, different key");
        assert!(link.open(&sealed).is_none(), "link key does not open session frames");
        // Deterministic: same nonces derive the same session key.
        let s1_again = link.rekey(b"nonce-a1", b"nonce-b1");
        assert!(s1_again.open(&sealed).is_some());
    }

    #[test]
    fn sender_handle_sends_from_other_threads() {
        let (_n, a, b) = pair();
        let sender = a.sender();
        assert_eq!(sender.id(), a.id());
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let s = sender.clone();
                thread::spawn(move || {
                    s.send(PeerId::replica(1), Bytes::from(vec![i])).unwrap();
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(b.recv_timeout(Duration::from_secs(5)).unwrap().1[0]);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        // Stats are shared with the originating endpoint.
        assert_eq!(a.stats().messages_sent(), 4);
    }

    #[test]
    fn sender_handle_respects_faults() {
        let (network, a, b) = pair();
        let sender = a.sender();
        network.block_link(a.id(), b.id());
        assert_eq!(
            sender.send(b.id(), Bytes::from_static(b"x")),
            Err(TransportError::Dropped)
        );
    }

    #[test]
    fn peer_id_display_and_kind() {
        assert_eq!(PeerId::replica(2).to_string(), "replica-2");
        assert_eq!(PeerId::client(3).to_string(), "client-3");
        assert!(PeerId::replica(0).is_replica());
        assert!(!PeerId::client(0).is_replica());
    }

    #[test]
    fn flight_code_roundtrips_for_both_kinds() {
        // The doc promises: replicas map to their id, clients to
        // `id | 1 << 32`. The inverse must recover the exact PeerId for
        // every id in either space, including the boundary values.
        for id in [0u32, 1, 7, u32::MAX - 1, u32::MAX] {
            for peer in [PeerId::Replica(id), PeerId::Client(id)] {
                let code = peer.flight_code();
                assert_eq!(PeerId::from_flight_code(code), Some(peer), "{peer}");
                match peer {
                    PeerId::Replica(_) => assert_eq!(code, id as u64),
                    PeerId::Client(_) => assert_eq!(code, id as u64 | (1 << 32)),
                }
            }
        }
        // Codes outside the two id spaces are rejected, not truncated.
        assert_eq!(PeerId::from_flight_code(1 << 33), None);
        assert_eq!(PeerId::from_flight_code(u64::MAX), None);
        // The two spaces stay disjoint.
        assert_ne!(
            PeerId::client(0).flight_code(),
            PeerId::replica(0).flight_code()
        );
    }

    #[test]
    fn peer_id_parse_accepts_cli_and_display_forms() {
        assert_eq!(PeerId::parse("replica:3"), Some(PeerId::Replica(3)));
        assert_eq!(PeerId::parse("client:1001"), Some(PeerId::Client(1001)));
        assert_eq!(PeerId::parse("replica-3"), Some(PeerId::Replica(3)));
        assert_eq!(PeerId::parse("orderer:1"), None);
        assert_eq!(PeerId::parse("replica:x"), None);
        assert_eq!(PeerId::parse("replica"), None);
    }

    #[test]
    fn attached_flight_logs_received_frames() {
        let network = Network::new();
        let a = network.join(PeerId::replica(0));
        let mut b = network.join(PeerId::replica(1));
        let flight = Arc::new(FlightRecorder::new("replica-1"));
        b.attach_flight(Arc::clone(&flight));
        a.send(PeerId::replica(1), Bytes::from_static(b"hello")).unwrap();
        let (from, _) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, PeerId::replica(0));
        let events = flight.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Frame);
        assert_eq!(events[0].a, PeerId::replica(0).flight_code());
        assert_eq!(events[0].b, 5);
        // In-process backend: received bit set, TCP bit clear.
        assert_eq!(events[0].c, frame_tag::RECEIVED_BIT);
    }
}
