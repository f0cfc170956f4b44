//! Point-to-point transport for the ordering cluster, with two
//! interchangeable backends behind one authenticated [`Endpoint`] API:
//!
//! * `hub` — the in-process channel hub used by the threaded tests
//!   and the single-process benchmarks: a plain switch. Injected loss
//!   and link cuts live in the deterministic simulator (`hlf_simnet`).
//! * `tcp` — real kernel TCP sockets for multi-process deployments
//!   (the paper's §6.2 LAN/WAN clusters run replicas as OS processes).
//!   Length-framed, Poly1305-sealed under a one-time key per frame,
//!   replay-checked, with per-peer send coalescing into
//!   `writev` and reconnect/re-key with exponential backoff.
//! * `admin` — the authenticated telemetry endpoint each node can
//!   serve beside its consensus listener. Both TCP planes run the one
//!   HELLO/ACK handshake, nonce and listener of the crate-private
//!   `session` module, separated only by the handshake's domain labels.
//!
//! Protocol code (SMR nodes, clients, the ordering frontends) is
//! backend-agnostic: it receives an [`Endpoint`] and never learns
//! whether its bytes cross a channel or a socket. The *bytes* are
//! identical either way — the TCP backend frames exactly the payload
//! the in-process hub would deliver (see `tcp` module docs).
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

mod admin;
mod hub;
mod session;
mod tcp;

pub use admin::{AdminClient, AdminServer, AdminSources, DeltaReply, HealthReport};
pub use hub::Network;
pub use tcp::{NetStats, TcpConfig, TcpNetwork};

use hlf_crypto::hmac::{hmac_sha256_multi, HmacKey};
use hlf_crypto::poly1305::poly1305;
use hlf_crypto::sha256::Hash256;
use hlf_obs::EventKind;
use hlf_obs::FlightRecorder;
use hlf_wire::{BufferPool, Bytes};
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `m`, recovering the guard if a holder panicked: the state
/// behind the transport's mutexes (send queues, socket lists) is plain
/// collections that stay consistent under unwind.
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

    /// Compact form used in flight-recorder events: replicas map to
    /// their id, clients to `id | 1 << 32`.
    pub(crate) fn flight_code(&self) -> u64 {
        match self {
            PeerId::Replica(id) => *id as u64,
            PeerId::Client(id) => *id as u64 | FLIGHT_CLIENT_BIT,
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
    /// Message failed authentication.
    BadAuthenticator(PeerId),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            TransportError::Disconnected(p) => write!(f, "peer {p} disconnected"),
            TransportError::Timeout => f.write_str("receive timed out"),
            TransportError::BadAuthenticator(p) => {
                write!(f, "bad message authenticator from {p}")
            }
        }
    }
}

impl Error for TransportError {}

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
mod frame_tag {
    /// Set on received frames (sends are currently not ring-recorded).
    pub(crate) const RECEIVED_BIT: u64 = 1;
    /// Set on frames that crossed a real TCP socket.
    pub(crate) const TCP_BIT: u64 = 2;
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
    /// Optional flight recorder: every received frame is logged as an
    /// [`EventKind::Frame`] event, so the ring shows the message
    /// arrivals around any other event. `None` costs nothing.
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
        self.backend.send(self.id, to, payload)
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
        }
    }

    /// Attaches a flight recorder; every subsequently received frame is
    /// logged as an [`EventKind::Frame`] event (`a` = sender's
    /// `PeerId::flight_code`, `b` = payload bytes, `c` =
    /// `frame_tag` bits).
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
    /// [`TransportError::UnknownPeer`] if the destination, or on the hub
    /// this endpoint itself, is not joined (or, on TCP, the destination
    /// has no configured address), and [`TransportError::Disconnected`]
    /// if the destination's endpoint was dropped.
    pub fn send(&self, to: PeerId, payload: Bytes) -> Result<(), TransportError> {
        self.backend.send(self.id, to, payload)
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

/// Pairwise session authentication, mirroring the authenticated
/// channels BFT-SMaRt establishes between replicas.
///
/// Both sides derive the same link key from their shared secret seeds
/// ([`for_link`](Authenticator::for_link)), and the TCP planes layer a
/// per-connection session key on top via
/// [`rekey`](Authenticator::rekey), so every reconnect re-keys the link.
/// Handshakes are tagged with HMAC-SHA-256 under these keys
/// ([`tag_labeled`](Authenticator::tag_labeled)).
///
/// Frames are sealed with Poly1305: [`seal_with`](Authenticator::seal_with)
/// prepends a 32-byte seal `nonce(16) ‖ tag(16)` that
/// [`open_shared`](Authenticator::open_shared) verifies. The nonce is a
/// counter of the frames this side has sealed under the key, so none
/// repeats; the frame's one-time Poly1305 key is
/// `HMAC-SHA-256(key, "hlf-frame" ‖ nonce)` (RFC 8439's AEAD key
/// construction, with HMAC in place of ChaCha20), and the tag is
/// Poly1305 of the payload under it. Clones share the counter.
#[derive(Clone, Debug)]
pub struct Authenticator {
    /// The link or session key, its pad blocks absorbed once here rather
    /// than on every frame.
    key: HmacKey,
    /// This copy's side of the connection: bit 127 of its nonces.
    side: u128,
    /// Frames sealed under the key, shared by clones: the low 64 bits of
    /// the last nonce used.
    sealed: Arc<AtomicU64>,
}

/// Bytes of a frame's seal: nonce 16 + tag 16.
pub(crate) const SEAL_LEN: usize = 32;
/// The label a frame's one-time key is derived under.
const FRAME_LABEL: &[u8] = b"hlf-frame";
/// The nonce-space bit of the side that accepted the connection (the
/// side that dialled seals with it clear), so the two directions of one
/// session never share a nonce.
const ACCEPTOR_SIDE: u128 = 1 << 127;

impl Authenticator {
    fn with_key(key: &Hash256) -> Authenticator {
        Authenticator {
            key: HmacKey::new(key.as_bytes()),
            side: 0,
            sealed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Derives the symmetric link key for the unordered pair `{a, b}`
    /// from a cluster-wide secret.
    pub fn for_link(cluster_secret: &[u8], a: PeerId, b: PeerId) -> Authenticator {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let label = format!("link:{lo}:{hi}");
        Authenticator::with_key(&hmac_sha256_multi(cluster_secret, &[label.as_bytes()]))
    }

    /// Derives a per-session authenticator from this link key and the
    /// two sides' connection nonces. A fresh connection exchanges fresh
    /// nonces, so a re-established link never reuses a session key. The
    /// result seals as the side that dialled; the accepting side takes
    /// [`accepting`](Authenticator::accepting) of it.
    pub fn rekey(&self, initiator_nonce: &[u8], acceptor_nonce: &[u8]) -> Authenticator {
        Authenticator::with_key(&self.key.mac(&[b"hlf-session", initiator_nonce, acceptor_nonce]))
    }

    /// This key sealing as the side that accepted the connection: the
    /// other half of the nonce space.
    pub(crate) fn accepting(self) -> Authenticator {
        Authenticator { side: ACCEPTOR_SIDE, ..self }
    }

    /// A domain-separated HMAC tag over `parts` (handshake messages use
    /// distinct labels so a hello can never be replayed as an ack).
    pub fn tag_labeled(&self, label: &[u8], parts: &[&[u8]]) -> [u8; 32] {
        let mut all: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
        all.push(label);
        all.extend_from_slice(parts);
        *self.key.mac(&all).as_bytes()
    }

    /// The seal `nonce ‖ tag` of `payload` under the next nonce.
    pub(crate) fn seal(&self, payload: &[u8]) -> [u8; SEAL_LEN] {
        let count = self.sealed.fetch_add(1, Ordering::Relaxed) + 1;
        let nonce = (self.side | u128::from(count)).to_le_bytes();
        let mut seal = [0u8; SEAL_LEN];
        let (nonce_part, tag_part) = seal.split_at_mut(16);
        nonce_part.copy_from_slice(&nonce);
        tag_part.copy_from_slice(&self.frame_tag(&nonce, payload));
        seal
    }

    /// Poly1305 of `payload` under the one-time key of `nonce`.
    fn frame_tag(&self, nonce: &[u8; 16], payload: &[u8]) -> [u8; 16] {
        // lint:secret-scope(one_time) — the frame's one-time key.
        let one_time = self.key.mac(&[FRAME_LABEL, nonce]);
        poly1305(one_time.as_bytes(), payload)
    }

    /// Prepends the seal to `payload`, in a buffer taken from `pool` so
    /// it recycles when the sealed message is dropped.
    pub fn seal_with(&self, payload: &[u8], pool: &BufferPool) -> Bytes {
        let seal = self.seal(payload);
        let mut out = pool.take(SEAL_LEN + payload.len());
        out.extend_from_slice(&seal);
        out.extend_from_slice(payload);
        pool.wrap(out)
    }

    /// Verifies the seal and returns the payload as a zero-copy view of
    /// `sealed` (no allocation on the receive path). Stateless: a
    /// connection that must refuse replays opens through the
    /// crate-private `Replays`.
    ///
    /// # Errors
    ///
    /// Returns `None` if the message is too short or the tag does not
    /// verify.
    pub fn open_shared(&self, sealed: &Bytes) -> Option<Bytes> {
        let (seal, payload) = sealed.split_first_chunk::<SEAL_LEN>()?;
        let (nonce, tag) = seal.split_first_chunk::<16>()?;
        constant_time_eq(tag, &self.frame_tag(nonce, payload)).then(|| sealed.slice(SEAL_LEN..))
    }
}

/// The receiving end of one connection's frames: opens each under the
/// session key and refuses a nonce from the wrong side of the session
/// or at or below the last one it accepted, so a frame replayed within
/// the session (or reflected back at its sender) never opens.
pub(crate) struct Replays {
    key: Authenticator,
    /// The highest nonce accepted so far (bit 127 the peer's side).
    last: u128,
}

impl Replays {
    /// Frames sealed by the other side of `key`'s connection.
    pub(crate) fn facing(key: Authenticator) -> Replays {
        let last = key.side ^ ACCEPTOR_SIDE;
        Replays { key, last }
    }

    /// The session key, for sealing the other direction.
    pub(crate) fn key(&self) -> &Authenticator {
        &self.key
    }

    /// The payload of `sealed`, if its seal verifies and its nonce is
    /// past the last one accepted on this side.
    pub(crate) fn open(&mut self, sealed: &Bytes) -> Option<Bytes> {
        let nonce = u128::from_le_bytes(*sealed.first_chunk::<16>()?);
        if nonce <= self.last || (nonce ^ self.last) & ACCEPTOR_SIDE != 0 {
            return None;
        }
        let payload = self.key.open_shared(sealed)?;
        self.last = nonce;
        Some(payload)
    }
}

/// Tag comparison in constant time: the differences of every byte are
/// accumulated, with no early exit.
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
    fn part_simulates_process_exit() {
        let (network, a, b) = pair();
        let b_sender = b.sender();
        network.part(b.id());
        // Deaf and mute: nothing reaches it, and nothing it still holds
        // a handle for leaves it.
        assert_eq!(
            a.send(b.id(), Bytes::from_static(b"x")),
            Err(TransportError::UnknownPeer(b.id()))
        );
        assert_eq!(
            b.send(a.id(), Bytes::from_static(b"y")),
            Err(TransportError::UnknownPeer(b.id()))
        );
        assert_eq!(
            b_sender.send(a.id(), Bytes::from_static(b"y")),
            Err(TransportError::UnknownPeer(b.id()))
        );
        assert!(a.try_recv().is_none());
        // A restart under the same id sends and receives again.
        let id = b.id();
        drop(b);
        let b = network.join(id);
        a.send(id, Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.recv().unwrap(), (a.id(), Bytes::from_static(b"x")));
        b.send(a.id(), Bytes::from_static(b"y")).unwrap();
        assert_eq!(a.recv().unwrap(), (id, Bytes::from_static(b"y")));
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
        let sealed = auth_a.seal_with(b"propose", &BufferPool::default());
        assert_eq!(auth_b.open_shared(&sealed).unwrap(), Bytes::from_static(b"propose"));

        let mut tampered = sealed.to_vec();
        *tampered.last_mut().unwrap() ^= 1;
        assert!(auth_b.open_shared(&Bytes::from(tampered)).is_none());
        assert!(auth_b.open_shared(&sealed.slice(..10)).is_none());

        // Different cluster secret cannot open.
        let rogue = Authenticator::for_link(b"other", PeerId::replica(0), PeerId::replica(1));
        assert!(rogue.open_shared(&sealed).is_none());
    }

    #[test]
    fn rekey_separates_sessions() {
        let link = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1));
        let s1 = link.rekey(b"nonce-a1", b"nonce-b1");
        let s2 = link.rekey(b"nonce-a2", b"nonce-b1");
        let sealed = s1.seal_with(b"frame", &BufferPool::default());
        assert!(s1.open_shared(&sealed).is_some());
        assert!(s2.open_shared(&sealed).is_none(), "different nonces, different key");
        assert!(link.open_shared(&sealed).is_none(), "link key does not open session frames");
        // Deterministic: same nonces derive the same session key.
        let s1_again = link.rekey(b"nonce-a1", b"nonce-b1");
        assert!(s1_again.open_shared(&sealed).is_some());
    }

    /// The pad-absorbed key tags handshakes byte for byte what a fresh
    /// HMAC over the raw key bytes gives, for link and session keys, at
    /// lengths around the hash's block boundaries.
    #[test]
    fn tags_match_hmac_over_the_raw_key_bytes() {
        use hlf_crypto::hmac::hmac_sha256;
        let (a, b) = (PeerId::replica(2), PeerId::replica(0));
        let link_key = hmac_sha256(b"secret", format!("link:{b}:{a}").as_bytes());
        let session_key = hmac_sha256(link_key.as_bytes(), b"hlf-sessionnonce-inonce-a");
        let link = Authenticator::for_link(b"secret", a, b);
        let session = link.rekey(b"nonce-i", b"nonce-a");
        let data: Vec<u8> = (0..5000u16).map(|i| (i % 251) as u8).collect();
        for (auth, key) in [(&link, link_key), (&session, session_key)] {
            for len in [0, 1, 55, 56, 63, 64, 150, 5000] {
                let payload = &data[..len];
                let labelled = [b"hlf-hello".as_slice(), payload, b"tail"].concat();
                assert_eq!(
                    auth.tag_labeled(b"hlf-hello", &[payload, b"tail"]),
                    *hmac_sha256(key.as_bytes(), &labelled).as_bytes(),
                    "labelled, length {len}"
                );
            }
        }
    }

    /// A seal is `nonce ‖ Poly1305(HMAC(key, "hlf-frame" ‖ nonce),
    /// payload)` over the raw key bytes, the nonce counting from 1 with
    /// bit 127 set on the accepting side, at lengths on both sides of
    /// the Poly1305 lane crossover.
    #[test]
    fn seals_are_poly1305_under_a_one_time_key_per_nonce() {
        use hlf_crypto::hmac::hmac_sha256;
        use hlf_crypto::poly1305::poly1305;
        let (a, b) = (PeerId::replica(2), PeerId::replica(0));
        let link_key = hmac_sha256(b"secret", format!("link:{b}:{a}").as_bytes());
        let session_key = hmac_sha256(link_key.as_bytes(), b"hlf-sessionnonce-inonce-a");
        let link = Authenticator::for_link(b"secret", a, b);
        let (initiator, acceptor) = (link.rekey(b"nonce-i", b"nonce-a"), link.rekey(b"nonce-i", b"nonce-a").accepting());
        let data: Vec<u8> = (0..5000u16).map(|i| (i % 251) as u8).collect();
        for (auth, side) in [(initiator, 0u128), (acceptor, ACCEPTOR_SIDE)] {
            for (count, len) in (1u128..).zip([0, 1, 15, 16, 255, 256, 300, 5000]) {
                let payload = &data[..len];
                let seal = auth.seal(payload);
                let nonce = (side | count).to_le_bytes();
                let one_time = hmac_sha256(session_key.as_bytes(), &[b"hlf-frame".as_slice(), &nonce].concat());
                assert_eq!(seal[..16], nonce, "length {len}");
                assert_eq!(seal[16..], poly1305(one_time.as_bytes(), payload), "length {len}");
            }
        }
    }

    /// Every single-bit flip of a sealed frame — nonce, tag or payload —
    /// and every truncation fails to open, on both sides of the lane
    /// crossover.
    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        let auth = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1)).rekey(b"i", b"a");
        let pool = BufferPool::default();
        for len in [0, 40, 600] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let sealed = auth.seal_with(&payload, &pool);
            assert_eq!(auth.open_shared(&sealed).unwrap().as_ref(), &payload[..]);
            for bit in 0..sealed.len() * 8 {
                let mut flipped = sealed.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(auth.open_shared(&Bytes::from(flipped)).is_none(), "length {len}, bit {bit}");
            }
            for cut in 0..sealed.len() {
                assert!(auth.open_shared(&sealed.slice(..cut)).is_none(), "length {len}, cut to {cut}");
            }
        }
    }

    /// Clock-free cost guard of the frame MAC: a 2.4 KB frame is tagged
    /// in the Poly1305 lanes where the processor has AVX-512 IFMA, one
    /// step per 128 bytes, once to seal it and once to open it.
    #[test]
    fn a_block_sized_frame_is_tagged_in_poly1305_lanes() {
        use hlf_crypto::poly1305::lane_steps;
        #[cfg(target_arch = "x86_64")]
        let ifma = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
        #[cfg(not(target_arch = "x86_64"))]
        let ifma = false;
        let auth = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1)).rekey(b"i", b"a");
        let before = lane_steps();
        let sealed = auth.seal_with(&[0x5a; 2_400], &BufferPool::default());
        assert_eq!(lane_steps() - before, if ifma { 19 } else { 0 }, "seal");
        assert!(auth.open_shared(&sealed).is_some());
        assert_eq!(lane_steps() - before, if ifma { 38 } else { 0 }, "seal and open");
    }

    /// 10 000 seals under one key, from the key and a clone of it, carry
    /// 10 000 distinct nonces.
    #[test]
    fn ten_thousand_seals_never_repeat_a_nonce() {
        let auth = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1)).rekey(b"i", b"a");
        let clone = auth.clone();
        let nonces: std::collections::HashSet<[u8; 16]> = (0..10_000)
            .map(|i| {
                let sealer = if i % 2 == 0 { &auth } else { &clone };
                sealer.seal(b"frame")[..16].try_into().unwrap()
            })
            .collect();
        assert_eq!(nonces.len(), 10_000);
    }

    /// A receiver takes nonces in rising order from the other side only:
    /// a replay, an older frame and a frame sealed by its own side (a
    /// reflection) are refused, and refusing one does not move it.
    #[test]
    fn replays_refuse_old_repeated_and_reflected_nonces() {
        let session = Authenticator::for_link(b"secret", PeerId::replica(0), PeerId::replica(1)).rekey(b"i", b"a");
        let acceptor = session.clone().accepting();
        let pool = BufferPool::default();
        let sealed: Vec<Bytes> = (0..4u8).map(|i| session.seal_with(&[i], &pool)).collect();
        let mut at_acceptor = Replays::facing(acceptor.clone());
        assert_eq!(at_acceptor.open(&sealed[0]).unwrap().as_ref(), &[0]);
        assert!(at_acceptor.open(&sealed[0]).is_none(), "replay");
        assert_eq!(at_acceptor.open(&sealed[2]).unwrap().as_ref(), &[2]);
        assert!(at_acceptor.open(&sealed[1]).is_none(), "older than the last accepted");
        let reflected = acceptor.seal_with(b"answer", &pool);
        assert!(at_acceptor.open(&reflected).is_none(), "the acceptor's own frame");
        assert_eq!(at_acceptor.open(&sealed[3]).unwrap().as_ref(), &[3]);
        let mut at_initiator = Replays::facing(session.clone());
        assert_eq!(at_initiator.open(&reflected).unwrap().as_ref(), b"answer");
        assert!(at_initiator.open(&session.seal_with(b"own", &pool)).is_none(), "the initiator's own frame");
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
    }

    #[test]
    fn peer_id_display_and_kind() {
        assert_eq!(PeerId::replica(2).to_string(), "replica-2");
        assert_eq!(PeerId::client(3).to_string(), "client-3");
    }

    #[test]
    fn flight_code_roundtrips_for_both_kinds() {
        // The doc promises: replicas map to their id, clients to
        // `id | 1 << 32`, for every id in either space, including the
        // boundary values.
        for id in [0u32, 1, 7, u32::MAX - 1, u32::MAX] {
            for peer in [PeerId::Replica(id), PeerId::Client(id)] {
                let code = peer.flight_code();
                match peer {
                    PeerId::Replica(_) => assert_eq!(code, id as u64),
                    PeerId::Client(_) => assert_eq!(code, id as u64 | (1 << 32)),
                }
            }
        }
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
