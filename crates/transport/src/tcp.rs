//! Real-socket TCP backend: the multi-process deployment path.
//!
//! # Design: `std::net` + per-peer threads, not a readiness loop
//!
//! The backend is built on blocking `std::net` sockets with one writer
//! thread per outbound link and one reader thread per inbound
//! connection, rather than a hand-rolled epoll loop. Rationale:
//!
//! * **Zero dependencies, zero `unsafe`.** An epoll readiness loop
//!   needs raw syscalls (`libc`/`mio`), which this workspace bans.
//!   `std::net` is the entire surface we use.
//! * **The cluster is small by construction.** A BFT ordering cluster
//!   is `3f + 1` replicas plus a handful of frontends — at most a few
//!   dozen links, so thread-per-link costs kilobytes of stacks, not
//!   the C10K problem epoll exists to solve.
//! * **Blocking writers make coalescing natural.** A writer thread
//!   drains its peer's entire send queue into one
//!   [`write_vectored`](std::io::Write::write_vectored) call, so under
//!   load the syscall rate falls automatically (many frames per
//!   `writev`) with no timer or Nagle tuning.
//!
//! # Wire format
//!
//! Connections are unidirectional: the **sender dials the
//! destination** (lazily, on first send), so each accepted connection
//! carries one peer's traffic toward us and replies flow over the
//! reverse link that the peer dials itself.
//!
//! Each connection opens with the HELLO/ACK handshake that
//! `session.rs` owns for both planes, under the data plane's labels
//! (`hlf-hello` / `hlf-ack`): it authenticates the dialler and gives
//! the connection a fresh session key.
//!
//! Data frames:
//!
//! ```text
//! len(4 LE) | nonce(16) | tag(16) | payload(len - 32)
//! ```
//!
//! `nonce || tag || payload` is exactly [`Authenticator::seal_with`]
//! output under the session key: the nonce counts the frames the writer
//! has sealed on this connection, and the tag is Poly1305 of the
//! payload under the one-time key `HMAC(session, "hlf-frame" || nonce)`.
//! The reader refuses a frame whose tag does not verify or whose nonce
//! is not past the last one it accepted (a replay), counts it in
//! `transport.net.auth_failures` and drops the connection; the writer
//! re-dials with fresh keys. `payload` is exactly the bytes the
//! in-process hub would deliver — one encoded `hlf_smr::SmrMsg`. Strip
//! the length prefix and the seal and the existing `Reader` paths
//! decode socket bytes unchanged (the cross-backend codec test in
//! `hlf-smr` captures socket bytes and proves it).
//!
//! # Flow control and loss
//!
//! Each link's send queue is capped (`max_queue_bytes`, default
//! 64 MiB); overflow drops the **oldest** frames and counts
//! `transport.net.queue_drops`. A dead peer therefore surfaces as
//! silence plus a growing-then-shedding queue, never as backpressure
//! into consensus — the BFT layers above already tolerate message
//! loss (that is what retransmission and view changes are for).
//! Reconnection uses exponential backoff from `initial_backoff`
//! (25 ms) doubling to `max_backoff` (2 s).

use crate::session::{self, Identity, Service, Sockets};
use crate::{lock_clean, Authenticator, Backend, Endpoint, PeerId, Replays, TransportError, SEAL_LEN};
use hlf_obs::{Counter, Gauge, Registry};
use hlf_wire::{BufferPool, Bytes};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// Per-frame header: length prefix 4 + seal 32 (nonce 16, tag 16).
const FRAME_HEADER: usize = 4 + SEAL_LEN;
/// Largest accepted frame body (seal + payload); mirrors the codec's
/// 16 MiB message cap so a corrupt length prefix cannot OOM the reader.
const MAX_FRAME: usize = hlf_wire::MAX_LEN as usize + SEAL_LEN;
/// Frames drained per writev batch (bounds the header scratch space).
const MAX_BATCH: usize = 256;
/// Reader-side bulk-read window: one `read` syscall typically yields
/// many coalesced frames, which are then carved out copy-cheap.
const READ_SCRATCH: usize = 256 << 10;
/// Condvar wait slice, so writers notice shutdown promptly.
const WAIT_SLICE: Duration = Duration::from_millis(200);

/// Configuration for a TCP endpoint (one per process, normally).
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// This endpoint's identity.
    pub id: PeerId,
    /// Address to listen on (`127.0.0.1:0` picks a free port).
    pub listen: SocketAddr,
    /// Cluster-wide secret all link keys derive from.
    pub secret: Vec<u8>,
    /// Initial address book: peers this endpoint may dial.
    pub peers: Vec<(PeerId, SocketAddr)>,
    /// First reconnect delay.
    pub initial_backoff: Duration,
    /// Reconnect delay ceiling.
    pub max_backoff: Duration,
    /// Per-link send-queue cap; overflow sheds oldest frames.
    pub max_queue_bytes: usize,
    /// Registry for `transport.net.*` metrics (a private one is
    /// created when absent).
    pub registry: Option<Arc<Registry>>,
}

impl TcpConfig {
    /// Config with the documented defaults and an empty address book.
    pub fn new(id: PeerId, listen: SocketAddr, secret: impl Into<Vec<u8>>) -> TcpConfig {
        TcpConfig {
            id,
            listen,
            secret: secret.into(),
            peers: Vec::new(),
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            max_queue_bytes: 64 << 20,
            registry: None,
        }
    }

    /// Adds a peer to the initial address book.
    pub fn with_peer(mut self, id: PeerId, addr: SocketAddr) -> TcpConfig {
        self.peers.push((id, addr));
        self
    }

    /// Registers the `transport.net.*` metrics on `registry`.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> TcpConfig {
        self.registry = Some(registry);
        self
    }
}

/// `transport.net.*` observability handles.
struct NetObs {
    bytes_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    frames_in: Arc<Counter>,
    writev_calls: Arc<Counter>,
    read_calls: Arc<Counter>,
    connects: Arc<Counter>,
    reconnects: Arc<Counter>,
    auth_failures: Arc<Counter>,
    queue_drops: Arc<Counter>,
    backoff_ms: Arc<Gauge>,
    open_links: Arc<Gauge>,
}

impl NetObs {
    fn register(registry: &Registry) -> NetObs {
        NetObs {
            bytes_out: registry.counter("transport.net.bytes_out"),
            bytes_in: registry.counter("transport.net.bytes_in"),
            frames_out: registry.counter("transport.net.frames_out"),
            frames_in: registry.counter("transport.net.frames_in"),
            writev_calls: registry.counter("transport.net.writev_calls"),
            read_calls: registry.counter("transport.net.read_calls"),
            connects: registry.counter("transport.net.connects"),
            reconnects: registry.counter("transport.net.reconnects"),
            auth_failures: registry.counter("transport.net.auth_failures"),
            queue_drops: registry.counter("transport.net.queue_drops"),
            backoff_ms: registry.gauge("transport.net.backoff_ms"),
            open_links: registry.gauge("transport.net.open_links"),
        }
    }
}

/// Point-in-time snapshot of the socket-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetStats {
    /// Payload + header bytes written to sockets.
    pub bytes_out: u64,
    /// Frame bytes read from sockets (length prefixes excluded).
    pub bytes_in: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Frames received and authenticated.
    pub frames_in: u64,
    /// `writev` syscalls issued by writer threads.
    pub writev_calls: u64,
    /// Bulk `read` syscalls issued by reader threads (frame pump only;
    /// handshakes and oversized-frame tails excluded).
    pub read_calls: u64,
    /// Successful outbound connections (incl. the first per link).
    pub connects: u64,
    /// Successful outbound connections after a link previously worked.
    pub reconnects: u64,
    /// Handshakes that failed authentication, and frames whose tag did
    /// not verify or whose nonce replayed an earlier one.
    pub auth_failures: u64,
    /// Frames shed because a link queue exceeded its byte cap.
    pub queue_drops: u64,
}

impl NetStats {
    /// Send-side coalescing ratio: frames per `writev` syscall.
    /// Greater than 1 means batching is doing its job.
    pub fn frames_per_writev(&self) -> f64 {
        if self.writev_calls == 0 {
            0.0
        } else {
            self.frames_out as f64 / self.writev_calls as f64
        }
    }
}

/// Pending frames for one outbound link.
struct LinkQueue {
    items: VecDeque<Bytes>,
    bytes: usize,
    /// Set once the writer thread for this link has been spawned.
    writer_spawned: bool,
}

/// One outbound link: queue + wakeup for its writer thread.
struct PeerLink {
    peer: PeerId,
    queue: Mutex<LinkQueue>,
    wake: Condvar,
}

impl PeerLink {
    fn new(peer: PeerId) -> PeerLink {
        PeerLink {
            peer,
            queue: Mutex::new(LinkQueue {
                items: VecDeque::new(),
                bytes: 0,
                writer_spawned: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Queues `payload`, shedding oldest frames past the cap.
    fn enqueue(&self, payload: Bytes, cap: usize, obs: &NetObs) {
        let mut q = lock_clean(&self.queue);
        q.bytes += payload.len();
        q.items.push_back(payload);
        while q.bytes > cap && q.items.len() > 1 {
            if let Some(old) = q.items.pop_front() {
                q.bytes -= old.len();
                obs.queue_drops.inc();
            }
        }
        drop(q);
        self.wake.notify_one();
    }

    /// Takes up to [`MAX_BATCH`] queued frames, waiting up to
    /// `WAIT_SLICE` for the first one. Empty result means "check
    /// shutdown and come back".
    fn drain_batch(&self, out: &mut Vec<Bytes>) {
        let mut q = lock_clean(&self.queue);
        if q.items.is_empty() {
            let (guard, _timeout) = self
                .wake
                .wait_timeout(q, WAIT_SLICE)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            q = guard;
        }
        while out.len() < MAX_BATCH {
            match q.items.pop_front() {
                Some(frame) => {
                    q.bytes -= frame.len();
                    out.push(frame);
                }
                None => break,
            }
        }
    }
}

/// Shared state behind a TCP [`Endpoint`] and all its socket threads.
pub(crate) struct TcpCore {
    me: Identity,
    pool: BufferPool,
    /// Address book: where each peer listens. Updated by `add_peer`.
    addrs: RwLock<HashMap<PeerId, SocketAddr>>,
    /// Outbound links with running (or pending) writer threads.
    links: RwLock<HashMap<PeerId, Arc<PeerLink>>>,
    incoming: Sender<(PeerId, Bytes)>,
    obs: NetObs,
    /// Live sockets and the shutdown flag, so `shutdown` can unblock
    /// reader/writer threads.
    sockets: Sockets,
    initial_backoff: Duration,
    max_backoff: Duration,
    max_queue_bytes: usize,
}

impl TcpCore {
    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Backend send: loopback short-circuits, everything else queues on
    /// the peer's link for coalesced writing.
    pub(crate) fn send(self: &Arc<Self>, to: PeerId, payload: Bytes) -> Result<(), TransportError> {
        let id = self.me.id;
        if self.sockets.is_closed() {
            return Err(TransportError::Disconnected(id));
        }
        if to == id {
            // Self-sends never touch a socket (mirrors hub delivery).
            return self
                .incoming
                .send((id, payload))
                .map_err(|_| TransportError::Disconnected(id));
        }
        let link = self.link_for(to)?;
        link.enqueue(payload, self.max_queue_bytes, &self.obs);
        Ok(())
    }

    /// Existing link for `to`, or a fresh one (with writer thread) if
    /// the address book knows the peer.
    fn link_for(self: &Arc<Self>, to: PeerId) -> Result<Arc<PeerLink>, TransportError> {
        if let Some(link) = self.links.read().ok().and_then(|l| l.get(&to).cloned()) {
            return Ok(link);
        }
        if !self
            .addrs
            .read()
            .map(|a| a.contains_key(&to))
            .unwrap_or(false)
        {
            return Err(TransportError::UnknownPeer(to));
        }
        let mut links = match self.links.write() {
            Ok(links) => links,
            Err(poisoned) => poisoned.into_inner(),
        };
        let link = links
            .entry(to)
            .or_insert_with(|| Arc::new(PeerLink::new(to)))
            .clone();
        drop(links);
        let needs_writer = {
            let mut q = lock_clean(&link.queue);
            let first = !q.writer_spawned;
            q.writer_spawned = true;
            first
        };
        if needs_writer {
            let (core, thread_link) = (Arc::clone(self), Arc::clone(&link));
            // lint:allow(detach): writer threads are intentionally detached; writer_loop exits when the shutdown flag is set and the condvar wakes it
            std::thread::Builder::new()
                .name(format!("tcp-write-{to}"))
                .spawn(move || core.writer_loop(&thread_link))
                .ok();
        }
        Ok(link)
    }

    /// Dials `peer` and handshakes, with exponential backoff, until
    /// connected or shut down.
    fn connect_with_backoff(&self, peer: PeerId, ever_connected: bool) -> Option<(TcpStream, Authenticator)> {
        let mut backoff = self.initial_backoff;
        while !self.sockets.is_closed() {
            let addr = self.addrs.read().ok().and_then(|a| a.get(&peer).copied());
            let dialled = addr.map_or_else(
                || Err(io::Error::new(io::ErrorKind::NotFound, "peer has no address")),
                |addr| session::initiate(&self.me, peer, addr),
            );
            match dialled {
                Ok(conn) => {
                    self.obs.connects.inc();
                    if ever_connected {
                        self.obs.reconnects.inc();
                    }
                    self.obs.backoff_ms.set(0);
                    return Some(conn);
                }
                Err(err) => {
                    if err.kind() == io::ErrorKind::InvalidData {
                        self.obs.auth_failures.inc();
                    }
                    hlf_obs::debug!("dial {peer} failed: {err}; retry in {backoff:?}");
                    self.obs.backoff_ms.set(backoff.as_millis() as i64);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.max_backoff);
                }
            }
        }
        None
    }

    /// Writer thread body: connect, drain the queue into `writev`
    /// batches, reconnect (re-keying) on any socket error.
    fn writer_loop(&self, link: &PeerLink) {
        let mut ever_connected = false;
        let mut batch: Vec<Bytes> = Vec::with_capacity(MAX_BATCH);
        let mut headers: Vec<[u8; FRAME_HEADER]> = Vec::with_capacity(MAX_BATCH);
        'session: while !self.sockets.is_closed() {
            let Some((mut stream, session)) = self.connect_with_backoff(link.peer, ever_connected)
            else {
                return; // shut down while dialing
            };
            ever_connected = true;
            let _tracked = self.sockets.track(&stream);
            self.obs.open_links.inc();
            loop {
                if self.sockets.is_closed() {
                    self.obs.open_links.dec();
                    return;
                }
                batch.clear();
                link.drain_batch(&mut batch);
                if batch.is_empty() {
                    continue;
                }
                if self.write_batch(&mut stream, &session, &batch, &mut headers).is_err() {
                    // Connection died: shed this batch (BFT layers
                    // tolerate loss) and reconnect with fresh keys.
                    self.obs.open_links.dec();
                    continue 'session;
                }
            }
        }
    }

    /// Seals every frame in `batch` and writes the whole batch through
    /// as few `writev` syscalls as the kernel allows (one, usually).
    fn write_batch(
        &self,
        stream: &mut TcpStream,
        session: &Authenticator,
        batch: &[Bytes],
        headers: &mut Vec<[u8; FRAME_HEADER]>,
    ) -> io::Result<()> {
        headers.clear();
        let mut total = 0usize;
        for frame in batch {
            let mut header = [0u8; FRAME_HEADER];
            let frame_len = (SEAL_LEN + frame.len()) as u32;
            let (len_part, seal_part) = header.split_at_mut(4);
            len_part.copy_from_slice(&frame_len.to_le_bytes());
            seal_part.copy_from_slice(&session.seal(frame.as_ref()));
            headers.push(header);
            total += FRAME_HEADER + frame.len();
        }
        let mut written = 0usize;
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(batch.len() * 2);
        while written < total {
            slices.clear();
            build_slices(headers, batch, written, &mut slices);
            match stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket closed mid-frame",
                    ));
                }
                Ok(n) => {
                    written += n;
                    self.obs.writev_calls.inc();
                    self.obs.bytes_out.add(n as u64);
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            }
        }
        self.obs.frames_out.add(batch.len() as u64);
        Ok(())
    }
}

impl Service for TcpCore {
    fn identity(&self) -> &Identity {
        &self.me
    }

    fn sockets(&self) -> &Sockets {
        &self.sockets
    }

    fn rejected(&self) {
        self.obs.auth_failures.inc();
    }

    /// Pumps an authenticated inbound connection's frames into the
    /// endpoint mailbox until the peer disconnects.
    fn serve(&self, peer: PeerId, session: Authenticator, mut stream: TcpStream) {
        self.obs.open_links.inc();
        hlf_obs::debug!("accepted {peer} on {}", self.me.id);

        // Frame pump. The peer's writer coalesces many frames into one
        // writev, so we mirror that on the read side: bulk-read into a
        // sliding scratch window and carve complete frames out of it
        // without further syscalls. Frames larger than the window fall
        // back to reading their tail directly into the pooled body.
        let mut scratch = vec![0u8; READ_SCRATCH];
        let (mut from, mut upto) = (0usize, 0usize);
        let mut frames = Replays::facing(session);
        'pump: loop {
            // Length prefix.
            while upto - from < 4 {
                if !refill(&mut stream, &mut scratch, &mut from, &mut upto, &self.obs) {
                    break 'pump;
                }
            }
            let mut len_buf = [0u8; 4];
            let Some(prefix) = scratch.get(from..from + 4) else {
                break;
            };
            len_buf.copy_from_slice(prefix);
            let frame_len = u32::from_le_bytes(len_buf) as usize;
            if !(SEAL_LEN..=MAX_FRAME).contains(&frame_len) {
                self.obs.auth_failures.inc();
                break;
            }
            from += 4;
            let mut body = self.pool.take(frame_len);
            body.resize(frame_len, 0);
            let mut filled = 0usize;
            while filled < frame_len {
                if from == upto && !refill(&mut stream, &mut scratch, &mut from, &mut upto, &self.obs) {
                    break 'pump;
                }
                let take = (upto - from).min(frame_len - filled);
                match (scratch.get(from..from + take), body.get_mut(filled..filled + take)) {
                    (Some(src), Some(dst)) => dst.copy_from_slice(src),
                    _ => break 'pump,
                }
                from += take;
                filled += take;
                // A frame bigger than the whole window: read the rest
                // straight into the pooled body, skipping the copy.
                if filled < frame_len && frame_len - filled >= scratch.len() {
                    let Some(rest) = body.get_mut(filled..) else {
                        break 'pump;
                    };
                    if stream.read_exact(rest).is_err() {
                        break 'pump;
                    }
                    filled = frame_len;
                }
            }
            let sealed = self.pool.wrap(body);
            let Some(payload) = frames.open(&sealed) else {
                self.obs.auth_failures.inc();
                break;
            };
            self.obs.frames_in.inc();
            self.obs.bytes_in.add(frame_len as u64);
            if self.incoming.send((peer, payload)).is_err() {
                break; // endpoint dropped
            }
        }
        self.obs.open_links.dec();
    }
}

/// Tops up the reader's scratch window with one bulk `read`, compacting
/// the unparsed remainder to the front first. Returns `false` once the
/// stream is closed or errored.
fn refill(
    stream: &mut TcpStream,
    scratch: &mut [u8],
    from: &mut usize,
    upto: &mut usize,
    obs: &NetObs,
) -> bool {
    if *from > 0 {
        scratch.copy_within(*from..*upto, 0);
        *upto -= *from;
        *from = 0;
    }
    let Some(room) = scratch.get_mut(*upto..) else {
        return false;
    };
    if room.is_empty() {
        return false;
    }
    match stream.read(room) {
        Ok(0) | Err(_) => false,
        Ok(n) => {
            obs.read_calls.inc();
            *upto += n;
            true
        }
    }
}

/// Rebuilds the `IoSlice` list for a partially written batch: skip
/// `skip` already-written bytes, then reference the rest of every
/// header/payload pair. Repeated rebuilds are cheap (slice views only)
/// and sidestep the unstable `IoSlice::advance_slices`.
fn build_slices<'a>(
    headers: &'a [[u8; FRAME_HEADER]],
    batch: &'a [Bytes],
    mut skip: usize,
    out: &mut Vec<IoSlice<'a>>,
) {
    for (header, frame) in headers.iter().zip(batch) {
        for part in [header.as_slice(), frame.as_ref()] {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            if let Some(rest) = part.get(skip..) {
                out.push(IoSlice::new(rest));
            }
            skip = 0;
        }
    }
}

/// A bound TCP endpoint factory: owns the listener, the acceptor
/// thread and the shared `TcpCore`.
pub struct TcpNetwork {
    core: Arc<TcpCore>,
    local_addr: SocketAddr,
    /// Handed to the first (only) `endpoint()` call.
    endpoint_rx: Mutex<Option<Receiver<(PeerId, Bytes)>>>,
}

impl TcpNetwork {
    /// Binds the listener, spawns the acceptor and returns the network
    /// handle. Dialing is lazy: nothing connects until the first send.
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure (address in use, permissions).
    pub fn bind(config: TcpConfig) -> io::Result<TcpNetwork> {
        let registry = config
            .registry
            .unwrap_or_else(|| Registry::new(format!("transport-{}", config.id)));
        let (tx, rx) = mpsc::channel();
        let core = Arc::new(TcpCore {
            me: Identity::new(config.id, config.secret, session::DATA),
            pool: BufferPool::default(),
            addrs: RwLock::new(config.peers.into_iter().collect()),
            links: RwLock::new(HashMap::new()),
            incoming: tx,
            obs: NetObs::register(&registry),
            sockets: Sockets::default(),
            initial_backoff: config.initial_backoff,
            max_backoff: config.max_backoff,
            max_queue_bytes: config.max_queue_bytes.max(1),
        });
        let local_addr = session::listen(config.listen, Arc::clone(&core))?;
        Ok(TcpNetwork {
            core,
            local_addr,
            endpoint_rx: Mutex::new(Some(rx)),
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This network's identity.
    pub fn id(&self) -> PeerId {
        self.core.me.id
    }

    /// The endpoint for this process.
    ///
    /// # Panics
    ///
    /// Panics on a second call: the inbound mailbox has exactly one
    /// consumer, and handing it out twice is a harness bug.
    pub fn endpoint(&self) -> Endpoint {
        let rx = lock_clean(&self.endpoint_rx).take();
        #[expect(clippy::expect_used, reason = "single-consumer contract, misuse is a harness bug.")]
        let rx = rx.expect("TcpNetwork::endpoint may only be called once");
        Endpoint::new(self.core.me.id, Backend::Tcp(Arc::clone(&self.core)), rx)
    }

    /// Adds (or re-addresses) a peer. A writer already retrying an old
    /// address picks the new one up on its next dial attempt — this is
    /// how a restarted replica on a fresh port rejoins.
    pub fn add_peer(&self, id: PeerId, addr: SocketAddr) {
        if let Ok(mut addrs) = self.core.addrs.write() {
            addrs.insert(id, addr);
        }
        if let Some(link) = self.core.links.read().ok().and_then(|l| l.get(&id).cloned()) {
            link.wake.notify_one();
        }
    }

    /// Snapshot of the socket-level counters.
    pub fn net_stats(&self) -> NetStats {
        let obs = &self.core.obs;
        NetStats {
            bytes_out: obs.bytes_out.get(),
            bytes_in: obs.bytes_in.get(),
            frames_out: obs.frames_out.get(),
            frames_in: obs.frames_in.get(),
            writev_calls: obs.writev_calls.get(),
            read_calls: obs.read_calls.get(),
            connects: obs.connects.get(),
            reconnects: obs.reconnects.get(),
            auth_failures: obs.auth_failures.get(),
            queue_drops: obs.queue_drops.get(),
        }
    }

    /// Stops every thread and closes every socket. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&self) {
        if !self.core.sockets.close(self.local_addr) {
            return;
        }
        // Wake writers parked on their queues.
        if let Ok(links) = self.core.links.read() {
            for link in links.values() {
                link.wake.notify_all();
            }
        }
    }
}

impl Drop for TcpNetwork {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame_tag;
    use hlf_obs::FlightRecorder;

    fn local(core_id: u32, secret: &[u8]) -> TcpNetwork {
        let listen: SocketAddr = "127.0.0.1:0".parse().unwrap();
        TcpNetwork::bind(TcpConfig::new(PeerId::replica(core_id), listen, secret)).unwrap()
    }

    /// Builds a fully meshed address book across the given networks.
    fn mesh(nets: &[&TcpNetwork]) {
        for a in nets {
            for b in nets {
                if a.id() != b.id() {
                    a.add_peer(b.id(), b.local_addr());
                }
            }
        }
    }

    #[test]
    fn tcp_send_and_receive_roundtrip() {
        let n0 = local(0, b"s");
        let n1 = local(1, b"s");
        mesh(&[&n0, &n1]);
        let e0 = n0.endpoint();
        let e1 = n1.endpoint();
        e0.send(PeerId::replica(1), Bytes::from_static(b"over tcp"))
            .unwrap();
        let (from, payload) = e1.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, PeerId::replica(0));
        assert_eq!(payload.as_ref(), b"over tcp");
        // Reply flows over the reverse-direction connection.
        e1.send(PeerId::replica(0), Bytes::from_static(b"reply"))
            .unwrap();
        assert_eq!(
            e0.recv_timeout(Duration::from_secs(5)).unwrap().1.as_ref(),
            b"reply"
        );
        let stats = n0.net_stats();
        assert_eq!(stats.frames_out, 1);
        assert_eq!(stats.frames_in, 1);
        assert!(stats.bytes_out >= (FRAME_HEADER + 8) as u64);
    }

    /// A data frame replayed on its connection is refused: the first
    /// copy is delivered, the second counts an authentication failure
    /// and the reader drops the connection.
    #[test]
    fn tcp_replayed_frame_closes_the_connection() {
        let n1 = local(1, b"s");
        let e1 = n1.endpoint();
        let me = Identity::new(PeerId::replica(0), b"s".as_slice(), session::DATA);
        let (mut stream, key) = session::initiate(&me, PeerId::replica(1), n1.local_addr()).unwrap();
        let sealed = key.seal_with(b"once", &BufferPool::default());
        let frame = [&(sealed.len() as u32).to_le_bytes()[..], &sealed].concat();
        stream.write_all(&frame).unwrap();
        let (from, payload) = e1.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload.as_ref()), (PeerId::replica(0), &b"once"[..]));
        stream.write_all(&frame).unwrap();
        // The reader shuts the socket down: the dialler's read ends.
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(n) => assert_eq!(n, 0, "the reader answered a data connection"),
            Err(err) => assert!(
                !matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
                "the connection stayed open after the replay"
            ),
        }
        let stats = n1.net_stats();
        assert_eq!((stats.frames_in, stats.auth_failures), (1, 1));
        assert!(e1.try_recv().is_none());
    }

    #[test]
    fn tcp_loopback_and_unknown_peer() {
        let n0 = local(0, b"s");
        let e0 = n0.endpoint();
        e0.send(PeerId::replica(0), Bytes::from_static(b"self"))
            .unwrap();
        assert_eq!(
            e0.recv_timeout(Duration::from_secs(1)).unwrap().1.as_ref(),
            b"self"
        );
        assert_eq!(
            e0.send(PeerId::replica(9), Bytes::from_static(b"x")),
            Err(TransportError::UnknownPeer(PeerId::replica(9)))
        );
        // Loopback never touches a socket.
        assert_eq!(n0.net_stats().frames_out, 0);
    }

    #[test]
    fn tcp_wrong_secret_never_delivers() {
        let n0 = local(0, b"secret-a");
        let n1 = local(1, b"secret-b");
        mesh(&[&n0, &n1]);
        let e0 = n0.endpoint();
        let e1 = n1.endpoint();
        e0.send(PeerId::replica(1), Bytes::from_static(b"evil"))
            .unwrap();
        assert!(e1.recv_timeout(Duration::from_millis(600)).is_err());
        // The acceptor rejected the handshake HMAC.
        assert!(n1.net_stats().auth_failures >= 1);
    }

    #[test]
    fn tcp_coalesces_bursts_into_few_writevs() {
        let n0 = local(0, b"s");
        let n1 = local(1, b"s");
        mesh(&[&n0, &n1]);
        let e0 = n0.endpoint();
        let e1 = n1.endpoint();
        // Burst of frames queued before (and while) the link dials:
        // the writer drains them in batches.
        const FRAMES: usize = 400;
        for i in 0..FRAMES as u32 {
            e0.send(
                PeerId::replica(1),
                Bytes::from(i.to_le_bytes().to_vec()),
            )
            .unwrap();
        }
        let mut seen = 0;
        while seen < FRAMES {
            e1.recv_timeout(Duration::from_secs(5)).unwrap();
            seen += 1;
        }
        let stats = n0.net_stats();
        assert_eq!(stats.frames_out, FRAMES as u64);
        assert!(
            stats.writev_calls < FRAMES as u64,
            "expected coalescing: {} frames took {} writevs",
            stats.frames_out,
            stats.writev_calls
        );
        assert!(stats.frames_per_writev() > 1.0);
    }

    #[test]
    fn tcp_reconnects_and_rekeys_after_peer_restart() {
        let n0 = local(0, b"s");
        let n1 = local(1, b"s");
        mesh(&[&n0, &n1]);
        let e0 = n0.endpoint();
        let e1 = n1.endpoint();
        e0.send(PeerId::replica(1), Bytes::from_static(b"pre"))
            .unwrap();
        assert_eq!(
            e1.recv_timeout(Duration::from_secs(5)).unwrap().1.as_ref(),
            b"pre"
        );

        // "Crash" replica 1 and bring it back on a fresh port.
        n1.shutdown();
        drop(e1);
        drop(n1);
        let n1b = local(1, b"s");
        n1b.add_peer(PeerId::replica(0), n0.local_addr());
        let e1b = n1b.endpoint();
        n0.add_peer(PeerId::replica(1), n1b.local_addr());

        // The writer re-dials with backoff; eventually a fresh session
        // (fresh nonces -> fresh key) carries traffic again.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while std::time::Instant::now() < deadline {
            let _ = e0.send(PeerId::replica(1), Bytes::from_static(b"post"));
            if let Ok((_, payload)) = e1b.recv_timeout(Duration::from_millis(200)) {
                assert_eq!(payload.as_ref(), b"post");
                delivered = true;
                break;
            }
        }
        assert!(delivered, "link never recovered after restart");
        let stats = n0.net_stats();
        assert!(stats.connects >= 2, "expected a reconnect, saw {stats:?}");
        assert!(stats.reconnects >= 1);
    }

    #[test]
    fn tcp_queue_cap_sheds_oldest() {
        let listen: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut config = TcpConfig::new(PeerId::replica(0), listen, b"s".as_slice());
        config.max_queue_bytes = 64; // tiny cap
        // Point at a dead address so the queue can only grow.
        config = config.with_peer(PeerId::replica(1), "127.0.0.1:1".parse().unwrap());
        let n0 = TcpNetwork::bind(config).unwrap();
        let e0 = n0.endpoint();
        for _ in 0..64 {
            e0.send(PeerId::replica(1), Bytes::from_static(b"0123456789abcdef"))
                .unwrap();
        }
        assert!(n0.net_stats().queue_drops > 0);
    }

    #[test]
    fn tcp_received_frames_carry_tcp_flight_tag() {
        let n0 = local(0, b"s");
        let n1 = local(1, b"s");
        mesh(&[&n0, &n1]);
        let e0 = n0.endpoint();
        let mut e1 = n1.endpoint();
        let flight = Arc::new(FlightRecorder::new("tcp-replica-1"));
        e1.attach_flight(Arc::clone(&flight));
        e0.send(PeerId::replica(1), Bytes::from_static(b"tagged"))
            .unwrap();
        e1.recv_timeout(Duration::from_secs(5)).unwrap();
        let events = flight.events();
        assert_eq!(events.len(), 1);
        let event = events.first().unwrap();
        assert_eq!(event.a, PeerId::replica(0).flight_code());
        assert_eq!(event.b, 6);
        assert_eq!(event.c, frame_tag::RECEIVED_BIT | frame_tag::TCP_BIT);
    }
}
