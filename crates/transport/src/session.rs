//! The authenticated session both TCP planes run: one HELLO/ACK
//! handshake, one nonce, one listener.
//!
//! The data plane ([`tcp`](crate::tcp)) and the admin plane
//! ([`admin`](crate::admin)) differ only in the two domain labels
//! their handshakes are tagged under ([`DATA`] vs [`ADMIN`]), so a
//! transcript recorded on one plane never authenticates on the other.
//!
//! ```text
//! initiator -> acceptor   "HLFT" | version(1) | kind(1) | id(4 LE) | nonce_i(16) | tag(32)
//! acceptor  -> initiator  nonce_a(16) | tag(32)
//! ```
//!
//! `kind` is 0 for a replica, 1 for a client. The HELLO tag is
//! `HMAC(link, hello_label || first 26 bytes)` and the ACK tag
//! `HMAC(link, ack_label || nonce_i || nonce_a)`, both under the
//! pairwise link key ([`Authenticator::for_link`]). Both sides then
//! derive the session key [`Authenticator::rekey`]`(nonce_i, nonce_a)`;
//! fresh nonces on every connection mean every reconnect re-keys.
//!
//! After the handshake both planes speak `len(4 LE) | seal(32) |
//! payload` frames under the session key, `seal = nonce(16) | tag(16)`
//! ([`Authenticator::seal_with`]): the tag is Poly1305 of the payload
//! under the one-time key `HMAC(session, "hlf-frame" || nonce)`. The
//! nonce counts the frames one side has sealed, with bit 127 set on the
//! acceptor's side, so the two directions of a session (the admin plane
//! answers on the connection it was asked on) never share a nonce. A
//! receiver opens through [`Replays`], which refuses a nonce from the
//! wrong side or at or below the last one it accepted: a frame replayed
//! or reflected within the session is an authentication failure. The
//! data plane runs this through its own coalescing pump and `writev`
//! writer, the admin plane through [`Session`].

use crate::{constant_time_eq, lock_clean, Authenticator, PeerId, Replays, SEAL_LEN};
use hlf_crypto::hmac::hmac_sha256_multi;
use hlf_wire::{BufferPool, Bytes};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Handshake magic.
const MAGIC: &[u8; 4] = b"HLFT";
/// Handshake / protocol version.
const WIRE_VERSION: u8 = 1;
/// HELLO length: magic 4 + version 1 + kind 1 + id 4 + nonce 16 + tag 32.
const HELLO_LEN: usize = 58;
/// The HELLO bytes its tag covers.
const HELLO_BODY: usize = HELLO_LEN - 32;
/// ACK length: nonce 16 + tag 32.
const ACK_LEN: usize = 48;
/// How long a dial or a handshake read may block before the
/// connection is given up.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// What separates the two planes: the handshake's domain labels, plus
/// the prefix of the plane's thread names.
#[derive(Clone, Copy)]
pub(crate) struct Plane {
    hello: &'static [u8],
    ack: &'static [u8],
    name: &'static str,
}

/// The consensus data plane.
pub(crate) const DATA: Plane = Plane {
    hello: b"hlf-hello",
    ack: b"hlf-ack",
    name: "tcp",
};

/// The admin/telemetry plane.
pub(crate) const ADMIN: Plane = Plane {
    hello: b"hlf-admin-hello",
    ack: b"hlf-admin-ack",
    name: "admin",
};

/// One end of a handshake: its id, the cluster secret every link key
/// derives from, and the plane whose labels it tags under.
pub(crate) struct Identity {
    pub(crate) id: PeerId,
    secret: Vec<u8>,
    plane: Plane,
}

impl Identity {
    pub(crate) fn new(id: PeerId, secret: impl Into<Vec<u8>>, plane: Plane) -> Identity {
        Identity { id, secret: secret.into(), plane }
    }
}

/// The error a handshake or frame that fails its checks returns.
pub(crate) fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// A unique per-connection nonce: a secret-keyed digest over a
/// process-wide counter, the wall clock and our identity. Uniqueness,
/// not unpredictability, is what re-keying needs.
fn fresh_nonce(me: &Identity) -> [u8; 16] {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let digest = hmac_sha256_multi(
        &me.secret,
        &[
            b"hlf-nonce",
            &count.to_le_bytes(),
            &now.to_le_bytes(),
            &me.id.flight_code().to_le_bytes(),
        ],
    );
    let mut nonce = [0u8; 16];
    nonce.copy_from_slice(digest.as_bytes().split_at(16).0);
    nonce
}

/// The HELLO `me` sends under `link`, carrying `nonce`.
fn hello(me: &Identity, link: &Authenticator, nonce: &[u8; 16]) -> Vec<u8> {
    let (kind, raw_id) = match me.id {
        PeerId::Replica(id) => (0u8, id),
        PeerId::Client(id) => (1u8, id),
    };
    let mut hello = [MAGIC.as_slice(), &[WIRE_VERSION, kind], &raw_id.to_le_bytes(), nonce].concat();
    let tag = link.tag_labeled(me.plane.hello, &[&hello]);
    hello.extend_from_slice(&tag);
    hello
}

/// Dials `peer` at `addr` and runs the initiator's half of the
/// handshake. The stream keeps [`HANDSHAKE_TIMEOUT`] as its read
/// timeout.
///
/// # Errors
///
/// Socket errors, or `InvalidData` when the ACK fails authentication
/// (wrong secret, wrong peer identity, wrong plane).
pub(crate) fn initiate(
    me: &Identity,
    peer: PeerId,
    addr: SocketAddr,
) -> io::Result<(TcpStream, Authenticator)> {
    let mut stream = TcpStream::connect_timeout(&addr, HANDSHAKE_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let link = Authenticator::for_link(&me.secret, me.id, peer);
    let nonce_i = fresh_nonce(me);
    stream.write_all(&hello(me, &link, &nonce_i))?;

    let mut ack = [0u8; ACK_LEN];
    stream.read_exact(&mut ack)?;
    let (nonce_a, tag) = ack.split_at(16);
    if !constant_time_eq(tag, &link.tag_labeled(me.plane.ack, &[&nonce_i, nonce_a])) {
        return Err(invalid("handshake ack failed authentication"));
    }
    Ok((stream, link.rekey(&nonce_i, nonce_a)))
}

/// Runs the acceptor's half of the handshake on an inbound `stream`
/// and returns the authenticated peer and the session key; the stream
/// is left without a read timeout.
///
/// # Errors
///
/// Socket errors (a truncated HELLO among them), or `InvalidData` when
/// the HELLO has the wrong magic, version or kind byte or its tag does
/// not verify under this plane's label.
pub(crate) fn accept(me: &Identity, stream: &mut TcpStream) -> io::Result<(PeerId, Authenticator)> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut hello = [0u8; HELLO_LEN];
    stream.read_exact(&mut hello)?;
    let (body, tag) = hello.split_at(HELLO_BODY);
    let (head, nonce_i) = body.split_at(10);
    let [m0, m1, m2, m3, version, kind, i0, i1, i2, i3] = *head else {
        return Err(invalid("short hello"));
    };
    if [m0, m1, m2, m3] != *MAGIC || version != WIRE_VERSION {
        return Err(invalid("hello has the wrong magic or version"));
    }
    let raw_id = u32::from_le_bytes([i0, i1, i2, i3]);
    let peer = match kind {
        0 => PeerId::Replica(raw_id),
        1 => PeerId::Client(raw_id),
        _ => return Err(invalid("hello has an unknown kind")),
    };
    let link = Authenticator::for_link(&me.secret, me.id, peer);
    if !constant_time_eq(tag, &link.tag_labeled(me.plane.hello, &[body])) {
        return Err(invalid("hello failed authentication"));
    }

    let nonce_a = fresh_nonce(me);
    let tag = link.tag_labeled(me.plane.ack, &[nonce_i, &nonce_a]);
    stream.write_all(&[nonce_a.as_slice(), &tag].concat())?;
    stream.set_read_timeout(None)?;
    Ok((peer, link.rekey(nonce_i, &nonce_a).accepting()))
}

/// A plane's live sockets and the flag that ends them: what `shutdown`
/// closes so blocked reader, writer and handler threads return.
#[derive(Default)]
pub(crate) struct Sockets {
    closed: AtomicBool,
    next_key: AtomicU64,
    streams: Mutex<HashMap<u64, TcpStream>>,
}

/// A registered stream: dropping it unregisters the stream and shuts
/// it down, so a connection that ended on its own closes its socket
/// and leaves nothing behind in the registry.
pub(crate) struct Tracked<'a> {
    sockets: &'a Sockets,
    key: u64,
}

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        let stream = lock_clean(&self.sockets.streams).remove(&self.key);
        if let Some(stream) = stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Sockets {
    /// `true` once [`close`](Sockets::close) has run.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Registers `stream` so `close` can shut it down, until the
    /// returned guard drops.
    pub(crate) fn track(&self, stream: &TcpStream) -> Tracked<'_> {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_clean(&self.streams).insert(key, clone);
        }
        Tracked { sockets: self, key }
    }

    /// Sets the flag, shuts every registered stream down and kicks the
    /// acceptor on `listener` out of its blocking `accept` with a
    /// loopback connect. Returns `false` if it had already run.
    pub(crate) fn close(&self, listener: SocketAddr) -> bool {
        if self.closed.swap(true, Ordering::AcqRel) {
            return false;
        }
        // Drain under the lock, shut the sockets down outside it:
        // `shutdown()` is a syscall that can stall on a wedged peer, and
        // connection threads take `streams` on every new session.
        let drained: Vec<TcpStream> = lock_clean(&self.streams).drain().map(|(_, s)| s).collect();
        for stream in drained {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect_timeout(&listener, Duration::from_millis(200));
        true
    }
}

/// What a [`listen`]er hands its authenticated connections to.
pub(crate) trait Service: Send + Sync + 'static {
    /// Who this side is on its plane.
    fn identity(&self) -> &Identity;
    /// The sockets `close` shuts down; the acceptor stops once closed.
    fn sockets(&self) -> &Sockets;
    /// Runs one authenticated connection until it ends.
    fn serve(&self, peer: PeerId, session: Authenticator, stream: TcpStream);
    /// Called once per HELLO that failed authentication.
    fn rejected(&self) {}
}

/// Binds `addr` and starts the acceptor thread: each inbound connection
/// gets a thread of its own that runs [`accept`], registers the stream
/// and hands it to [`Service::serve`]. Returns the bound address (what
/// [`Sockets::close`] kicks).
///
/// # Errors
///
/// Any socket-level bind failure.
pub(crate) fn listen<S: Service>(addr: SocketAddr, service: Arc<S>) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let me = service.identity();
    let name = format!("{}-accept-{}", me.plane.name, me.id);
    // lint:allow(detach): the acceptor is detached; Sockets::close sets the flag and kicks the listener with a loopback connect, after which the loop returns
    std::thread::Builder::new()
        .name(name)
        .spawn(move || acceptor_loop(&listener, &service))?;
    Ok(local_addr)
}

fn acceptor_loop<S: Service>(listener: &TcpListener, service: &Arc<S>) {
    while !service.sockets().is_closed() {
        let Ok((mut stream, addr)) = listener.accept() else {
            continue;
        };
        if service.sockets().is_closed() {
            return;
        }
        let service = Arc::clone(service);
        // lint:allow(detach): connection threads are detached; each ends when its peer closes, its handshake fails or times out, or Sockets::close shuts its registered stream down
        std::thread::Builder::new()
            .name(format!("{}-peer-{addr}", service.identity().plane.name))
            .spawn(move || match accept(service.identity(), &mut stream) {
                Ok((peer, session)) => {
                    let _tracked = service.sockets().track(&stream);
                    service.serve(peer, session, stream);
                }
                Err(err) if err.kind() == io::ErrorKind::InvalidData => service.rejected(),
                Err(_) => {}
            })
            .ok();
    }
}

/// One authenticated connection that exchanges whole frames — the
/// admin plane's request/response loop on either side.
pub(crate) struct Session {
    stream: TcpStream,
    frames: Replays,
    pool: BufferPool,
}

impl Session {
    pub(crate) fn new(stream: TcpStream, key: Authenticator) -> Session {
        Session {
            stream,
            frames: Replays::facing(key),
            pool: BufferPool::new(2, 1 << 20),
        }
    }

    /// Seals `payload` and writes it as one frame.
    pub(crate) fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let sealed = self.frames.key().seal_with(payload, &self.pool);
        self.stream.write_all(&(sealed.len() as u32).to_le_bytes())?;
        self.stream.write_all(&sealed)
    }

    /// Reads one frame of at most `max_frame` bytes (seal included) and
    /// returns its authenticated payload.
    ///
    /// # Errors
    ///
    /// Socket errors, or `InvalidData` for an out-of-range length, a
    /// tag that does not verify, or a nonce this session has already
    /// passed (a replayed or reflected frame).
    pub(crate) fn recv(&mut self, max_frame: usize) -> io::Result<Bytes> {
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if !(SEAL_LEN..=max_frame).contains(&len) {
            return Err(invalid("frame length out of range"));
        }
        let mut body = self.pool.take(len);
        body.resize(len, 0);
        self.stream.read_exact(&mut body)?;
        self.frames
            .open(&self.pool.wrap(body))
            .ok_or_else(|| invalid("frame failed authentication"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::{AdminClient, AdminServer, AdminSources, HealthReport};
    use crate::tcp::{TcpConfig, TcpNetwork};
    use hlf_obs::Registry;

    const SECRET: &[u8] = b"session-test";

    /// A valid HELLO from `from` to `to` on `plane`.
    fn valid_hello(from: PeerId, to: PeerId, plane: Plane) -> Vec<u8> {
        let me = Identity::new(from, SECRET, plane);
        hello(&me, &Authenticator::for_link(SECRET, from, to), &[5u8; 16])
    }

    /// Sends `bytes`, closes the write side and returns everything the
    /// listener sent back before it closed the connection (or, if it
    /// never does, before the read timed out).
    fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT * 2)).unwrap();
        stream.write_all(bytes).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        reply
    }

    /// The rows: a name, the bytes sent, and whether the listener
    /// counts them as an authentication failure. A header byte is
    /// changed under a tag that is valid for the changed bytes, so only
    /// that byte's own check can reject it; the unknown kind is tagged
    /// once as each kind it could be mistaken for.
    fn rows(from: u32, to: PeerId, plane: Plane, other: Plane) -> Vec<(&'static str, Vec<u8>, bool)> {
        let valid = valid_hello(PeerId::Replica(from), to, plane);
        let retagged = |at: usize, value: u8, signer: PeerId| {
            let mut hello = valid.clone();
            hello[at] = value;
            let link = Authenticator::for_link(SECRET, signer, to);
            let tag = link.tag_labeled(plane.hello, &[&hello[..HELLO_BODY]]);
            hello[HELLO_BODY..].copy_from_slice(&tag);
            hello
        };
        let mut flipped = valid.clone();
        flipped[HELLO_LEN - 1] ^= 1;
        let (replica, client) = (PeerId::Replica(from), PeerId::Client(from));
        vec![
            ("truncated hello", valid[..HELLO_LEN - 1].to_vec(), false),
            ("wrong magic", retagged(0, b'X', replica), true),
            ("wrong version", retagged(4, WIRE_VERSION + 1, replica), true),
            ("unknown kind, tagged as a replica", retagged(5, 2, replica), true),
            ("unknown kind, tagged as a client", retagged(5, 2, client), true),
            ("flipped tag bit", flipped, true),
            ("other plane's hello", valid_hello(replica, to, other), true),
        ]
    }

    #[test]
    fn bad_hellos_get_no_ack_and_no_frame_on_either_plane() {
        let (data_id, raw_dialler) = (PeerId::replica(0), 1);
        let dialler = PeerId::replica(raw_dialler);
        let data = TcpNetwork::bind(TcpConfig::new(data_id, "127.0.0.1:0".parse().unwrap(), SECRET))
            .unwrap();
        let endpoint = data.endpoint();
        let admin = AdminServer::bind(
            data_id,
            "127.0.0.1:0".parse().unwrap(),
            SECRET,
            AdminSources {
                registry: Registry::new("node-0"),
                flight: None,
                health: Arc::new(HealthReport::default),
            },
        )
        .unwrap();

        let mut failures = 0;
        for (name, bytes, counted) in rows(raw_dialler, data_id, DATA, ADMIN) {
            assert!(exchange(data.local_addr(), &bytes).is_empty(), "data plane ACKed: {name}");
            failures += u64::from(counted);
            assert_eq!(data.net_stats().auth_failures, failures, "data plane: {name}");
            assert!(endpoint.try_recv().is_none(), "data plane delivered: {name}");
        }
        for (name, bytes, _) in rows(raw_dialler, data_id, ADMIN, DATA) {
            assert!(exchange(admin.local_addr(), &bytes).is_empty(), "admin plane ACKed: {name}");
        }
        assert_eq!(data.net_stats().frames_in, 0);

        // Both listeners survived the table: a valid session still works.
        let (stream, key) = initiate(&Identity::new(dialler, SECRET, DATA), data_id, data.local_addr()).unwrap();
        Session::new(stream, key).send(b"after").unwrap();
        let (from, payload) = endpoint.recv_timeout(HANDSHAKE_TIMEOUT).unwrap();
        assert_eq!((from, payload.as_ref()), (dialler, &b"after"[..]));
        let mut client = AdminClient::connect(admin.local_addr(), SECRET, dialler, data_id).unwrap();
        assert_eq!(client.health().unwrap(), HealthReport::default());
        assert_eq!(data.net_stats().auth_failures, failures);
    }

    /// The two directions of one admin session seal under one key but
    /// never share a nonce, and neither side opens a frame of its own
    /// sent back at it.
    #[test]
    fn admin_session_directions_never_share_a_nonce() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (server_id, client_id) = (PeerId::replica(0), PeerId::client(7));
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            accept(&Identity::new(server_id, SECRET, ADMIN), &mut stream).unwrap()
        });
        let (_stream, client_key) = initiate(&Identity::new(client_id, SECRET, ADMIN), server_id, addr).unwrap();
        let (peer, server_key) = server.join().unwrap();
        assert_eq!(peer, client_id);
        let pool = BufferPool::default();
        let (mut at_server, mut at_client) = (Replays::facing(server_key.clone()), Replays::facing(client_key.clone()));
        let mut nonces = std::collections::HashSet::new();
        for i in 0..1_000u32 {
            let request = client_key.seal_with(&i.to_le_bytes(), &pool);
            let response = server_key.seal_with(&i.to_le_bytes(), &pool);
            assert!(nonces.insert(request[..16].to_vec()) && nonces.insert(response[..16].to_vec()), "exchange {i}");
            assert!(at_client.open(&request).is_none() && at_server.open(&response).is_none(), "exchange {i} reflected");
            assert_eq!(at_server.open(&request).unwrap(), response.slice(SEAL_LEN..), "exchange {i}");
            assert_eq!(at_client.open(&response).unwrap(), request.slice(SEAL_LEN..), "exchange {i}");
        }
    }

    #[test]
    fn a_dropped_registration_closes_its_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let sockets = Sockets::default();
        let tracked = sockets.track(&server);
        assert_eq!(lock_clean(&sockets.streams).len(), 1);
        drop(tracked);
        assert!(lock_clean(&sockets.streams).is_empty());
        // `server` itself is still open: the shutdown alone ends the read.
        client.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).unwrap();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0);
    }
}
