//! Authenticated admin/telemetry endpoint: the cluster's scrape plane.
//!
//! Every `hlf_node` process can serve an [`AdminServer`] on a port
//! separate from its consensus listener. A scraper (`hlf_top`, the
//! check-harness smoke, external tooling via the Prometheus dump)
//! connects with an [`AdminClient`] and issues three request kinds:
//!
//! * [`AdminRequest::MetricsDelta`] — the change since the scrape
//!   cursor ([`hlf_obs::ScrapeSession`]), so steady-state 1 Hz scrapes
//!   ship a few hundred bytes instead of the whole registry. The first
//!   delta on a connection is the full registry snapshot.
//! * [`AdminRequest::FlightDump`] — drain the node's flight-recorder
//!   ring through the existing `events_since` cursor.
//! * [`AdminRequest::Health`] — a fixed-size gauge block (regency,
//!   pipeline window, decide frontier, straggler suspicions).
//!
//! # Wire format
//!
//! The admin plane runs the data plane's session (`session.rs`): the
//! same handshake, listener and `len(4 LE) | nonce(16) | tag(16) |
//! payload` Poly1305-sealed frames under the same pairwise
//! [`Authenticator::for_link`] keys, with its own handshake labels
//! (`hlf-admin-hello` / `hlf-admin-ack`) so a transcript never replays
//! across planes. Requests and responses share one session key, so the
//! scraper seals with nonces below 2¹²⁷ and the node with nonces above,
//! and each side refuses a nonce that is not past the last one it took
//! from the other: a replayed or reflected request or response ends
//! the connection. Every connection re-keys, so a restarted node's
//! scrapers start their cursors over cleanly.
//!
//! Requests are 9 bytes (`kind(1) | cursor(8 LE)`). Responses echo
//! the kind byte and carry a kind-specific body; the metric bodies
//! are the stable snapshot JSON the rest of the tooling already
//! parses, framed by small fixed binary headers (epoch/cursor), so
//! this crate needs no JSON parser of its own.

use crate::session::{self, invalid, Identity, Service, Session, Sockets};
use crate::{Authenticator, PeerId};
use hlf_obs::{FlightDump, FlightRecorder, Registry, ScrapeSession, Snapshot};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Largest accepted admin frame body (seal + payload). Registry
/// snapshots are a few KiB; 4 MiB bounds a full flight-ring dump.
const MAX_FRAME: usize = 4 << 20;

/// One admin request. `cursor` fields echo the cursor from the
/// previous response of the same kind (0 on the first request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdminRequest {
    /// Changes since the scrape cursor (everything, on the first
    /// request of a connection).
    MetricsDelta {
        /// Cursor echoed from the previous delta response.
        cursor: u64,
    },
    /// Flight-recorder events past the `events_since` cursor.
    FlightDump {
        /// Cursor echoed from the previous dump response.
        cursor: u64,
    },
    /// Fixed-size liveness gauges.
    Health,
}

impl AdminRequest {
    const KIND_DELTA: u8 = 2;
    const KIND_FLIGHT: u8 = 3;
    const KIND_HEALTH: u8 = 4;

    fn kind(&self) -> u8 {
        match self {
            AdminRequest::MetricsDelta { .. } => Self::KIND_DELTA,
            AdminRequest::FlightDump { .. } => Self::KIND_FLIGHT,
            AdminRequest::Health => Self::KIND_HEALTH,
        }
    }

    /// Fixed 9-byte encoding: `kind(1) | cursor(8 LE)`.
    pub(crate) fn encode(&self) -> [u8; 9] {
        let cursor = match self {
            AdminRequest::MetricsDelta { cursor } | AdminRequest::FlightDump { cursor } => *cursor,
            AdminRequest::Health => 0,
        };
        let mut out = [0u8; 9];
        let (kind_byte, rest) = out.split_at_mut(1);
        kind_byte.copy_from_slice(&[self.kind()]);
        rest.copy_from_slice(&cursor.to_le_bytes());
        out
    }

    /// Parses the encoding; `None` on bad length or unknown kind.
    pub(crate) fn decode(buf: &[u8]) -> Option<AdminRequest> {
        if buf.len() != 9 {
            return None;
        }
        let cursor = read_u64(buf, 1)?;
        match *buf.first()? {
            Self::KIND_DELTA => Some(AdminRequest::MetricsDelta { cursor }),
            Self::KIND_FLIGHT => Some(AdminRequest::FlightDump { cursor }),
            Self::KIND_HEALTH => Some(AdminRequest::Health),
            _ => None,
        }
    }
}

/// The `Health` response: a fixed block of liveness gauges, assembled
/// by the embedding process (the values come from the node's registry
/// and SMR stats, not from this crate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// The regency (leader epoch) the replica has installed.
    pub regency: u64,
    /// Pipeline-window occupancy (in-flight consensus slots).
    pub window: u64,
    /// Decide frontier: highest consensus instance decided.
    pub frontier: u64,
    /// Peers currently flagged by the straggler detector.
    pub suspected: u64,
    /// Total decided instances.
    pub decided: u64,
    /// Microseconds since the node started serving.
    pub uptime_us: u64,
}

impl HealthReport {
    /// Encoded size: six `u64` little-endian words.
    pub(crate) const ENCODED_LEN: usize = 48;

    /// Fixed 48-byte little-endian encoding.
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        for (i, v) in [
            self.regency,
            self.window,
            self.frontier,
            self.suspected,
            self.decided,
            self.uptime_us,
        ]
        .iter()
        .enumerate()
        {
            if let Some(part) = out.get_mut(i * 8..i * 8 + 8) {
                part.copy_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses the encoding; `None` on bad length.
    pub fn decode(buf: &[u8]) -> Option<HealthReport> {
        if buf.len() != Self::ENCODED_LEN {
            return None;
        }
        Some(HealthReport {
            regency: read_u64(buf, 0)?,
            window: read_u64(buf, 8)?,
            frontier: read_u64(buf, 16)?,
            suspected: read_u64(buf, 24)?,
            decided: read_u64(buf, 32)?,
            uptime_us: read_u64(buf, 40)?,
        })
    }

    /// Compact JSON for human-facing dumps (`hlf_top --once`, smokes).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"regency\":{},\"window\":{},\"frontier\":{},\"suspected\":{},\"decided\":{},\"uptime_us\":{}}}",
            self.regency, self.window, self.frontier, self.suspected, self.decided, self.uptime_us
        )
    }
}

/// A delta-scrape reply: the serving process' epoch plus the change
/// since the client's previous delta.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaReply {
    /// Identifies the serving process instance; a change means the
    /// node restarted and accumulated state must be rebased.
    pub epoch: u64,
    /// Metrics that moved since the last exchange (full snapshot on
    /// the first exchange or after a cursor reset).
    pub delta: Snapshot,
}

/// What an [`AdminServer`] serves from: the node's registry, its
/// flight recorder (when one is attached) and a health closure the
/// embedder assembles from whatever stats it owns.
#[derive(Clone)]
pub struct AdminSources {
    /// Registry answering `MetricsDelta`.
    pub registry: Arc<Registry>,
    /// Flight ring answering `FlightDump`; `None` serves empty dumps.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Called per `Health` request.
    pub health: Arc<dyn Fn() -> HealthReport + Send + Sync>,
}

struct AdminShared {
    me: Identity,
    sources: AdminSources,
    epoch: u64,
    sockets: Sockets,
}

impl Service for AdminShared {
    fn identity(&self) -> &Identity {
        &self.me
    }

    fn sockets(&self) -> &Sockets {
        &self.sockets
    }

    /// The request loop for one scraper. Scrape cursors are per
    /// connection: a reconnect (and therefore a node or scraper
    /// restart) starts from scratch.
    fn serve(&self, peer: PeerId, key: Authenticator, stream: TcpStream) {
        hlf_obs::debug!("admin: accepted scraper {peer} on {}", self.me.id);
        let mut session = Session::new(stream, key);
        let mut scrape = ScrapeSession::new(self.epoch);
        while !self.sockets.is_closed() {
            let Ok(frame) = session.recv(MAX_FRAME) else {
                break;
            };
            let Some(request) = AdminRequest::decode(&frame) else {
                break;
            };
            if session.send(&build_response(self, &mut scrape, request)).is_err() {
                break;
            }
        }
    }
}

/// The serving side of the admin plane: own listener, one handler
/// thread per connection, per-connection scrape cursors.
pub struct AdminServer {
    shared: Arc<AdminShared>,
    local_addr: SocketAddr,
}

impl AdminServer {
    /// Binds the admin listener and starts accepting scrapers.
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure.
    pub fn bind(
        id: PeerId,
        listen: SocketAddr,
        secret: impl Into<Vec<u8>>,
        sources: AdminSources,
    ) -> io::Result<AdminServer> {
        let shared = Arc::new(AdminShared {
            me: Identity::new(id, secret, session::ADMIN),
            sources,
            epoch: fresh_epoch(),
            sockets: Sockets::default(),
        });
        let local_addr = session::listen(listen, Arc::clone(&shared))?;
        Ok(AdminServer { shared, local_addr })
    }

    /// The bound admin address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server instance's epoch (what delta replies carry).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Stops accepting and closes every admin connection. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        self.shared.sockets.close(self.local_addr);
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A unique-per-instance epoch: wall-clock nanoseconds plus a process
/// counter, so two servers created back-to-back still differ.
fn fresh_epoch() -> u64 {
    static EPOCH_COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos.wrapping_add(EPOCH_COUNTER.fetch_add(1, Ordering::Relaxed))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    buf.get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Builds one response body (kind echo + kind-specific payload).
fn build_response(
    shared: &AdminShared,
    scrape: &mut ScrapeSession,
    request: AdminRequest,
) -> Vec<u8> {
    let mut out = vec![request.kind()];
    match request {
        AdminRequest::MetricsDelta { cursor } => {
            let (new_cursor, delta) = scrape.serve(shared.sources.registry.snapshot(), cursor);
            out.extend_from_slice(&shared.epoch.to_le_bytes());
            out.extend_from_slice(&new_cursor.to_le_bytes());
            out.extend_from_slice(delta.to_json().as_bytes());
        }
        AdminRequest::FlightDump { cursor } => {
            let (new_cursor, dump) = match &shared.sources.flight {
                Some(flight) => {
                    let (new_cursor, events) = flight.events_since(cursor);
                    (
                        new_cursor,
                        FlightDump {
                            node: flight.name().to_string(),
                            events,
                        },
                    )
                }
                None => (
                    cursor,
                    FlightDump {
                        node: String::new(),
                        events: Vec::new(),
                    },
                ),
            };
            out.extend_from_slice(&new_cursor.to_le_bytes());
            out.extend_from_slice(dump.to_json().as_bytes());
        }
        AdminRequest::Health => {
            out.extend_from_slice(&(shared.sources.health)().encode());
        }
    }
    out
}

/// The scraping side: one authenticated connection to one node's
/// admin endpoint, with the delta/flight cursors tracked internally —
/// callers just call [`metrics_delta`](AdminClient::metrics_delta) /
/// [`flight_events`](AdminClient::flight_events) repeatedly. Dropping
/// the client (or the node restarting) drops the cursors with the
/// connection, which is exactly the reset semantics the protocol
/// wants.
pub struct AdminClient {
    session: Session,
    delta_cursor: u64,
    flight_cursor: u64,
}

impl AdminClient {
    /// Dials `addr` and handshakes as `me` against the node `server`,
    /// under the shared cluster `secret`.
    ///
    /// # Errors
    ///
    /// Socket errors, or `InvalidData` when the ACK fails
    /// authentication (wrong secret or wrong peer identity).
    pub fn connect(
        addr: SocketAddr,
        secret: &[u8],
        me: PeerId,
        server: PeerId,
    ) -> io::Result<AdminClient> {
        let me = Identity::new(me, secret, session::ADMIN);
        let (stream, key) = session::initiate(&me, server, addr)?;
        Ok(AdminClient {
            session: Session::new(stream, key),
            delta_cursor: 0,
            flight_cursor: 0,
        })
    }

    /// One request/response exchange; returns the kind-checked body.
    fn exchange(&mut self, request: AdminRequest) -> io::Result<Vec<u8>> {
        self.session.send(&request.encode())?;
        let response = self.session.recv(MAX_FRAME)?;
        let (kind, body) = response
            .as_ref()
            .split_first()
            .ok_or_else(|| invalid("empty admin response"))?;
        if *kind != request.kind() {
            return Err(invalid("admin response kind mismatch"));
        }
        Ok(body.to_vec())
    }

    /// Fetches the change since the previous call on this connection
    /// (the full snapshot on the first call).
    ///
    /// # Errors
    ///
    /// Socket errors or malformed/forged responses (`InvalidData`).
    pub fn metrics_delta(&mut self) -> io::Result<DeltaReply> {
        let body = self.exchange(AdminRequest::MetricsDelta {
            cursor: self.delta_cursor,
        })?;
        let epoch = read_u64(&body, 0).ok_or_else(|| invalid("short delta response"))?;
        let cursor = read_u64(&body, 8).ok_or_else(|| invalid("short delta response"))?;
        let json = body.get(16..).ok_or_else(|| invalid("short delta response"))?;
        let text = std::str::from_utf8(json).map_err(|_| invalid("delta is not UTF-8"))?;
        let delta =
            Snapshot::from_json(text).map_err(|err| invalid(&format!("bad delta json: {err}")))?;
        self.delta_cursor = cursor;
        Ok(DeltaReply { epoch, delta })
    }

    /// Drains flight-recorder events recorded since the previous call
    /// on this connection.
    ///
    /// # Errors
    ///
    /// Socket errors or malformed/forged responses (`InvalidData`).
    pub fn flight_events(&mut self) -> io::Result<FlightDump> {
        let body = self.exchange(AdminRequest::FlightDump {
            cursor: self.flight_cursor,
        })?;
        let cursor = read_u64(&body, 0).ok_or_else(|| invalid("short flight response"))?;
        let json = body.get(8..).ok_or_else(|| invalid("short flight response"))?;
        let text = std::str::from_utf8(json).map_err(|_| invalid("dump is not UTF-8"))?;
        let dump =
            FlightDump::from_json(text).map_err(|err| invalid(&format!("bad dump json: {err}")))?;
        self.flight_cursor = cursor;
        Ok(dump)
    }

    /// Fetches the fixed health gauges.
    ///
    /// # Errors
    ///
    /// Socket errors or malformed/forged responses (`InvalidData`).
    pub fn health(&mut self) -> io::Result<HealthReport> {
        let body = self.exchange(AdminRequest::Health)?;
        HealthReport::decode(&body).ok_or_else(|| invalid("bad health response"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_obs::EventKind;

    fn sources(registry: Arc<Registry>, flight: Option<Arc<FlightRecorder>>) -> AdminSources {
        AdminSources {
            registry,
            flight,
            health: Arc::new(|| HealthReport {
                regency: 1,
                window: 2,
                frontier: 3,
                suspected: 0,
                decided: 4,
                uptime_us: 5,
            }),
        }
    }

    fn serve(registry: Arc<Registry>, flight: Option<Arc<FlightRecorder>>) -> AdminServer {
        AdminServer::bind(
            PeerId::replica(0),
            "127.0.0.1:0".parse().unwrap(),
            b"admin-test".as_slice(),
            sources(registry, flight),
        )
        .unwrap()
    }

    fn client(server: &AdminServer) -> AdminClient {
        AdminClient::connect(
            server.local_addr(),
            b"admin-test",
            PeerId::client(9000),
            PeerId::replica(0),
        )
        .unwrap()
    }

    #[test]
    fn request_encoding_round_trips() {
        for (request, kind) in [
            (AdminRequest::MetricsDelta { cursor: 7 }, 2),
            (AdminRequest::FlightDump { cursor: u64::MAX }, 3),
            (AdminRequest::Health, 4),
        ] {
            assert_eq!(request.encode()[0], kind);
            assert_eq!(AdminRequest::decode(&request.encode()), Some(request));
        }
        assert_eq!(AdminRequest::decode(&[]), None);
        // Kind 1 was the full-snapshot request; the first delta is that now.
        assert_eq!(AdminRequest::decode(&[1, 0, 0, 0, 0, 0, 0, 0, 0]), None);
        assert_eq!(AdminRequest::decode(&[9; 9]), None);
    }

    #[test]
    fn health_report_encoding_round_trips() {
        let report = HealthReport {
            regency: 1,
            window: 2,
            frontier: u64::MAX,
            suspected: 4,
            decided: 5,
            uptime_us: 6,
        };
        assert_eq!(HealthReport::decode(&report.encode()), Some(report));
        assert_eq!(HealthReport::decode(&[0; 47]), None);
    }

    #[test]
    fn snapshot_and_health_over_socket() {
        let registry = Registry::new("node-0");
        registry.counter("a.b.count").add(42);
        let server = serve(Arc::clone(&registry), None);
        let mut client = client(&server);

        let snap = client.metrics_delta().unwrap().delta;
        assert_eq!(snap.registry, "node-0");
        assert_eq!(snap.counter_value("a.b.count"), Some(42));

        let health = client.health().unwrap();
        assert_eq!(health.frontier, 3);
        assert_eq!(health.decided, 4);
        server.shutdown();
    }

    #[test]
    fn deltas_ship_only_movement() {
        let registry = Registry::new("node-0");
        let counter = registry.counter("a.b.count");
        counter.add(10);
        let server = serve(Arc::clone(&registry), None);
        let mut client = client(&server);

        // First delta: the full snapshot.
        let first = client.metrics_delta().unwrap();
        assert_eq!(first.epoch, server.epoch());
        assert_eq!(first.delta.counter_value("a.b.count"), Some(10));

        // Nothing moved: empty delta.
        let idle = client.metrics_delta().unwrap();
        assert!(idle.delta.metrics.is_empty(), "{:?}", idle.delta);

        // Movement ships as a difference.
        counter.add(5);
        let moved = client.metrics_delta().unwrap();
        assert_eq!(moved.delta.counter_value("a.b.count"), Some(5));
        server.shutdown();
    }

    /// A restarted node = a fresh process = a fresh handshake and a
    /// fresh epoch. The reconnected scraper gets a full snapshot (no
    /// negative garbage from differencing across generations).
    #[test]
    fn restart_resets_cursor_and_changes_epoch() {
        let registry_a = Registry::new("node-0");
        registry_a.counter("a.b.count").add(100);
        let server_a = serve(registry_a, None);
        let mut client_a = client(&server_a);
        let before = client_a.metrics_delta().unwrap();
        assert_eq!(before.delta.counter_value("a.b.count"), Some(100));
        let epoch_a = before.epoch;
        server_a.shutdown();
        drop(server_a);

        // "Restart": a new process instance, same logical node, lower
        // counter value than the scraper has already seen.
        let registry_b = Registry::new("node-0");
        registry_b.counter("a.b.count").add(3);
        let server_b = serve(registry_b, None);
        let mut client_b = client(&server_b);
        let after = client_b.metrics_delta().unwrap();
        assert_ne!(after.epoch, epoch_a, "epoch must change across restarts");
        // Full value, not 3 - 100 wrapped into garbage.
        assert_eq!(after.delta.counter_value("a.b.count"), Some(3));
        server_b.shutdown();
    }

    #[test]
    fn flight_events_drain_through_cursor() {
        let registry = Registry::new("node-0");
        let flight = Arc::new(FlightRecorder::new("node-0"));
        flight.record_now(EventKind::Decide, 1, 5, 100);
        flight.record_now(EventKind::Decide, 2, 5, 110);
        let server = serve(registry, Some(Arc::clone(&flight)));
        let mut client = client(&server);

        let first = client.flight_events().unwrap();
        assert_eq!(first.node, "node-0");
        assert_eq!(first.events.len(), 2);

        // Cursor advanced: nothing new.
        assert!(client.flight_events().unwrap().events.is_empty());

        // New events drain incrementally.
        flight.record_now(EventKind::Decide, 3, 5, 120);
        let more = client.flight_events().unwrap();
        assert_eq!(more.events.len(), 1);
        assert_eq!(more.events.first().map(|e| e.a), Some(3));
        server.shutdown();
    }

    #[test]
    fn wrong_secret_cannot_connect() {
        let registry = Registry::new("node-0");
        let server = serve(registry, None);
        let err = AdminClient::connect(
            server.local_addr(),
            b"not-the-secret",
            PeerId::client(9000),
            PeerId::replica(0),
        );
        assert!(err.is_err());
        server.shutdown();
    }
}
