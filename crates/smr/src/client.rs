//! Client-side service proxies, mirroring BFT-SMaRt's `ServiceProxy`
//! and `AsynchServiceProxy`.
//!
//! A client sends its requests to **all** replicas and (for synchronous
//! invocations) waits for matching replies from enough distinct
//! replicas: `f + 1` under classic BFT-SMaRt, a full quorum under
//! WHEAT's tentative execution (paper §4). The ordering service's
//! frontends use the asynchronous path plus the push stream.
//!
//! # Request windows
//!
//! A request never crosses the transport alone if others are waiting
//! with it. [`ServiceProxy::invoke_async`] appends to a private window;
//! the window is encoded once, as one [`SmrMsg::Requests`] frame (the
//! message and nothing after it), and
//! sent to every replica when it holds 64 requests or 64 KiB of
//! payload, **before the proxy would wait**
//! ([`ServiceProxy::next_push`] about to block, [`ServiceProxy::try_push`]
//! finding nothing, [`ServiceProxy::invoke`]), on
//! [`ServiceProxy::flush`] and on drop. There is no timer and no thread:
//! the age bound is the caller's next wait, which adds no delay to a
//! loop that submits and then takes what comes back. A caller that
//! submits and never waits holds `std::io::BufWriter`'s contract: call
//! `flush` when the requests must leave.

use crate::obs::ProxyObs;
use crate::wire::SmrMsg;
use hlf_wire::Bytes;
use hlf_consensus::messages::Request;
use hlf_obs::Registry;
use hlf_transport::{Endpoint, Network, PeerId, TransportError};
use hlf_wire::{from_bytes_shared, to_bytes, ClientId, NodeId};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Proxy configuration.
#[derive(Clone, Debug)]
pub struct ProxyConfig {
    /// This client's identity.
    pub id: ClientId,
    /// Number of replicas.
    pub n: usize,
    /// Matching replies required to accept a result.
    pub reply_threshold: usize,
    /// How long a synchronous invocation waits in total.
    pub invoke_timeout: Duration,
    /// Retransmissions of the same request within the timeout (lost
    /// requests or replies are re-answered from the replicas' reply
    /// caches, as in BFT-SMaRt).
    pub retransmissions: u32,
}

impl ProxyConfig {
    /// Classic configuration: wait for `f + 1` matching replies.
    pub fn classic(id: ClientId, n: usize, f: usize) -> ProxyConfig {
        ProxyConfig {
            id,
            n,
            reply_threshold: f + 1,
            invoke_timeout: Duration::from_secs(20),
            retransmissions: 2,
        }
    }

    /// WHEAT/tentative configuration: wait for `⌈(n+f+1)/2⌉` matching
    /// replies, compensating for the tentative delivery (paper §4).
    pub fn tentative(id: ClientId, n: usize, f: usize) -> ProxyConfig {
        ProxyConfig {
            id,
            n,
            reply_threshold: (n + f + 1).div_ceil(2),
            invoke_timeout: Duration::from_secs(20),
            retransmissions: 2,
        }
    }
}

/// Invocation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvokeError {
    /// Not enough matching replies before the timeout.
    Timeout,
    /// The transport hub is gone.
    Disconnected,
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::Timeout => f.write_str("invocation timed out"),
            InvokeError::Disconnected => f.write_str("transport disconnected"),
        }
    }
}

impl Error for InvokeError {}

/// A pushed (unsolicited) message from a replica.
#[derive(Clone, Debug, PartialEq)]
pub struct Push {
    /// Sending replica.
    pub from: NodeId,
    /// Payload.
    pub payload: Bytes,
}

/// A window closes at this many requests...
///
/// Measured on `tcp_small` (200-byte envelopes, three interleaved
/// runs each): 50.5k tx/s at 16, 49.9k at 64, 50.7k at 256 — flat, so
/// these are constants and not configuration.
const WINDOW_MAX_REQUESTS: usize = 64;
/// ...or at this many payload bytes, whichever comes first (4 KiB
/// envelopes close a window at 16).
const WINDOW_MAX_BYTES: usize = 64 * 1024;

/// Client proxy over a transport [`Endpoint`] (in-process hub or TCP).
///
/// Requests reach every replica in per-client `seq` order; asynchronous
/// ones travel in windows (see the module docs).
pub struct ServiceProxy {
    endpoint: Endpoint,
    config: ProxyConfig,
    next_seq: u64,
    /// Requests taken by `invoke_async` and not yet sent, in `seq` order.
    window: Vec<Request>,
    /// Payload bytes held in `window`.
    window_bytes: usize,
    /// Push messages received while waiting for replies.
    pushes: VecDeque<Push>,
    /// `smr.client.*` metrics, in the registry given to
    /// [`ServiceProxy::attach_obs`] or a private one.
    obs: ProxyObs,
}

impl fmt::Debug for ServiceProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceProxy")
            .field("id", &self.config.id)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl ServiceProxy {
    /// Joins `network` as this client and returns the proxy.
    pub fn new(network: &Network, config: ProxyConfig) -> ServiceProxy {
        let endpoint = network.join(PeerId::Client(config.id.0));
        ServiceProxy::with_endpoint(endpoint, config)
    }

    /// Builds the proxy over an already-built [`Endpoint`] — the
    /// multi-process path, where the endpoint wraps a TCP network.
    /// The endpoint's id must be `PeerId::Client(config.id)`.
    pub fn with_endpoint(endpoint: Endpoint, config: ProxyConfig) -> ServiceProxy {
        debug_assert_eq!(endpoint.id(), PeerId::Client(config.id.0), "endpoint/config id mismatch");
        ServiceProxy {
            obs: ProxyObs::new(&Registry::new(format!("client-{}", config.id.0))),
            endpoint,
            config,
            next_seq: 1,
            window: Vec::new(),
            window_bytes: 0,
            pushes: VecDeque::new(),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.config.id
    }

    /// Records client metrics (`smr.client.*`) into `registry` from now
    /// on instead of the proxy's private one. Safe to call on proxies
    /// sharing one registry: the metrics aggregate across them.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = ProxyObs::new(registry);
    }

    /// Registers with every replica for pushes without submitting a
    /// request (receiver-only frontends).
    pub fn subscribe(&self) {
        let bytes = Bytes::from(to_bytes(&SmrMsg::Subscribe));
        for replica in 0..self.config.n {
            let _ = self.endpoint.send(PeerId::replica(replica as u32), bytes.clone());
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Sends `requests` (one window, or one synchronous request and its
    /// retransmissions) to every replica as one frame, encoded once.
    fn transmit(&self, requests: Vec<Request>) {
        if requests.is_empty() {
            return;
        }
        let bytes = Bytes::from(to_bytes(&SmrMsg::Requests(requests)));
        for replica in 0..self.config.n {
            let _ = self
                .endpoint
                .send(PeerId::replica(replica as u32), bytes.clone());
        }
    }

    /// Queues a request without waiting for any reply and returns its
    /// `seq` (the ordering service's frontends use this: blocks come
    /// back via the push stream, not as replies).
    ///
    /// The request is on the wire once its window closes: at the count
    /// or byte bound, at this proxy's next wait ([`Self::next_push`],
    /// [`Self::try_push`] coming up empty, [`Self::invoke`]), at
    /// [`Self::flush`] or on drop. A caller that only ever submits must
    /// call `flush` itself, as with a `BufWriter`.
    pub fn invoke_async(&mut self, payload: impl Into<Bytes>) -> u64 {
        let payload = payload.into();
        let seq = self.take_seq();
        self.window_bytes += payload.len();
        self.window.push(Request::new(self.config.id, seq, payload));
        if self.window.len() >= WINDOW_MAX_REQUESTS || self.window_bytes >= WINDOW_MAX_BYTES {
            self.flush();
        }
        seq
    }

    /// Sends the pending window, if any, to every replica now.
    pub fn flush(&mut self) {
        self.window_bytes = 0;
        let window = std::mem::take(&mut self.window);
        self.transmit(window);
    }

    /// Sends a request and waits for `reply_threshold` matching replies,
    /// retransmitting within the timeout (replicas answer duplicates
    /// from their reply caches). A pending window goes out first, so
    /// replicas see this client's requests in `seq` order.
    ///
    /// # Errors
    ///
    /// `InvokeError::Timeout` if agreement on a reply is not reached
    /// in time; `InvokeError::Disconnected` if the hub is gone.
    pub fn invoke(&mut self, payload: impl Into<Bytes>) -> Result<Bytes, InvokeError> {
        let payload = payload.into();
        let sent_at = Instant::now();
        self.flush();
        let seq = self.take_seq();
        let request = Request::new(self.config.id, seq, payload);
        self.transmit(vec![request.clone()]);
        let deadline = sent_at + self.config.invoke_timeout;
        let slice = self.config.invoke_timeout / (self.config.retransmissions + 1);
        let mut next_retransmit = sent_at + slice;
        // payload -> distinct replicas that sent it
        #[allow(clippy::mutable_key_type, reason = "`Bytes` hashes and compares by content, not by its pool handle")]
        let mut votes: HashMap<Bytes, Vec<NodeId>> = HashMap::new();
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.obs.invoke_timeouts.inc();
                hlf_obs::warn!("client {} invocation seq {seq} timed out", self.config.id.0);
                return Err(InvokeError::Timeout);
            }
            if now >= next_retransmit {
                self.transmit(vec![request.clone()]);
                self.obs.retransmits.inc();
                hlf_obs::debug!("client {} retransmitting seq {seq}", self.config.id.0);
                next_retransmit = now + slice;
            }
            let wait = (deadline - now).min(next_retransmit - now);
            match self.endpoint.recv_timeout(wait) {
                Ok((PeerId::Replica(id), raw)) => {
                    let Ok(msg) = from_bytes_shared::<SmrMsg>(&raw) else {
                        continue;
                    };
                    let SmrMsg::Reply {
                        seq: reply_seq,
                        payload,
                    } = msg
                    else {
                        continue;
                    };
                    if reply_seq == 0 {
                        self.pushes.push_back(Push {
                            from: NodeId(id),
                            payload,
                        });
                        continue;
                    }
                    if reply_seq != seq {
                        continue; // stale reply to an older invocation
                    }
                    let entry = votes.entry(payload.clone()).or_default();
                    if !entry.contains(&NodeId(id)) {
                        entry.push(NodeId(id));
                    }
                    if entry.len() >= self.config.reply_threshold {
                        self.obs.invoke_us.record(sent_at.elapsed().as_micros() as u64);
                        return Ok(payload);
                    }
                }
                Ok(_) => continue,
                // A slice timeout just loops back to retransmit; the
                // overall deadline is enforced at the loop head.
                Err(TransportError::Timeout) => continue,
                Err(_) => return Err(InvokeError::Disconnected),
            }
        }
    }

    /// Returns the next pushed message, waiting up to `timeout`. A push
    /// that already arrived is returned as is; the pending window is
    /// flushed only before this call would block.
    pub fn next_push(&mut self, timeout: Duration) -> Option<Push> {
        // Empty-handed, `try_push` has flushed the window.
        if let Some(push) = self.try_push() {
            return Some(push);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match self.endpoint.recv_timeout(deadline - now) {
                Ok((PeerId::Replica(id), raw)) => {
                    let Ok(SmrMsg::Reply { seq, payload }) = from_bytes_shared::<SmrMsg>(&raw)
                    else {
                        continue;
                    };
                    if seq == 0 {
                        return Some(Push {
                            from: NodeId(id),
                            payload,
                        });
                    }
                    // A reply to a request we no longer wait on: drop.
                }
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    /// Non-blocking variant of [`ServiceProxy::next_push`]. Finding
    /// nothing, it flushes the pending window: the caller is about to
    /// wait on something.
    pub fn try_push(&mut self) -> Option<Push> {
        if let Some(push) = self.pushes.pop_front() {
            return Some(push);
        }
        while let Some((from, raw)) = self.endpoint.try_recv() {
            if let (PeerId::Replica(id), Ok(SmrMsg::Reply { seq: 0, payload })) =
                (from, from_bytes_shared::<SmrMsg>(&raw))
            {
                return Some(Push {
                    from: NodeId(id),
                    payload,
                });
            }
        }
        self.flush();
        None
    }
}

impl Drop for ServiceProxy {
    /// Sends what `invoke_async` still holds (send errors are ignored,
    /// as everywhere on the submit path).
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_wire::from_bytes;

    /// Decodes a client→replica frame into the window it carries.
    fn window_of(raw: &[u8]) -> Vec<Request> {
        match from_bytes::<SmrMsg>(raw).unwrap() {
            SmrMsg::Requests(requests) => requests,
            other => panic!("expected a request window, got {other:?}"),
        }
    }

    /// A synchronous invocation travels as a window of one.
    fn single(raw: &[u8]) -> Request {
        let mut requests = window_of(raw);
        assert_eq!(requests.len(), 1, "expected a window of one");
        requests.remove(0)
    }

    /// The `seq`s of every frame waiting at a fake replica, one inner
    /// vector per frame. (Hub sends are synchronous hand-offs: what was
    /// sent is already in the mailbox.)
    fn frames_at(replica: &Endpoint) -> Vec<Vec<u64>> {
        std::iter::from_fn(|| replica.try_recv())
            .map(|(from, raw)| {
                assert_eq!(from, PeerId::client(5));
                window_of(&raw).iter().map(|r| r.seq).collect()
            })
            .collect()
    }

    /// A proxy for client 5 and `n` fake replica endpoints.
    fn window_fixture(n: usize) -> (ServiceProxy, Vec<Endpoint>) {
        let network = Network::new();
        let mut cfg = ProxyConfig::classic(ClientId(5), n, 0);
        cfg.invoke_timeout = Duration::from_millis(60);
        let proxy = ServiceProxy::new(&network, cfg);
        let replicas = (0..n as u32).map(|i| network.join(PeerId::replica(i))).collect();
        (proxy, replicas)
    }

    fn assert_silent(replicas: &[Endpoint]) {
        for replica in replicas {
            assert_eq!(frames_at(replica), Vec::<Vec<u64>>::new());
        }
    }

    #[test]
    fn count_bound_closes_the_window_once_in_seq_order() {
        let (mut proxy, replicas) = window_fixture(4);
        for _ in 1..WINDOW_MAX_REQUESTS {
            proxy.invoke_async(&b"tx"[..]);
        }
        assert_silent(&replicas); // one short of the bound: nothing left yet
        assert_eq!(proxy.invoke_async(&b"tx"[..]), WINDOW_MAX_REQUESTS as u64);
        let expected: Vec<u64> = (1..=WINDOW_MAX_REQUESTS as u64).collect();
        for replica in &replicas {
            // One frame per replica per window.
            assert_eq!(frames_at(replica), vec![expected.clone()]);
        }
        // The next window starts empty.
        proxy.invoke_async(&b"tx"[..]);
        assert_silent(&replicas);
    }

    #[test]
    fn byte_bound_closes_the_window_once_in_seq_order() {
        let (mut proxy, replicas) = window_fixture(2);
        let quarter = vec![7u8; WINDOW_MAX_BYTES / 4];
        for _ in 0..3 {
            proxy.invoke_async(quarter.clone());
        }
        assert_silent(&replicas);
        proxy.invoke_async(quarter.clone());
        for replica in &replicas {
            assert_eq!(frames_at(replica), vec![vec![1, 2, 3, 4]]);
        }
        // The byte count restarted with the window.
        proxy.invoke_async(quarter);
        assert_silent(&replicas);
    }

    #[test]
    fn window_leaves_on_flush_and_on_drop_and_not_before() {
        let (mut proxy, replicas) = window_fixture(4);
        proxy.flush(); // empty: sends nothing
        assert_silent(&replicas);
        for _ in 0..3 {
            proxy.invoke_async(&b"tx"[..]);
        }
        assert_silent(&replicas);
        proxy.flush();
        for replica in &replicas {
            assert_eq!(frames_at(replica), vec![vec![1, 2, 3]]);
        }
        proxy.flush(); // already sent: nothing again
        assert_silent(&replicas);
        proxy.invoke_async(&b"tx"[..]);
        proxy.invoke_async(&b"tx"[..]);
        assert_silent(&replicas);
        drop(proxy);
        for replica in &replicas {
            assert_eq!(frames_at(replica), vec![vec![4, 5]]);
        }
    }

    #[test]
    fn waiting_for_a_push_flushes_only_when_it_would_block() {
        let (mut proxy, replicas) = window_fixture(2);
        let push = SmrMsg::Reply {
            seq: 0,
            payload: Bytes::from_static(b"block-1"),
        };
        let push = Bytes::from(to_bytes(&push));
        replicas[0].send(PeerId::client(5), push.clone()).unwrap();
        replicas[1].send(PeerId::client(5), push).unwrap();
        proxy.invoke_async(&b"tx"[..]);
        proxy.invoke_async(&b"tx"[..]);
        // Pushes are waiting: both calls return one without sending.
        assert_eq!(proxy.next_push(Duration::from_secs(5)).unwrap().from, NodeId(0));
        assert_silent(&replicas);
        assert_eq!(proxy.try_push().unwrap().from, NodeId(1));
        assert_silent(&replicas);
        // Nothing is waiting: the window goes out before the proxy blocks.
        assert_eq!(proxy.next_push(Duration::from_millis(20)), None);
        for replica in &replicas {
            assert_eq!(frames_at(replica), vec![vec![1, 2]]);
        }
        // Same for the non-blocking form coming up empty.
        proxy.invoke_async(&b"tx"[..]);
        assert_eq!(proxy.try_push(), None);
        for replica in &replicas {
            assert_eq!(frames_at(replica), vec![vec![3]]);
        }
    }

    #[test]
    fn invoke_sends_the_pending_window_first() {
        let (mut proxy, replicas) = window_fixture(2);
        proxy.invoke_async(&b"tx"[..]);
        proxy.invoke_async(&b"tx"[..]);
        // Nobody answers; the request and its two retransmissions follow
        // the window, each as a window of one.
        assert_eq!(proxy.invoke(&b"query"[..]), Err(InvokeError::Timeout));
        for replica in &replicas {
            assert_eq!(frames_at(replica), vec![vec![1, 2], vec![3], vec![3], vec![3]]);
        }
    }

    #[test]
    fn thresholds_match_paper() {
        let classic = ProxyConfig::classic(ClientId(1), 4, 1);
        assert_eq!(classic.reply_threshold, 2);
        // WHEAT with 5 replicas: ⌈(5+1+1)/2⌉ = 4 replies.
        let wheat = ProxyConfig::tentative(ClientId(1), 5, 1);
        assert_eq!(wheat.reply_threshold, 4);
    }

    #[test]
    fn invoke_collects_matching_replies() {
        let network = Network::new();
        let mut proxy = ServiceProxy::new(&network, ProxyConfig::classic(ClientId(5), 2, 0));
        // Fake replicas answer by hand.
        let r0 = network.join(PeerId::replica(0));
        let r1 = network.join(PeerId::replica(1));
        let answer = std::thread::spawn(move || {
            for replica in [&r0, &r1] {
                let (from, raw) = replica.recv_timeout(Duration::from_secs(5)).unwrap();
                let req = single(&raw);
                assert_eq!(from, PeerId::client(5));
                let reply = SmrMsg::Reply {
                    seq: req.seq,
                    payload: Bytes::from_static(b"result"),
                };
                replica
                    .send(from, Bytes::from(to_bytes(&reply)))
                    .unwrap();
            }
        });
        // threshold = f+1 = 1: first matching reply wins.
        let result = proxy.invoke(&b"query"[..]).unwrap();
        assert_eq!(result, Bytes::from_static(b"result"));
        answer.join().unwrap();
    }

    #[test]
    fn invoke_times_out_without_replies() {
        let network = Network::new();
        let _r0 = network.join(PeerId::replica(0));
        let mut cfg = ProxyConfig::classic(ClientId(5), 1, 0);
        cfg.invoke_timeout = Duration::from_millis(50);
        let mut proxy = ServiceProxy::new(&network, cfg);
        assert_eq!(proxy.invoke(&b"query"[..]), Err(InvokeError::Timeout));
    }

    #[test]
    fn retransmission_recovers_lost_reply() {
        let network = Network::new();
        let mut cfg = ProxyConfig::classic(ClientId(5), 1, 0);
        cfg.invoke_timeout = Duration::from_millis(600);
        cfg.retransmissions = 2;
        let mut proxy = ServiceProxy::new(&network, cfg);
        let r0 = network.join(PeerId::replica(0));
        let answer = std::thread::spawn(move || {
            // Swallow the first transmission (the "lost" request)...
            let (_, raw) = r0.recv_timeout(Duration::from_secs(5)).unwrap();
            let first = single(&raw);
            // ...and answer only the retransmission, as a replica's
            // reply cache would.
            let (from, raw) = r0.recv_timeout(Duration::from_secs(5)).unwrap();
            let second = single(&raw);
            assert_eq!(first.seq, second.seq, "retransmission reuses the seq");
            let reply = SmrMsg::Reply {
                seq: second.seq,
                payload: Bytes::from_static(b"cached"),
            };
            r0.send(from, Bytes::from(to_bytes(&reply))).unwrap();
        });
        let result = proxy.invoke(&b"query"[..]).unwrap();
        assert_eq!(result, Bytes::from_static(b"cached"));
        answer.join().unwrap();
    }

    #[test]
    fn pushes_are_buffered_during_invoke() {
        let network = Network::new();
        let mut cfg = ProxyConfig::classic(ClientId(5), 1, 0);
        cfg.invoke_timeout = Duration::from_millis(200);
        let mut proxy = ServiceProxy::new(&network, cfg);
        let r0 = network.join(PeerId::replica(0));
        let answer = std::thread::spawn(move || {
            let (from, raw) = r0.recv_timeout(Duration::from_secs(5)).unwrap();
            let req = single(&raw);
            // Push first, then the real reply.
            let push = SmrMsg::Reply {
                seq: 0,
                payload: Bytes::from_static(b"block-1"),
            };
            r0.send(from, Bytes::from(to_bytes(&push))).unwrap();
            let reply = SmrMsg::Reply {
                seq: req.seq,
                payload: Bytes::from_static(b"ok"),
            };
            r0.send(from, Bytes::from(to_bytes(&reply))).unwrap();
        });
        let result = proxy.invoke(&b"query"[..]).unwrap();
        assert_eq!(result, Bytes::from_static(b"ok"));
        let push = proxy.next_push(Duration::from_millis(100)).unwrap();
        assert_eq!(push.payload, Bytes::from_static(b"block-1"));
        assert_eq!(push.from, NodeId(0));
        answer.join().unwrap();
    }
}
