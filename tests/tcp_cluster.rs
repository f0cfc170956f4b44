//! Connection-lifecycle test for the real-socket cluster: all four
//! ordering replicas run over their own `TcpNetwork` (every frame
//! crosses a real localhost socket), one replica is killed mid-run and
//! restarted on a fresh port, and the cluster must
//!
//! * keep ordering while the replica is down (`f = 1`),
//! * re-handshake with the restarted process — a fresh HELLO/ACK
//!   nonce exchange, i.e. a new session key — observable as
//!   `transport.net.reconnects` on a surviving peer,
//! * and never deliver any envelope twice across the whole run.
//!
//! Replica 0 runs with an explicit flight recorder (the way `hlf_node`
//! hands one to its admin endpoint): its ring must show the signing
//! phase, which the multi-process assembly used to leave out.

use hlf_obs::flight::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_smr::node::NodeHandle;
use hlf_transport::{PeerId, TcpConfig, TcpNetwork};
use hlf_wire::Bytes;
use ordering_core::frontend::Frontend;
use ordering_core::proc::{
    connect_frontend_endpoint, start_replica_endpoint, start_replica_endpoint_with_flight,
};
use ordering_core::service::ServiceOptions;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 4;
const SECRET: &[u8] = b"lifecycle";
const FRONTEND: u32 = 900;

fn options() -> ServiceOptions {
    ServiceOptions::new(1)
        .with_block_size(5)
        .with_signing_threads(1)
        .with_request_timeout_ms(60_000)
        .with_pipeline_depth(2)
        .with_flush_on_batch_end(true)
}

/// Binds a replica's network on an ephemeral port (peers are wired up
/// afterwards via `add_peer`, which also re-addresses live links).
fn bind_replica(i: u32) -> TcpNetwork {
    TcpNetwork::bind(TcpConfig::new(
        PeerId::replica(i),
        "127.0.0.1:0".parse().expect("addr"),
        SECRET,
    ))
    .expect("bind replica network")
}

fn wire_full_mesh(networks: &[&TcpNetwork], frontend: &TcpNetwork) {
    for a in networks {
        for b in networks {
            if a.id() != b.id() {
                a.add_peer(b.id(), b.local_addr());
            }
        }
        a.add_peer(frontend.id(), frontend.local_addr());
        frontend.add_peer(a.id(), a.local_addr());
    }
}

/// Submits `count` uniquely-numbered envelopes and drains blocks until
/// they all come back, folding every delivered envelope into `seen`
/// (duplicates panic).
fn order_round(frontend: &mut Frontend, base: u64, count: u64, seen: &mut HashSet<Vec<u8>>) {
    for i in 0..count {
        let mut payload = vec![0u8; 48];
        payload[..8].copy_from_slice(&(base + i).to_le_bytes());
        frontend.submit(Bytes::from(payload));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut delivered = 0u64;
    while delivered < count {
        assert!(
            Instant::now() < deadline,
            "cluster stopped ordering: {delivered} of {count} delivered"
        );
        if let Some(block) = frontend.next_block(Duration::from_millis(100)) {
            for envelope in &block.envelopes {
                assert!(
                    seen.insert(envelope.as_ref().to_vec()),
                    "envelope delivered twice"
                );
            }
            delivered += block.envelopes.len() as u64;
        }
    }
}

fn start_node(i: usize, network: &TcpNetwork) -> NodeHandle {
    let registry = Registry::new(format!("lifecycle-node-{i}"));
    start_replica_endpoint(i, N, &options(), network.endpoint(), registry)
}

#[test]
fn killed_replica_rejoins_with_fresh_session_and_no_replays() {
    let nets: Vec<TcpNetwork> = (0..N as u32).map(bind_replica).collect();
    let front_net = TcpNetwork::bind(TcpConfig::new(
        PeerId::client(FRONTEND),
        "127.0.0.1:0".parse().expect("addr"),
        SECRET,
    ))
    .expect("bind frontend network");
    wire_full_mesh(&nets.iter().collect::<Vec<_>>(), &front_net);

    let traced = Arc::new(FlightRecorder::new("lifecycle-node-0"));
    let mut handles: Vec<Option<NodeHandle>> = (1..N).map(|i| Some(start_node(i, &nets[i]))).collect();
    handles.insert(
        0,
        Some(start_replica_endpoint_with_flight(
            0,
            N,
            &options(),
            nets[0].endpoint(),
            Registry::new("lifecycle-node-0"),
            Some(Arc::clone(&traced)),
        )),
    );
    let mut nets: Vec<Option<TcpNetwork>> = nets.into_iter().map(Some).collect();
    let mut frontend =
        connect_frontend_endpoint(FRONTEND, N, &options(), front_net.endpoint());
    let mut seen = HashSet::new();

    // Healthy cluster orders.
    order_round(&mut frontend, 0, 60, &mut seen);

    // The traced replica's ring covers the whole node: consensus phases
    // from the core and the signing phase from the signing pool.
    let kinds: HashSet<EventKind> = traced.events().iter().map(|e| e.kind).collect();
    for kind in [EventKind::Propose, EventKind::SignStart, EventKind::SignDone] {
        assert!(kinds.contains(&kind), "replica 0's flight ring has no {kind:?}");
    }

    // Kill replica 3: join its workers, close its sockets. Peers see
    // EOF and their writer links start backoff-retrying.
    if let Some(handle) = handles[3].take() {
        handle.shutdown();
    }
    if let Some(net) = nets[3].take() {
        net.shutdown();
    }

    // f = 1: three replicas keep ordering while one is down.
    order_round(&mut frontend, 1_000, 60, &mut seen);

    let survivor_reconnects_before = nets[0]
        .as_ref()
        .map(|n| n.net_stats().reconnects)
        .unwrap_or(0);

    // Restart replica 3 on a fresh port and re-address every peer.
    let reborn = bind_replica(3);
    for net in nets.iter().flatten() {
        net.add_peer(PeerId::replica(3), reborn.local_addr());
        reborn.add_peer(net.id(), net.local_addr());
    }
    front_net.add_peer(PeerId::replica(3), reborn.local_addr());
    reborn.add_peer(front_net.id(), front_net.local_addr());
    handles[3] = Some(start_node(3, &reborn));

    // The cluster keeps ordering with the replica back.
    order_round(&mut frontend, 2_000, 60, &mut seen);

    // A surviving peer re-handshook with the restarted process: its
    // link to replica 3 worked before, broke, and connected again with
    // a fresh nonce exchange (a new session key by construction).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reconnects = nets[0]
            .as_ref()
            .map(|n| n.net_stats().reconnects)
            .unwrap_or(0);
        if reconnects > survivor_reconnects_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica 0 never re-handshook with the restarted replica 3"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(seen.len(), 180, "every envelope delivered exactly once");

    for handle in handles.into_iter().flatten() {
        handle.shutdown();
    }
    for net in nets.into_iter().flatten() {
        net.shutdown();
    }
    reborn.shutdown();
    front_net.shutdown();
}
