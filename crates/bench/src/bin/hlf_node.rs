//! **`hlf-node`: one ordering-cluster member as one OS process.**
//!
//! Runs either a replica (consensus + block signing) or a frontend
//! (submit + collect workload driver) over the real-socket TCP
//! transport, so a 4-replica cluster is 4 kernel-scheduled processes
//! exchanging bytes through the loopback (or a real) network — the
//! deployment shape of the paper's §6.2 experiments.
//!
//! ```sh
//! # 4 replicas + a frontend driving 5000 envelopes (5 terminals):
//! hlf_node --role replica --id 0 --n 4 --listen 127.0.0.1:7100 \
//!   --peer replica:1=127.0.0.1:7101 --peer replica:2=127.0.0.1:7102 \
//!   --peer replica:3=127.0.0.1:7103 --peer client:1001=127.0.0.1:7110
//! # ... same for --id 1..3 (swap listen/peers) ...
//! hlf_node --role frontend --id 1001 --n 4 --listen 127.0.0.1:7110 \
//!   --peer replica:0=127.0.0.1:7100 --peer replica:1=127.0.0.1:7101 \
//!   --peer replica:2=127.0.0.1:7102 --peer replica:3=127.0.0.1:7103 \
//!   --count 5000
//! ```
//!
//! A replica runs until stdin reaches EOF (so a parent process
//! stopping — or closing the pipe — stops the node) or
//! `--duration-s` elapses; on exit it writes its obs registry snapshot
//! (including the `transport.net.*` socket counters) to `--obs-out`.
//!
//! With `--admin-listen ADDR` a replica also
//! serves the authenticated telemetry endpoint (`hlf_top` scrapes it
//! live: metric deltas, flight-recorder dumps, health).

use bench::{await_links, drive, node_options, Driven};
use hlf_obs::{FlightRecorder, Registry};
use hlf_transport::{AdminServer, AdminSources, HealthReport, PeerId, TcpConfig, TcpNetwork};
use ordering_core::proc::{connect_frontend_endpoint, start_replica_endpoint_with_flight};
use ordering_core::service::ServiceOptions;
use std::io::Read;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
struct NodeArgs {
    role: String,
    id: u32,
    n: usize,
    listen: String,
    secret: String,
    peers: Vec<(PeerId, SocketAddr)>,
    /// `bench::node_options`, which the processes started
    /// beside this one also run with, as overridden by flags.
    options: ServiceOptions,
    obs_out: Option<String>,
    admin_listen: Option<String>,
    out: Option<String>,
    duration_s: Option<u64>,
    // Frontend workload knobs.
    count: u64,
    envelope_bytes: usize,
    window: u64,
}

impl Default for NodeArgs {
    fn default() -> NodeArgs {
        NodeArgs {
            role: String::new(),
            id: 0,
            n: 4,
            listen: "127.0.0.1:0".to_string(),
            secret: "hlf-cluster".to_string(),
            peers: Vec::new(),
            options: node_options(1),
            obs_out: None,
            admin_listen: None,
            out: None,
            duration_s: None,
            count: 5_000,
            envelope_bytes: 200,
            window: 4_000,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("hlf_node: {msg}");
    std::process::exit(2);
}

/// Applies one `--key value` flag.
fn apply(args: &mut NodeArgs, key: &str, value: &str) {
    let parse_num = |v: &str| -> u64 {
        v.parse()
            .unwrap_or_else(|_| die(&format!("invalid number for {key}: {v}")))
    };
    match key {
        "role" => args.role = value.to_string(),
        "id" => args.id = parse_num(value) as u32,
        "n" => args.n = parse_num(value) as usize,
        "f" => args.options.runtime.f = parse_num(value) as usize,
        "listen" => args.listen = value.to_string(),
        "secret" => args.secret = value.to_string(),
        "block-size" => args.options.block_size = parse_num(value) as usize,
        "pipeline-depth" => args.options.runtime.pipeline_depth = parse_num(value) as usize,
        "signing-threads" => args.options.signing_threads = parse_num(value) as usize,
        "batch-max" => args.options.runtime.batch_max = parse_num(value) as usize,
        "request-timeout-ms" => args.options.runtime.request_timeout_ms = parse_num(value),
        "obs-out" => args.obs_out = Some(value.to_string()),
        "admin-listen" => args.admin_listen = Some(value.to_string()),
        "out" => args.out = Some(value.to_string()),
        "duration-s" => args.duration_s = Some(parse_num(value)),
        "count" => args.count = parse_num(value),
        "envelope-bytes" => args.envelope_bytes = parse_num(value) as usize,
        "window" => args.window = parse_num(value),
        "peer" => {
            let Some((peer, addr)) = value.split_once('=') else {
                die(&format!("--peer wants PEER=ADDR, got {value}"));
            };
            args.peers.push((parse_peer(peer), parse_addr(addr)));
        }
        other => die(&format!("unknown option: --{other}")),
    }
}

fn parse_peer(s: &str) -> PeerId {
    PeerId::parse(s.trim())
        .unwrap_or_else(|| die(&format!("invalid peer id {s} (want replica:N or client:N)")))
}

fn parse_addr(s: &str) -> SocketAddr {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("invalid socket address: {s}")))
}

fn parse_args() -> NodeArgs {
    let mut args = NodeArgs::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let Some(key) = arg.strip_prefix("--") else {
            die(&format!("unexpected argument {arg}"));
        };
        let value = argv
            .next()
            .unwrap_or_else(|| die(&format!("--{key} wants a value")));
        apply(&mut args, key, &value);
    }
    if args.role.is_empty() {
        die("--role replica|frontend is required");
    }
    args
}

fn bind_network(args: &NodeArgs, id: PeerId, registry: Arc<Registry>) -> TcpNetwork {
    let mut config = TcpConfig::new(id, parse_addr(&args.listen), args.secret.as_bytes())
        .with_registry(registry);
    config.peers = args.peers.clone();
    TcpNetwork::bind(config)
        .unwrap_or_else(|err| die(&format!("cannot bind {}: {err}", args.listen)))
}

/// Writes an obs snapshot via tmp-file + rename, so a concurrent
/// reader (hlf_top, a tailing script) never observes a torn file.
fn write_obs_atomic(path: &str, json: &str) {
    let tmp = format!("{path}.tmp");
    let result = std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(err) = result {
        eprintln!("hlf_node: cannot write {path}: {err}");
    }
}

fn run_replica(args: &NodeArgs) {
    let registry = Registry::new(format!("node-{}", args.id));
    let network = bind_network(args, PeerId::Replica(args.id), Arc::clone(&registry));
    eprintln!(
        "hlf_node: replica {} of {} listening on {}",
        args.id,
        args.n,
        network.local_addr()
    );
    let admin_listen = args.admin_listen.as_deref().map(parse_addr);
    // The flight ring exists only where someone can read it: behind the
    // admin endpoint.
    let flight = admin_listen
        .is_some()
        .then(|| Arc::new(FlightRecorder::new(format!("node-{}", args.id))));
    let handle = start_replica_endpoint_with_flight(
        args.id as usize,
        args.n,
        &args.options,
        network.endpoint(),
        Arc::clone(&registry),
        flight.clone(),
    );

    let started = Instant::now();
    let admin = admin_listen.map(|addr| {
        let stats = handle.stats_arc();
        let health_registry = Arc::clone(&registry);
        let sources = AdminSources {
            registry: Arc::clone(&registry),
            flight,
            health: Arc::new(move || HealthReport {
                regency: health_registry.gauge("consensus.replica.regency").get().max(0) as u64,
                window: health_registry.gauge("consensus.pipeline.window").get().max(0) as u64,
                frontier: stats.last_cid(),
                suspected: health_registry
                    .gauge("consensus.health.suspected_peers")
                    .get()
                    .max(0) as u64,
                decided: stats.decided(),
                uptime_us: started.elapsed().as_micros() as u64,
            }),
        };
        let server =
            AdminServer::bind(PeerId::Replica(args.id), addr, args.secret.as_bytes(), sources)
                .unwrap_or_else(|err| die(&format!("cannot bind admin {addr}: {err}")));
        eprintln!("hlf_node: admin endpoint on {}", server.local_addr());
        server
    });

    // Park until the parent closes stdin (or the duration elapses).
    match args.duration_s {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    if let Some(path) = &args.obs_out {
        write_obs_atomic(path, &registry.snapshot().to_json());
    }
    if let Some(server) = admin {
        server.shutdown();
    }
    handle.shutdown();
    network.shutdown();
}

fn run_frontend(args: &NodeArgs) {
    let registry = Registry::new(format!("frontend-{}", args.id));
    let network = bind_network(args, PeerId::Client(args.id), Arc::clone(&registry));
    eprintln!(
        "hlf_node: frontend {} listening on {}",
        args.id,
        network.local_addr()
    );
    let mut frontend =
        connect_frontend_endpoint(args.id, args.n, &args.options, network.endpoint());
    frontend.attach_obs(&registry);
    if !await_links(&network, args.n, Duration::from_secs(30)) {
        die("frontend could not reach every replica");
    }

    let Driven { submitted, delivered, elapsed_s, tx_s, p50_ms, p99_ms } = drive(
        &mut frontend,
        args.count,
        args.envelope_bytes,
        args.window,
        Duration::from_secs(args.duration_s.unwrap_or(120)),
    );
    let json = format!(
        "{{\"role\": \"frontend\", \"submitted\": {submitted}, \"delivered\": {delivered}, \
         \"elapsed_s\": {elapsed_s:.3}, \"ordered_tx_s\": {tx_s:.1}, \"p50_ms\": {p50_ms:.3}, \
         \"p99_ms\": {p99_ms:.3}}}"
    );
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|err| die(&format!("cannot write {path}: {err}")));
        }
        None => println!("{json}"),
    }
    if let Some(path) = &args.obs_out {
        write_obs_atomic(path, &registry.snapshot().to_json());
    }
    network.shutdown();
    if delivered < args.count {
        eprintln!(
            "hlf_node: frontend timed out: {delivered}/{} envelopes delivered",
            args.count
        );
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    match args.role.as_str() {
        "replica" => run_replica(&args),
        "frontend" => run_frontend(&args),
        other => die(&format!("unknown role {other} (want replica or frontend)")),
    }
}
