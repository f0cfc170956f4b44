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
//! Flags may also come from a TOML file (`--config node.toml`; flat
//! `key = value` pairs plus a `[peers]` table); command-line flags win
//! over file values. A replica runs until stdin reaches EOF (so a
//! parent process stopping — or closing the pipe — stops the node) or
//! `--duration-s` elapses; on exit it writes its obs registry snapshot
//! (including the `transport.net.*` socket counters) to `--obs-out`.
//! With `--obs-interval-secs` the snapshot is also rewritten
//! periodically (atomic rename, so readers never see a torn file),
//! covering shutdown paths that skip the exit dump.
//!
//! With `--admin-port` (or `--admin-listen ADDR`) a replica also
//! serves the authenticated telemetry endpoint (`hlf_top` scrapes it
//! live: metrics snapshots/deltas, flight-recorder dumps, health).

use bench::cluster::{await_links, drive, node_options, Driven};
use hlf_obs::{FlightRecorder, Registry};
use hlf_transport::{AdminServer, AdminSources, HealthReport, PeerId, TcpConfig, TcpNetwork};
use ordering_core::proc::{connect_frontend_endpoint, start_replica_endpoint_with_flight};
use ordering_core::service::ServiceOptions;
use std::io::Read;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// `bench::cluster::node_options`, which the processes started
    /// beside this one also run with, as overridden by flags.
    options: ServiceOptions,
    obs_out: Option<String>,
    obs_interval_secs: Option<u64>,
    admin_listen: Option<String>,
    admin_port: Option<u16>,
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
            obs_interval_secs: None,
            admin_listen: None,
            admin_port: None,
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

/// Applies one `key = value` pair (from a flag or the TOML file).
fn apply(args: &mut NodeArgs, key: &str, value: &str) {
    let value = value.trim().trim_matches('"');
    let parse_num = |v: &str| -> u64 {
        v.parse()
            .unwrap_or_else(|_| die(&format!("invalid number for {key}: {v}")))
    };
    match key {
        "role" => args.role = value.to_string(),
        "id" => args.id = parse_num(value) as u32,
        "n" => args.n = parse_num(value) as usize,
        "f" => args.options.f = parse_num(value) as usize,
        "listen" => args.listen = value.to_string(),
        "secret" => args.secret = value.to_string(),
        "block-size" | "block_size" => args.options.block_size = parse_num(value) as usize,
        "pipeline-depth" | "pipeline_depth" => {
            args.options.pipeline_depth = parse_num(value) as usize
        }
        "signing-threads" | "signing_threads" => {
            args.options.signing_threads = parse_num(value) as usize
        }
        "batch-max" | "batch_max" => args.options.batch_max = parse_num(value) as usize,
        "request-timeout-ms" | "request_timeout_ms" => {
            args.options.request_timeout_ms = parse_num(value)
        }
        "obs-out" | "obs_out" => args.obs_out = Some(value.to_string()),
        "obs-interval-secs" | "obs_interval_secs" => {
            args.obs_interval_secs = Some(parse_num(value))
        }
        "admin-listen" | "admin_listen" => args.admin_listen = Some(value.to_string()),
        // Shorthand: same interface as --listen, on the given port.
        "admin-port" | "admin_port" => args.admin_port = Some(parse_num(value) as u16),
        "out" => args.out = Some(value.to_string()),
        "duration-s" | "duration_s" => args.duration_s = Some(parse_num(value)),
        "count" => args.count = parse_num(value),
        "envelope-bytes" | "envelope_bytes" => args.envelope_bytes = parse_num(value) as usize,
        "window" => args.window = parse_num(value),
        "peer" => {
            let Some((peer, addr)) = value.split_once('=') else {
                die(&format!("--peer wants PEER=ADDR, got {value}"));
            };
            args.peers.push((parse_peer(peer), parse_addr(addr)));
        }
        other => die(&format!("unknown option: {other}")),
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

/// Minimal TOML subset: `key = value` pairs, a `[peers]` table whose
/// entries are `"replica:0" = "127.0.0.1:7100"`, comments, blanks.
fn load_config(args: &mut NodeArgs, path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| die(&format!("cannot read config {path}: {err}")));
    let mut in_peers = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_peers = line == "[peers]";
            if !in_peers && line != "[node]" {
                die(&format!("unknown config section {line}"));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            die(&format!("config line is not key = value: {raw}"));
        };
        let key = key.trim().trim_matches('"');
        if in_peers {
            let addr = value.trim().trim_matches('"');
            args.peers.push((parse_peer(key), parse_addr(addr)));
        } else {
            apply(args, key, value);
        }
    }
}

fn parse_args() -> NodeArgs {
    let mut args = NodeArgs::default();
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let Some(key) = arg.strip_prefix("--") else {
            die(&format!("unexpected argument {arg}"));
        };
        let value = argv
            .next()
            .unwrap_or_else(|| die(&format!("--{key} wants a value")));
        if key == "config" {
            load_config(&mut args, &value);
        } else {
            flags.push((key.to_string(), value));
        }
    }
    // Flags override the config file.
    for (key, value) in &flags {
        apply(&mut args, key, value);
    }
    if args.role.is_empty() {
        die("--role replica|frontend is required");
    }
    args
}

fn bind_network(args: &NodeArgs, id: PeerId, registry: Option<Arc<Registry>>) -> TcpNetwork {
    let mut config = TcpConfig::new(id, parse_addr(&args.listen), args.secret.as_bytes());
    config.peers = args.peers.clone();
    if let Some(registry) = registry {
        config = config.with_registry(registry);
    }
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

/// Where the admin endpoint should listen: `--admin-listen` verbatim,
/// or `--admin-port` on the same interface as `--listen`.
fn admin_addr(args: &NodeArgs) -> Option<SocketAddr> {
    if let Some(listen) = &args.admin_listen {
        return Some(parse_addr(listen));
    }
    args.admin_port.map(|port| {
        let mut addr = parse_addr(&args.listen);
        addr.set_port(port);
        addr
    })
}

fn run_replica(args: &NodeArgs) {
    let registry = Registry::new(format!("node-{}", args.id));
    let network = bind_network(args, PeerId::Replica(args.id), Some(Arc::clone(&registry)));
    eprintln!(
        "hlf_node: replica {} of {} listening on {}",
        args.id,
        args.n,
        network.local_addr()
    );
    let admin_listen = admin_addr(args);
    // The flight ring exists whenever someone can read it: the admin
    // endpoint (remote scrapes) or HLF_TRACE (local dumps).
    let flight = (admin_listen.is_some() || hlf_obs::trace_enabled())
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
                regency: health_registry
                    .counter("consensus.replica.regency_changes")
                    .get(),
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

    // Periodic snapshot dumps so crashes / kills still leave a recent
    // obs file behind (the exit-path dump below only covers clean
    // shutdowns).
    let stop = Arc::new(AtomicBool::new(false));
    let dumper = args.obs_out.clone().zip(args.obs_interval_secs).map(
        |(path, secs)| {
            let dump_registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let interval = Duration::from_secs(secs.max(1));
                let mut next = Instant::now() + interval;
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(100));
                    if Instant::now() >= next {
                        write_obs_atomic(&path, &dump_registry.snapshot().to_json());
                        next = Instant::now() + interval;
                    }
                }
            })
        },
    );

    // Park until the parent closes stdin (or the duration elapses).
    match args.duration_s {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    stop.store(true, Ordering::Release);
    if let Some(thread) = dumper {
        let _ = thread.join();
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
    let network = bind_network(args, PeerId::Client(args.id), Some(Arc::clone(&registry)));
    eprintln!(
        "hlf_node: frontend {} listening on {}",
        args.id,
        network.local_addr()
    );
    let mut frontend =
        connect_frontend_endpoint(args.id, args.n, &args.options, network.endpoint());
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
