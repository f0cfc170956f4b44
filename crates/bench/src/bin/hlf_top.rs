//! **`hlf-top`: live telemetry for a deployed multi-process cluster.**
//!
//! Attaches to the admin endpoints of running `hlf_node` replicas
//! (`--admin-port` / `--admin-listen`), scrapes each at `--interval-ms`
//! (default 1 Hz), and renders the same per-replica dashboard the
//! in-process simulator shows under `HLF_DASH=1` — regency, pipeline
//! window, decide frontier, tx/s and p50/p99 sparklines — now across
//! OS processes. Every scrape also drains each node's flight-recorder
//! ring and feeds the events through `hlf-audit`'s `ClusterAuditor`,
//! so cross-process safety invariants (agreement, certified-value
//! preservation, monotonic decide release) are checked live; at exit a
//! causally-ordered cluster timeline plus any violations are printed
//! and violations fail the process.
//!
//! ```sh
//! hlf_top --secret bench-net \
//!   --node replica:0=127.0.0.1:7200 --node replica:1=127.0.0.1:7201 \
//!   --node replica:2=127.0.0.1:7202 --node replica:3=127.0.0.1:7203 \
//!   --prom-out /tmp/hlf.prom --duration-s 30
//! ```
//!
//! Metric scrapes use the delta protocol (`MetricsDelta`), so
//! steady-state refreshes ship only movement; the accumulated
//! per-node snapshots are merged back to full registries for the
//! `--prom-out` Prometheus text exposition (rewritten atomically every
//! refresh — point node_exporter's textfile collector, or anything
//! else, at it). `--once` scrapes everything a single time, prints the
//! dashboard frame plus health lines (and the exposition to
//! `--prom-out` if given), then exits — useful for scripting.

use hlf_audit::{timeline, ClusterAuditor, Dashboard};
use hlf_obs::{to_prometheus, FlightEvent, Snapshot};
use hlf_transport::{AdminClient, PeerId};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("hlf_top: {msg}");
    std::process::exit(2);
}

struct TopArgs {
    nodes: Vec<(u32, SocketAddr)>,
    secret: String,
    id: u32,
    n: Option<usize>,
    f: Option<usize>,
    interval_ms: u64,
    duration_s: Option<u64>,
    prom_out: Option<String>,
    once: bool,
    until_stdin_eof: bool,
}

fn parse_args() -> TopArgs {
    let mut args = TopArgs {
        nodes: Vec::new(),
        secret: "hlf-cluster".to_string(),
        id: 9900,
        n: None,
        f: None,
        interval_ms: 1000,
        duration_s: None,
        prom_out: None,
        once: false,
        until_stdin_eof: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |key: &str| -> String {
            argv.next()
                .unwrap_or_else(|| die(&format!("--{key} wants a value")))
        };
        match arg.as_str() {
            "--node" => {
                let spec = value("node");
                let Some((peer, addr)) = spec.split_once('=') else {
                    die(&format!("--node wants replica:N=ADMIN_ADDR, got {spec}"));
                };
                let Some(PeerId::Replica(id)) = PeerId::parse(peer.trim()) else {
                    die(&format!("--node peer must be replica:N, got {peer}"));
                };
                let addr = addr
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid admin address {addr}")));
                args.nodes.push((id, addr));
            }
            "--secret" => args.secret = value("secret"),
            "--id" => args.id = parse_num(&value("id")) as u32,
            "--n" => args.n = Some(parse_num(&value("n")) as usize),
            "--f" => args.f = Some(parse_num(&value("f")) as usize),
            "--interval-ms" => args.interval_ms = parse_num(&value("interval-ms")).max(10),
            "--duration-s" => args.duration_s = Some(parse_num(&value("duration-s"))),
            "--prom-out" => args.prom_out = Some(value("prom-out")),
            "--once" => args.once = true,
            // For embedding under a parent process: stop cleanly —
            // with the exit report — when stdin hits EOF.
            "--until-stdin-eof" => args.until_stdin_eof = true,
            other => die(&format!("unknown argument {other}")),
        }
    }
    args
}

fn parse_num(v: &str) -> u64 {
    v.parse()
        .unwrap_or_else(|_| die(&format!("invalid number: {v}")))
}

/// Atomic exposition rewrite: readers tailing the file never see a
/// torn rendering.
fn write_prom_atomic(path: &str, text: &str) {
    let tmp = format!("{path}.tmp");
    let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(err) = result {
        eprintln!("hlf_top: cannot write {path}: {err}");
    }
}

/// One scraped node: connection (re-dialled lazily on failure), the
/// registry state accumulated from deltas, and the server epoch that
/// invalidates it.
struct NodeState {
    replica: u32,
    addr: SocketAddr,
    client: Option<AdminClient>,
    accumulated: Option<Snapshot>,
    epoch: Option<u64>,
    events: Vec<FlightEvent>,
}

impl NodeState {
    fn connect(&mut self, secret: &[u8], me: PeerId) -> bool {
        if self.client.is_none() {
            match AdminClient::connect(self.addr, secret, me, PeerId::Replica(self.replica)) {
                Ok(client) => self.client = Some(client),
                Err(err) => {
                    hlf_obs::debug!("hlf_top: replica {} unreachable: {err}", self.replica);
                    return false;
                }
            }
        }
        true
    }

    /// One scrape round: merge a metrics delta, drain flight events.
    /// Any error drops the connection; the next round re-dials (and a
    /// fresh connection restarts the cursor chain with full data).
    fn scrape(&mut self, secret: &[u8], me: PeerId) -> Vec<FlightEvent> {
        if !self.connect(secret, me) {
            return Vec::new();
        }
        let Some(client) = self.client.as_mut() else {
            return Vec::new();
        };
        let fresh = match client.metrics_delta() {
            Ok(reply) => {
                // A changed epoch is a restarted node: the accumulated
                // registry describes a dead process generation.
                if self.epoch.is_some_and(|seen| seen != reply.epoch) {
                    self.accumulated = None;
                }
                self.epoch = Some(reply.epoch);
                match self.accumulated.as_mut() {
                    Some(total) => total.merge(&reply.delta),
                    None => self.accumulated = Some(reply.delta),
                }
                match client.flight_events() {
                    Ok(dump) => dump.events,
                    Err(_) => {
                        self.client = None;
                        Vec::new()
                    }
                }
            }
            Err(_) => {
                self.client = None;
                Vec::new()
            }
        };
        self.events.extend(fresh.iter().copied());
        fresh
    }
}

/// Renders and writes/prints one Prometheus exposition over every
/// node's accumulated registry state.
fn export_prometheus(nodes: &[NodeState], prom_out: Option<&str>) {
    let snapshots: Vec<Snapshot> = nodes
        .iter()
        .filter_map(|n| n.accumulated.clone())
        .collect();
    if snapshots.is_empty() {
        return;
    }
    let text = to_prometheus(&snapshots);
    match prom_out {
        Some(path) => write_prom_atomic(path, &text),
        None => println!("{text}"),
    }
}

fn run_top(args: &TopArgs) {
    if args.nodes.is_empty() {
        die("no --node replica:N=ADDR targets given");
    }
    let n = args
        .n
        .unwrap_or_else(|| args.nodes.iter().map(|&(id, _)| id as usize + 1).max().unwrap_or(4));
    let f = args.f.unwrap_or((n.saturating_sub(1)) / 3);
    let me = PeerId::Client(args.id);
    let secret = args.secret.as_bytes().to_vec();

    let mut nodes: Vec<NodeState> = args
        .nodes
        .iter()
        .map(|&(replica, addr)| NodeState {
            replica,
            addr,
            client: None,
            accumulated: None,
            epoch: None,
            events: Vec::new(),
        })
        .collect();
    let mut auditor = ClusterAuditor::new(n, f);
    let mut dashboard = Dashboard::new(n);

    let deadline = args
        .duration_s
        .map(|secs| Instant::now() + Duration::from_secs(secs));
    let interval = Duration::from_millis(args.interval_ms);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    if args.until_stdin_eof {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
    }

    loop {
        let tick_started = Instant::now();
        for node in &mut nodes {
            let replica = node.replica as usize;
            for event in node.scrape(&secret, me) {
                auditor.observe(replica, &event);
                dashboard.observe(replica, &event);
            }
        }
        if args.prom_out.is_some() || args.once {
            export_prometheus(&nodes, args.prom_out.as_deref());
        }
        if args.once {
            // One structured frame instead of a live redraw.
            print!("{}", dashboard.render(&auditor));
            for node in &mut nodes {
                if !node.connect(&secret, me) {
                    continue;
                }
                if let Some(health) = node.client.as_mut().and_then(|c| c.health().ok()) {
                    println!("health replica:{} {}", node.replica, health.to_json());
                }
            }
            break;
        }
        dashboard.draw_to_stderr(&auditor);
        if deadline.is_some_and(|at| Instant::now() >= at)
            || stop.load(std::sync::atomic::Ordering::Acquire)
        {
            break;
        }
        std::thread::sleep(interval.saturating_sub(tick_started.elapsed()));
    }

    // Exit report: the causally-ordered cross-process timeline tail
    // plus every invariant violation the auditor saw.
    let rings: Vec<Vec<FlightEvent>> = nodes.iter().map(|n| n.events.clone()).collect();
    let merged = timeline::reconstruct(&rings);
    if !merged.is_empty() {
        eprintln!("\ncluster timeline: {} events merged across {} nodes; tail:", merged.len(), nodes.len());
        for e in merged.iter().rev().take(8).rev() {
            eprintln!(
                "  L{:<6} n{} t={:>10}us {:<16} a={} b={} c={}",
                e.lamport,
                e.node,
                e.event.at_us,
                e.event.kind.name(),
                e.event.a,
                e.event.b,
                e.event.c
            );
        }
    }
    let violations = auditor.violations();
    if violations.is_empty() {
        eprintln!("audit: 0 violations across {} observed events", auditor.observed());
    } else {
        for v in violations {
            eprintln!("AUDIT VIOLATION: {}", v.to_line());
        }
        std::process::exit(1);
    }
}

fn main() {
    run_top(&parse_args());
}
