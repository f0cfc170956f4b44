//! **Real-socket cluster benchmark (`make bench-net`).**
//!
//! Measures the same saturated ordering workload twice:
//!
//! 1. **in-process** — the whole k = 4 pipelined cluster in one
//!    address space over the in-process hub (the configuration every
//!    earlier BENCH file used), and
//! 2. **tcp-4proc** — four `hlf_node` replica processes plus this
//!    process as a TCP frontend, all frames crossing real kernel
//!    sockets on localhost.
//!
//! Writes `BENCH_net.json` with throughput, p50/p99 latency, the
//! cross-backend ratio (acceptance floor: TCP ≥ 0.5× in-process), and
//! the send-coalescing counters scraped from each replica's obs
//! snapshot (`transport.net.frames_out` / `transport.net.writev_calls`
//! — frames-per-writev > 1 means the writev batching works, and
//! writev-calls-per-envelope is the syscall amortisation headline).
//!
//! A third phase re-runs the TCP cluster with every replica serving
//! its admin endpoint and the real `hlf_top` process scraping at 1 Hz
//! (metrics deltas, flight rings, live cross-process audit); the tx/s
//! delta against the unscraped run is the telemetry-plane overhead,
//! recorded in `BENCH_obs.json` and gated (<3%) by
//! `bench_summary --check`.
//!
//! `--smoke` runs a 60×-smaller workload, skips the in-process
//! baseline, asserts only liveness + delivery, and writes nothing —
//! CI's 4-process cluster smoke test.
//!
//! The `hlf_node` binary is found via `--node-bin`, `$HLF_NODE_BIN`,
//! or as a sibling of this executable (`target/release/hlf_node`).

use hlf_transport::{PeerId, TcpConfig, TcpNetwork};
use hlf_wire::Bytes;
use ordering_core::frontend::Frontend;
use ordering_core::proc::connect_frontend_endpoint;
use ordering_core::service::{OrderingService, ServiceOptions};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Cluster size (replicas).
const N: usize = 4;
/// Fault threshold.
const F: usize = 1;
/// Frontend client id.
const FRONTEND_ID: u32 = 1001;
/// Shared cluster secret for link keys.
const SECRET: &str = "bench-net";
/// Envelope payload bytes (paper's 200-byte point).
const ENVELOPE_BYTES: usize = 200;
/// Envelopes ordered per measured phase.
const COUNT: u64 = 30_000;
/// Outstanding-envelope window (same as the LAN benches).
const WINDOW: u64 = 4_000;
/// Untimed warmup envelopes before the measured phase.
const WARMUP: u64 = 2_000;

fn options() -> ServiceOptions {
    // Mirrors hlf_node's service_options: both backends must run the
    // identical consensus/cutter configuration for a fair ratio. The
    // fixed block_size-10 cutter is the paper-style fig7 configuration
    // (no adaptive merging).
    ServiceOptions::new(F)
        .with_block_size(10)
        .with_signing_threads(4)
        .with_request_timeout_ms(60_000)
        .with_pipeline_depth(4)
        .with_flush_on_batch_end(true)
}

struct Measured {
    submitted: u64,
    delivered: u64,
    elapsed_s: f64,
    tx_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0)
}

/// Orders `warmup` envelopes without timing anything, so connection
/// establishment / handshakes / first-batch effects stay out of the
/// measured window on both backends.
fn warm_up(frontend: &mut Frontend, warmup: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut delivered = 0u64;
    for i in 0..warmup {
        let mut payload = vec![0u8; ENVELOPE_BYTES];
        payload[..8].copy_from_slice(&i.to_le_bytes());
        frontend.submit(Bytes::from(payload));
    }
    while delivered < warmup && Instant::now() < deadline {
        if let Some(block) = frontend.next_block(Duration::from_millis(50)) {
            delivered += block.envelopes.len() as u64;
        }
    }
}

/// Drives `count` envelopes through `frontend` under a bounded window
/// and measures delivery throughput + per-envelope latency (single
/// frontend, so deliveries come back in submission order).
fn drive(frontend: &mut Frontend, count: u64, deadline: Duration) -> Measured {
    let mut in_flight: VecDeque<Instant> = VecDeque::new();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(count as usize);
    let (mut submitted, mut delivered) = (0u64, 0u64);
    let start = Instant::now();
    let deadline = start + deadline;
    let mut last_note = start;
    while delivered < count && Instant::now() < deadline {
        if last_note.elapsed() > Duration::from_secs(5) {
            eprintln!("bench_net: {submitted} submitted, {delivered} delivered");
            last_note = Instant::now();
        }
        while submitted < count && (submitted - delivered) < WINDOW {
            let mut payload = vec![0u8; ENVELOPE_BYTES];
            payload[..8].copy_from_slice(&submitted.to_le_bytes());
            frontend.submit(Bytes::from(payload));
            in_flight.push_back(Instant::now());
            submitted += 1;
        }
        if let Some(block) = frontend.next_block(Duration::from_millis(50)) {
            let now = Instant::now();
            for _ in 0..block.envelopes.len() {
                if let Some(at) = in_flight.pop_front() {
                    latencies_ms.push(now.duration_since(at).as_secs_f64() * 1e3);
                }
            }
            delivered += block.envelopes.len() as u64;
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    Measured {
        submitted,
        delivered,
        elapsed_s,
        tx_s: delivered as f64 / elapsed_s.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    }
}

/// Phase 1: the whole cluster in this process, hub transport.
fn run_in_process(count: u64) -> Measured {
    let mut service = OrderingService::start(N, options());
    let mut frontend = service.frontend();
    warm_up(&mut frontend, WARMUP);
    let result = drive(&mut frontend, count, Duration::from_secs(180));
    service.shutdown();
    result
}

/// Grabs `n` distinct free localhost ports from the kernel.
fn free_ports(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind probe port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("probe addr"))
        .collect()
    // Listeners drop here; hlf_node/our frontend re-bind the ports.
}

fn find_bin(cli: Option<PathBuf>, env: &str, name: &str) -> PathBuf {
    if let Some(path) = cli {
        return path;
    }
    if let Ok(path) = std::env::var(env) {
        return PathBuf::from(path);
    }
    let me = std::env::current_exe().expect("current_exe");
    let sibling = me.parent().map(PathBuf::from).unwrap_or_default().join(name);
    if sibling.exists() {
        return sibling;
    }
    eprintln!("bench_net: cannot find the {name} binary (set {env})");
    std::process::exit(2);
}

fn node_bin(cli: Option<PathBuf>) -> PathBuf {
    find_bin(cli, "HLF_NODE_BIN", "hlf_node")
}

fn top_bin() -> PathBuf {
    find_bin(None, "HLF_TOP_BIN", "hlf_top")
}

/// Spawns replica `i` as a real OS process. Children hold a stdin
/// pipe: dropping it (or our exit) stops them.
fn spawn_replica(
    bin: &PathBuf,
    i: usize,
    addrs: &[SocketAddr],
    admin: Option<SocketAddr>,
    obs_path: &PathBuf,
    show_stderr: bool,
) -> Child {
    let mut cmd = Command::new(bin);
    cmd.arg("--role")
        .arg("replica")
        .arg("--id")
        .arg(i.to_string())
        .arg("--n")
        .arg(N.to_string())
        .arg("--f")
        .arg(F.to_string())
        .arg("--listen")
        .arg(addrs[i].to_string())
        .arg("--secret")
        .arg(SECRET)
        .arg("--obs-out")
        .arg(obs_path);
    if let Some(admin) = admin {
        cmd.arg("--admin-listen").arg(admin.to_string());
    }
    for (j, addr) in addrs.iter().enumerate() {
        let peer = if j < N {
            if j == i {
                continue;
            }
            format!("replica:{j}={addr}")
        } else {
            format!("client:{FRONTEND_ID}={addr}")
        };
        cmd.arg("--peer").arg(peer);
    }
    cmd.stdin(Stdio::piped()).stdout(Stdio::null()).stderr(if show_stderr {
        Stdio::inherit()
    } else {
        Stdio::null()
    });
    cmd.spawn().expect("spawn hlf_node replica")
}

/// Scrapes a metric value out of an obs snapshot dump, which renders
/// each metric as `{"name":"<key>","type":"counter","value":N}`.
fn scrape(src: &str, key: &str) -> Option<f64> {
    let name = format!("\"name\":\"{key}\"");
    let at = src.find(&name)? + name.len();
    let tail = src.get(at..)?;
    let value = tail.find("\"value\":")? + "\"value\":".len();
    let rest = tail.get(value..)?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest.get(..end)?.trim().parse().ok()
}

struct TcpRun {
    measured: Measured,
    frames_out: f64,
    writev_calls: f64,
    reconnects: f64,
    auth_failures: f64,
}

/// Phase 2: 4 replica processes + this process as TCP frontend. With
/// `scraper`, every replica also serves its admin endpoint and the
/// real `hlf_top` binary runs as a fifth process, scraping metrics
/// deltas + flight rings at 1 Hz and auditing cross-process
/// invariants live — the telemetry-plane overhead measurement.
fn run_tcp_cluster(bin: &PathBuf, count: u64, smoke_run: bool, scraper: Option<&PathBuf>) -> TcpRun {
    // One probe batch so consensus, frontend and admin ports are all
    // distinct: [0..N) consensus, [N] frontend, [N+1..] admin.
    let ports = free_ports(N + 1 + if scraper.is_some() { N } else { 0 });
    let addrs = ports[..N + 1].to_vec();
    let admin_addrs = &ports[N + 1..];
    let obs_paths: Vec<PathBuf> = (0..N)
        .map(|i| {
            std::env::temp_dir().join(format!("hlf_node_obs_{i}_{}.json", std::process::id()))
        })
        .collect();
    let mut children: Vec<Child> = (0..N)
        .map(|i| {
            spawn_replica(
                bin,
                i,
                &addrs,
                admin_addrs.get(i).copied(),
                &obs_paths[i],
                smoke_run,
            )
        })
        .collect();
    let mut top = scraper.map(|top_bin| {
        let mut cmd = Command::new(top_bin);
        cmd.args(["--secret", SECRET, "--interval-ms", "1000"])
            .args(["--n", &N.to_string(), "--f", &F.to_string()])
            .arg("--until-stdin-eof");
        for (i, admin) in admin_addrs.iter().enumerate() {
            cmd.arg("--node").arg(format!("replica:{i}={admin}"));
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        cmd.spawn().expect("spawn hlf_top scraper")
    });

    // Frontend endpoint in this process, over real sockets.
    let mut config = TcpConfig::new(
        PeerId::Client(FRONTEND_ID),
        addrs[N],
        SECRET.as_bytes(),
    );
    for (j, addr) in addrs.iter().enumerate().take(N) {
        config = config.with_peer(PeerId::replica(j as u32), *addr);
    }
    let network = TcpNetwork::bind(config).expect("bind frontend TCP endpoint");
    let mut frontend = connect_frontend_endpoint(FRONTEND_ID, N, &options(), network.endpoint());
    assert!(
        bench::await_links(&network, N, Duration::from_secs(30)),
        "frontend could not reach all {N} replica processes"
    );

    if !smoke_run {
        warm_up(&mut frontend, WARMUP);
    }
    let measured = drive(&mut frontend, count, Duration::from_secs(180));

    // Stop the scraper first (stdin EOF → final audit report). A
    // non-zero exit means the cross-process auditor saw violations.
    if let Some(child) = top.as_mut() {
        drop(child.stdin.take());
        let status = child.wait().expect("wait for hlf_top");
        assert!(
            status.success(),
            "hlf_top reported audit violations on a clean run"
        );
    }

    // Close the stdin pipes: replicas dump their obs snapshots and exit.
    for child in &mut children {
        drop(child.stdin.take());
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for child in &mut children {
        while Instant::now() < deadline {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(_) => break,
            }
        }
        let _ = child.kill();
        let _ = child.wait();
    }
    network.shutdown();

    // Aggregate the socket counters across the replicas' snapshots.
    let (mut frames_out, mut writev_calls, mut reconnects, mut auth_failures) =
        (0.0, 0.0, 0.0, 0.0);
    for path in &obs_paths {
        let json = std::fs::read_to_string(path).unwrap_or_default();
        frames_out += scrape(&json, "transport.net.frames_out").unwrap_or(0.0);
        writev_calls += scrape(&json, "transport.net.writev_calls").unwrap_or(0.0);
        reconnects += scrape(&json, "transport.net.reconnects").unwrap_or(0.0);
        auth_failures += scrape(&json, "transport.net.auth_failures").unwrap_or(0.0);
        let _ = std::fs::remove_file(path);
    }
    TcpRun {
        measured,
        frames_out,
        writev_calls,
        reconnects,
        auth_failures,
    }
}

/// Records the 1 Hz scrape overhead as a synthetic registry in
/// BENCH_obs.json (basis points, so the integer-gauge JSON keeps
/// precision), replacing any previous row — same shape as the
/// `trace_overhead` rows `trace_report` writes.
fn record_scrape_overhead(off_tps: f64, on_tps: f64, overhead_pct: f64) {
    use hlf_obs::{MetricSnapshot, MetricValue, Snapshot};
    let mut registries = std::fs::read_to_string("BENCH_obs.json")
        .ok()
        .and_then(|s| hlf_obs::from_json_many(&s).ok())
        .unwrap_or_default();
    registries.retain(|s| s.registry != "scrape_overhead");
    registries.push(Snapshot {
        registry: "scrape_overhead".to_string(),
        metrics: vec![
            MetricSnapshot {
                name: "bench.scrape.overhead_basis_points".to_string(),
                value: MetricValue::Gauge((overhead_pct * 100.0).round() as i64),
            },
            MetricSnapshot {
                name: "bench.scrape.off_tps".to_string(),
                value: MetricValue::Gauge(off_tps.round() as i64),
            },
            MetricSnapshot {
                name: "bench.scrape.on_tps".to_string(),
                value: MetricValue::Gauge(on_tps.round() as i64),
            },
        ],
    });
    match std::fs::write("BENCH_obs.json", hlf_obs::to_json_many(&registries)) {
        Ok(()) => println!("recorded scrape overhead in BENCH_obs.json"),
        Err(error) => eprintln!("failed to update BENCH_obs.json: {error}"),
    }
}

fn main() {
    let mut smoke = false;
    let mut bin_flag: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--node-bin" => bin_flag = args.next().map(PathBuf::from),
            other => {
                eprintln!("bench_net: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let bin = node_bin(bin_flag);

    if smoke {
        // CI smoke: tiny workload, liveness + delivery only.
        let run = run_tcp_cluster(&bin, 500, true, None);
        println!(
            "smoke: {} of {} envelopes ordered at {:.0} tx/s (p50 {:.1} ms), \
             {} frames / {} writevs, {} reconnects, {} auth failures",
            run.measured.delivered,
            run.measured.submitted,
            run.measured.tx_s,
            run.measured.p50_ms,
            run.frames_out,
            run.writev_calls,
            run.reconnects,
            run.auth_failures
        );
        assert_eq!(
            run.measured.delivered, 500,
            "4-process cluster failed to order the smoke workload"
        );
        assert_eq!(run.auth_failures, 0.0, "unexpected HMAC failures in smoke run");
        println!("SMOKE OK");
        return;
    }

    println!("## bench_net: in-process vs 4-process TCP cluster");
    println!("config: n={N} f={F} pipeline_depth=4 block_size=10 envelopes={COUNT} x {ENVELOPE_BYTES}B");

    let inproc = run_in_process(COUNT);
    println!(
        "in-process : {:>8.0} tx/s  p50 {:>6.2} ms  p99 {:>6.2} ms  ({} delivered in {:.1}s)",
        inproc.tx_s, inproc.p50_ms, inproc.p99_ms, inproc.delivered, inproc.elapsed_s
    );

    let tcp = run_tcp_cluster(&bin, COUNT, false, None);
    let ratio = tcp.measured.tx_s / inproc.tx_s.max(1e-9);
    let frames_per_writev = tcp.frames_out / tcp.writev_calls.max(1.0);
    let syscalls_per_envelope = tcp.writev_calls / tcp.measured.delivered.max(1) as f64;
    println!(
        "tcp-4proc  : {:>8.0} tx/s  p50 {:>6.2} ms  p99 {:>6.2} ms  ({} delivered in {:.1}s)",
        tcp.measured.tx_s,
        tcp.measured.p50_ms,
        tcp.measured.p99_ms,
        tcp.measured.delivered,
        tcp.measured.elapsed_s
    );
    println!(
        "ratio {ratio:.2}x | coalescing {frames_per_writev:.2} frames/writev \
         ({:.0} frames, {:.0} writevs) | {syscalls_per_envelope:.3} writevs/envelope | \
         {:.0} reconnects",
        tcp.frames_out, tcp.writev_calls, tcp.reconnects
    );

    let out = format!(
        "{{\n  \"config\": {{\"n\": {N}, \"f\": {F}, \"pipeline_depth\": 4, \"block_size\": 10, \
         \"envelope_bytes\": {ENVELOPE_BYTES}, \"count\": {COUNT}}},\n  \
         \"in_process\": {{\"ordered_tx_s\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}},\n  \
         \"tcp_4proc\": {{\"ordered_tx_s\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"ratio_vs_in_process\": {ratio:.3}}},\n  \
         \"coalescing\": {{\"frames_out\": {:.0}, \"writev_calls\": {:.0}, \
         \"frames_per_writev\": {frames_per_writev:.3}, \
         \"writev_syscalls_per_envelope\": {syscalls_per_envelope:.4}}},\n  \
         \"lifecycle\": {{\"reconnects\": {:.0}, \"auth_failures\": {:.0}}}\n}}\n",
        inproc.tx_s,
        inproc.p50_ms,
        inproc.p99_ms,
        tcp.measured.tx_s,
        tcp.measured.p50_ms,
        tcp.measured.p99_ms,
        tcp.frames_out,
        tcp.writev_calls,
        tcp.reconnects,
        tcp.auth_failures,
    );
    std::fs::write("BENCH_net.json", &out).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json");

    // Phase 3: the same saturated TCP cluster, this time with the
    // real `hlf_top` process scraping every replica's admin endpoint
    // at 1 Hz (metrics deltas + flight rings + live audit). The tx/s
    // difference against the unscraped run is the telemetry-plane
    // overhead, recorded in BENCH_obs.json and gated (<3%) by
    // bench_summary --check.
    let top = top_bin();
    println!("## scrape overhead: 1 Hz hlf_top against the saturated cluster");
    let scraped = run_tcp_cluster(&bin, COUNT, false, Some(&top));
    assert_eq!(
        scraped.measured.delivered, COUNT,
        "scraped TCP cluster lost envelopes"
    );
    let off = tcp.measured.tx_s;
    let on = scraped.measured.tx_s;
    let overhead_pct = (off - on) / off.max(1e-9) * 100.0;
    println!(
        "scraped    : {:>8.0} tx/s  p50 {:>6.2} ms  p99 {:>6.2} ms  \
         ({overhead_pct:+.2}% vs unscraped {off:.0} tx/s)",
        on, scraped.measured.p50_ms, scraped.measured.p99_ms
    );
    record_scrape_overhead(off, on, overhead_pct);

    // Acceptance: the real-socket cluster keeps >= 0.5x the in-process
    // number, and the writer actually coalesces under load.
    assert_eq!(tcp.measured.delivered, COUNT, "TCP cluster lost envelopes");
    assert!(
        ratio >= 0.5,
        "TCP throughput ratio {ratio:.2} fell below the 0.5x acceptance floor"
    );
    assert!(
        frames_per_writev > 1.0,
        "expected >1 frame per writev under load, got {frames_per_writev:.2}"
    );
}
