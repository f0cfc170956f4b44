//! **Real-socket cluster run (`make bench-net`).**
//!
//! Runs the same saturated ordering workload twice and prints both:
//!
//! 1. **in-process** — the whole k = 4 pipelined cluster in one
//!    address space over the in-process hub, and
//! 2. **tcp-4proc** — four `hlf_node` replica processes plus this
//!    process as a TCP frontend, all frames crossing real kernel
//!    sockets on localhost,
//!
//! with the cross-backend ratio and the send-coalescing counters read
//! from each replica's obs snapshot (`transport.net.frames_out` /
//! `transport.net.writev_calls`). Nothing is written and nothing is
//! gated: `benchmark/`'s `tcp_small` workload is the measured TCP
//! number; this binary stays only until `benchmark/` has a workload of
//! OS processes (ROADMAP). That four replica processes order a
//! workload at all is `tests/process_cluster.rs`.
//!
//! The `hlf_node` binary is found via `--node-bin` or as a sibling of
//! this executable (`target/release/hlf_node`).

use bench::cluster::{
    drive, free_ports, node_options, stop_replicas, sum_counter, ClusterSpec, Driven,
};
use ordering_core::service::OrderingService;
use std::path::PathBuf;
use std::time::Duration;

/// Cluster size (replicas).
const N: usize = 4;
/// Fault threshold.
const F: usize = 1;
/// Envelope payload bytes (paper's 200-byte point).
const ENVELOPE_BYTES: usize = 200;
/// Envelopes ordered per measured phase.
const COUNT: u64 = 30_000;
/// Outstanding-envelope window (same as the LAN figures).
const WINDOW: u64 = 4_000;
/// Untimed warm-up envelopes, so connection establishment, handshakes
/// and first-batch effects stay out of the measured window.
const WARMUP: u64 = 2_000;
/// Per-phase deadline.
const TIMEOUT: Duration = Duration::from_secs(180);

/// The whole cluster in this process, hub transport.
fn run_in_process() -> Driven {
    let mut service = OrderingService::start(N, node_options(F));
    let mut frontend = service.frontend();
    drive(&mut frontend, WARMUP, ENVELOPE_BYTES, WINDOW, TIMEOUT);
    let result = drive(&mut frontend, COUNT, ENVELOPE_BYTES, WINDOW, TIMEOUT);
    service.shutdown();
    result
}

/// Four replica processes + this process as TCP frontend. Returns the
/// run and the replicas' summed `(frames_out, writev_calls)`.
fn run_tcp_cluster(node_bin: PathBuf) -> (Driven, f64, f64) {
    let mut addrs = free_ports(N + 1);
    let frontend_addr = addrs.pop().expect("N + 1 ports");
    let spec = ClusterSpec {
        node_bin,
        secret: "bench-net".to_string(),
        f: F,
        replicas: addrs,
        frontend: (1001, frontend_addr),
    };
    let replicas: Vec<_> = (0..N).map(|i| spec.spawn_replica(i, None)).collect();
    let (network, mut frontend) = spec.connect_frontend();

    drive(&mut frontend, WARMUP, ENVELOPE_BYTES, WINDOW, TIMEOUT);
    let result = drive(&mut frontend, COUNT, ENVELOPE_BYTES, WINDOW, TIMEOUT);

    let snapshots = stop_replicas(replicas, Duration::from_secs(10));
    network.shutdown();
    let frames_out = sum_counter(&snapshots, "transport.net.frames_out") as f64;
    let writev_calls = sum_counter(&snapshots, "transport.net.writev_calls") as f64;
    (result, frames_out, writev_calls)
}

fn print_run(label: &str, run: &Driven) {
    println!(
        "{label:<11}: {:>8.0} tx/s  p50 {:>6.2} ms  p99 {:>6.2} ms  ({} delivered in {:.1}s)",
        run.tx_s, run.p50_ms, run.p99_ms, run.delivered, run.elapsed_s
    );
}

fn main() {
    // `target/release/hlf_node` for `target/release/bench_net`.
    let mut node_bin = std::env::current_exe()
        .ok()
        .and_then(|me| Some(me.parent()?.join("hlf_node")))
        .filter(|sibling| sibling.exists());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--node-bin" => node_bin = args.next().map(PathBuf::from),
            other => {
                eprintln!("bench_net: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(node_bin) = node_bin else {
        eprintln!("bench_net: cannot find the hlf_node binary (pass --node-bin)");
        std::process::exit(2);
    };

    println!("## bench_net: in-process vs 4-process TCP cluster");
    println!(
        "config: n={N} f={F} pipeline_depth=4 block_size=10 envelopes={COUNT} x {ENVELOPE_BYTES}B"
    );

    let inproc = run_in_process();
    print_run("in-process", &inproc);
    let (tcp, frames_out, writev_calls) = run_tcp_cluster(node_bin);
    print_run("tcp-4proc", &tcp);
    println!(
        "ratio {:.2}x | coalescing {:.2} frames/writev ({frames_out:.0} frames, \
         {writev_calls:.0} writevs) | {:.3} writevs/envelope",
        tcp.tx_s / inproc.tx_s.max(1e-9),
        frames_out / writev_calls.max(1.0),
        writev_calls / tcp.delivered.max(1) as f64,
    );
    if inproc.delivered < COUNT || tcp.delivered < COUNT {
        eprintln!("bench_net: a phase timed out before ordering {COUNT} envelopes");
        std::process::exit(1);
    }
}
