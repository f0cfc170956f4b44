//! Shared harness code for the paper-reproduction figures.
//!
//! `src/bin/figures.rs` regenerates the tables and figures of the DSN
//! 2018 paper (see `DESIGN.md` §4 for the experiment index); this
//! library holds the workload drivers its subcommands share, and
//! `cluster` the process plumbing of `bench_net`, `hlf_node` and the
//! process-cluster tests. Performance numbers are `benchmark/`'s job.

mod cluster;
mod trace;

pub use cluster::{
    await_links, drive, free_ports, node_options, stop_replicas, sum_counter, ClusterSpec, Driven,
    Proc, Replica,
};
pub use trace::{merge_timelines, Timeline};

use hlf_wire::Bytes;
use hlf_consensus::messages::Batch;
use hlf_obs::Snapshot;
use hlf_smr::{Application, Outbound};
use hlf_smr::runtime::{ClusterRuntime, RuntimeOptions};
use ordering_core::frontend::Frontend;
use ordering_core::service::{OrderingService, ServiceOptions};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Envelope sizes the paper evaluates (§6.2): a SHA-256 hash, three
/// ECDSA endorsement signatures, and 1 / 4 KiB transactions.
pub const PAPER_ENVELOPE_SIZES: [usize; 4] = [40, 200, 1024, 4096];
/// Receiver counts the paper sweeps.
pub const PAPER_RECEIVERS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Cluster sizes (tolerating f = 1, 2, 3).
pub const PAPER_CLUSTERS: [(usize, usize); 3] = [(4, 1), (7, 2), (10, 3)];

/// One LAN-throughput measurement point (one bar of Fig. 7).
#[derive(Clone, Debug)]
pub struct LanConfig {
    /// Cluster size.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// Envelopes per block (10 or 100 in the paper).
    pub block_size: usize,
    /// Envelope payload bytes.
    pub envelope_size: usize,
    /// Number of receiver frontends.
    pub receivers: usize,
    /// Signer threads per node.
    pub signing_threads: usize,
    /// Measurement window (after 1 s warm-up).
    pub measure: Duration,
    /// Frontends verify orderer signatures and accept after `f + 1`
    /// copies (paper footnote 8) instead of matching `2f + 1`.
    pub verify_frontends: bool,
    /// Sign each block twice (paper footnote 10).
    pub double_sign: bool,
}

impl LanConfig {
    /// A point with paper-style defaults.
    pub fn new(n: usize, f: usize) -> LanConfig {
        LanConfig {
            n,
            f,
            block_size: 10,
            envelope_size: 1024,
            receivers: 1,
            signing_threads: paper_signing_threads(),
            measure: Duration::from_secs(3),
            verify_frontends: false,
            double_sign: false,
        }
    }
}

/// Signer threads matching the host (the paper uses 16, one per
/// hardware thread of its Xeon E5520 pair).
pub fn paper_signing_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8)
        .min(16)
}

/// Result of one LAN-throughput point.
#[derive(Clone, Debug)]
pub struct LanResult {
    /// Envelopes ordered per second, measured at node 0 (as in the
    /// paper).
    pub tx_per_sec: f64,
    /// Blocks generated per second at node 0.
    pub blocks_per_sec: f64,
    /// Total envelopes ordered during the window.
    pub envelopes: u64,
    /// Obs snapshots (per node, `clients`, `frontends`) at the end of
    /// the run.
    pub obs: Vec<Snapshot>,
}

/// Runs one LAN throughput measurement: an in-process ordering cluster,
/// `receivers` subscriber frontends draining blocks, and submitter
/// threads keeping the cluster saturated under a bounded outstanding
/// window.
pub fn run_lan_throughput(config: &LanConfig) -> LanResult {
    let mut service = OrderingService::start(
        config.n,
        ServiceOptions::new(config.f)
            .with_block_size(config.block_size)
            .with_signing_threads(config.signing_threads)
            // Saturation benchmarks keep a standing backlog; the
            // leader is healthy, so do not let request age trigger
            // regency churn.
            .with_request_timeout_ms(60_000)
            .with_frontend_verification(config.verify_frontends)
            .with_double_sign(config.double_sign),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let submitted = Arc::new(AtomicU64::new(0));

    // Receiver frontends: subscribe and drain.
    let mut receiver_threads = Vec::new();
    for slot in 0..config.receivers {
        let frontend_config = service
            .options()
            .frontend_config(hlf_wire::ClientId(5000 + slot as u32), service.keys());
        let frontend = Frontend::connect(service.network(), frontend_config);
        let stop = Arc::clone(&stop);
        receiver_threads.push(std::thread::spawn(move || {
            let mut frontend = frontend;
            while !stop.load(Ordering::Relaxed) {
                let _ = frontend.next_block(Duration::from_millis(20));
            }
        }));
    }

    // Submitter frontends: blast envelopes with a bounded window
    // against node 0's executed count (flow control standing in for
    // the TCP backpressure real clients get).
    // Outstanding-request window: enough to saturate the pipeline
    // (multiple consensus batches) without growing unbounded queues —
    // real BFT-SMaRt clients are similarly bounded.
    let window = 4_000u64;
    let mut submitter_threads = Vec::new();
    for slot in 0..2 {
        let mut frontend = service.frontend();
        let stop = Arc::clone(&stop);
        let submitted = Arc::clone(&submitted);
        let size = config.envelope_size;
        let executed_probe = service.executed_probe(0);
        submitter_threads.push(std::thread::spawn(move || {
            let mut i: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                if submitted.load(Ordering::Relaxed).saturating_sub(executed_probe()) > window {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let mut payload = vec![0u8; size.max(16)];
                payload[..8].copy_from_slice(&i.to_le_bytes());
                payload[8] = slot as u8;
                frontend.submit(Bytes::from(payload));
                submitted.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        }));
    }

    // Warm-up, then measure at node 0.
    std::thread::sleep(Duration::from_secs(1));
    let probe = service.executed_probe(0);
    let start_count = probe();
    let start = Instant::now();
    std::thread::sleep(config.measure);
    let elapsed = start.elapsed();
    let envelopes = probe() - start_count;

    stop.store(true, Ordering::Relaxed);
    for thread in submitter_threads {
        let _ = thread.join();
    }
    for thread in receiver_threads {
        let _ = thread.join();
    }
    let obs = service.obs_snapshots();
    service.shutdown();

    let tx_per_sec = envelopes as f64 / elapsed.as_secs_f64();
    LanResult {
        tx_per_sec,
        blocks_per_sec: tx_per_sec / config.block_size as f64,
        envelopes,
        obs,
    }
}

/// Latency histograms worth surfacing in a per-phase breakdown table,
/// with their units.
const PHASE_METRICS: &[(&str, &str)] = &[
    ("consensus.replica.write_phase_ms", "ms"),
    ("consensus.replica.accept_phase_ms", "ms"),
    ("consensus.replica.decide_ms", "ms"),
    ("smr.node.request_decide_us", "us"),
    ("core.signing.queue_wait_us", "us"),
    ("core.signing.sign_us", "us"),
    ("core.frontend.collect_round_us", "us"),
    ("smr.client.invoke_us", "us"),
];

/// Prints the `--obs` per-phase latency breakdown: one row per
/// populated phase histogram in each registry.
pub fn print_phase_breakdown(snapshots: &[Snapshot]) {
    println!("## per-phase latency breakdown");
    println!(
        "{:<12} {:<36} {:>4} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "registry", "metric", "unit", "count", "p50", "p90", "p99", "max"
    );
    for snap in snapshots {
        for &(name, unit) in PHASE_METRICS {
            let Some(h) = snap.histogram(name) else {
                continue;
            };
            if h.count == 0 {
                continue;
            }
            println!(
                "{:<12} {:<36} {:>4} {:>9} {:>8} {:>8} {:>8} {:>8}",
                snap.registry,
                name,
                unit,
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            );
        }
    }
}

/// An application that does nothing — used to measure the raw
/// BFT-SMaRt ordering rate (the `TP_bftsmart` term of the paper's
/// equation 1) without block cutting or signing.
#[derive(Debug, Default)]
pub(crate) struct NullApp;

impl Application for NullApp {
    fn execute_batch(&mut self, _cid: u64, _batch: &Batch, _tentative: bool) -> Vec<Outbound> {
        Vec::new()
    }
    fn snapshot(&self) -> Bytes {
        Bytes::new()
    }
    fn restore(&mut self, _snapshot: &[u8]) {}
}

/// Measures raw consensus ordering throughput (no blocks, no signing)
/// for `envelope_size` payloads on an `n`-node cluster.
pub fn run_raw_consensus_throughput(
    n: usize,
    f: usize,
    envelope_size: usize,
    measure: Duration,
) -> f64 {
    null_app_throughput(n, f, RuntimeOptions::classic(f), envelope_size, measure)
}

/// Measures replicated no-op throughput at a given checkpoint period
/// (ablation ABL3: the paper's §5.2 claims frequent checkpoints are
/// cheap because the ordering state is tiny).
pub fn run_checkpoint_sweep_point(
    n: usize,
    f: usize,
    checkpoint_interval: u64,
    measure: Duration,
) -> f64 {
    let options = RuntimeOptions::classic(f).with_checkpoint_interval(checkpoint_interval);
    null_app_throughput(n, f, options, 256, measure)
}

/// Two proxies keep a [`NullApp`] cluster saturated under a bounded
/// outstanding window; the rate is node 0's executed requests over
/// `measure`, after 1 s of warm-up.
fn null_app_throughput(
    n: usize,
    f: usize,
    options: RuntimeOptions,
    envelope_size: usize,
    measure: Duration,
) -> f64 {
    let cluster = ClusterRuntime::start(n, options.with_request_timeout_ms(60_000), |_| {
        Box::new(NullApp)
    });
    let stop = Arc::new(AtomicBool::new(false));
    let submitted = Arc::new(AtomicU64::new(0));
    let window = 4_000u64;

    let mut threads = Vec::new();
    for slot in 0..2u8 {
        let mut proxy = cluster.proxy_with(hlf_smr::ProxyConfig::classic(
            hlf_wire::ClientId(7000 + slot as u32),
            n,
            f,
        ));
        let stop = Arc::clone(&stop);
        let submitted = Arc::clone(&submitted);
        let stats = cluster.stats_arc(0);
        threads.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if submitted
                    .load(Ordering::Relaxed)
                    .saturating_sub(stats.executed_requests())
                    > window
                {
                    proxy.flush();
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let mut payload = vec![0u8; envelope_size.max(16)];
                payload[..8].copy_from_slice(&i.to_le_bytes());
                payload[8] = slot;
                proxy.invoke_async(payload);
                submitted.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        }));
    }

    std::thread::sleep(Duration::from_secs(1));
    let stats = cluster.stats_arc(0);
    let start_count = stats.executed_requests();
    let start = Instant::now();
    std::thread::sleep(measure);
    let elapsed = start.elapsed();
    let done = stats.executed_requests() - start_count;

    stop.store(true, Ordering::Relaxed);
    for thread in threads {
        let _ = thread.join();
    }
    cluster.shutdown();
    done as f64 / elapsed.as_secs_f64()
}

/// Formats a throughput in the paper's "ktrans/sec" unit.
pub fn ktps(tx_per_sec: f64) -> String {
    format!("{:.1}", tx_per_sec / 1000.0)
}
