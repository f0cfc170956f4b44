//! **The paper's evaluation, one subcommand per figure.**
//!
//! ```sh
//! figures fig6              # Fig. 6  signature throughput vs worker threads
//! figures fig7 [--full]     # Fig. 7  LAN throughput vs receivers (quick grid / paper grid)
//! figures fig8              # Fig. 8  WAN latency, blocks of 10
//! figures fig9              # Fig. 9  WAN latency, blocks of 100
//! figures eq1               # Eq. (1) throughput bound
//! figures ablations         # beyond the paper: frontend policy, WHEAT split, checkpoints
//! figures all               # every one of the above, in order
//! ```
//!
//! `--obs` adds the per-phase latency breakdown (consensus WRITE/ACCEPT,
//! signing queue wait, frontend collection rounds) to fig7, fig8 and
//! fig9. Each subcommand writes one figure to stdout and nothing else;
//! `make figures` redirects them into `results_*.txt`. fig8, fig9 and
//! ABL2 run on the deterministic WAN simulator and regenerate byte for
//! byte; the others measure this host.

use bench::{
    ktps, paper_signing_threads, print_phase_breakdown, run_checkpoint_sweep_point,
    run_lan_throughput, run_raw_consensus_throughput, LanConfig, PAPER_CLUSTERS,
    PAPER_ENVELOPE_SIZES, PAPER_RECEIVERS,
};
use hlf_crypto::ecdsa::SigningKey;
use hlf_crypto::sha256::Hash256;
use hlf_fabric::block::Block;
use hlf_obs::Snapshot;
use hlf_simnet::SimTime;
use hlf_wire::Bytes;
use ordering_core::SigningPool;
use ordering_core::{run_geo_experiment, GeoConfig, Protocol};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut which = None;
    let (mut full, mut obs) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => full = true,
            "--obs" => obs = true,
            name if which.is_none() && !name.starts_with('-') => which = Some(arg),
            _ => usage(),
        }
    }
    let all = which.as_deref() == Some("all");
    let mut ran = false;
    let mut run = |name: &str, figure: &dyn Fn()| {
        if all || which.as_deref() == Some(name) {
            if ran {
                println!();
            }
            figure();
            ran = true;
        }
    };
    run("fig6", &fig6_signing);
    run("fig7", &|| fig7_lan_throughput(full, obs));
    run("fig8", &|| geo_latency(10, obs));
    run("fig9", &|| geo_latency(100, obs));
    run("eq1", &eq1_bound_check);
    run("ablations", &ablations);
    if !ran {
        usage();
    }
}

fn usage() -> ! {
    eprintln!("usage: figures fig6|fig7|fig8|fig9|eq1|ablations|all [--full] [--obs]");
    std::process::exit(2);
}

// ---------------------------------------------------------------------
// Figure 6: ECDSA signature generation throughput for Fabric block
// headers as a function of worker threads. The paper peaks at ~8.4 k
// signatures/s on 16 hardware threads and notes the rate is independent
// of envelope and block sizes because only the fixed-size header is
// signed; both observations are reproduced here.
// ---------------------------------------------------------------------

/// Rate at which the ordering node's own [`SigningPool`] of `threads`
/// workers signs blocks: this thread plays the node thread (builds each
/// block — header over the envelope data hash — and submits it,
/// blocking when the bounded queue is full), the workers sign in
/// whatever groups the queue gives them, and signed blocks are counted
/// as they are delivered.
fn signing_rate(threads: usize, envelope_size: usize, block_size: usize) -> f64 {
    let signed = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&signed);
    let pool = SigningPool::new(threads, 0, SigningKey::from_seed(b"fig6"), move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let envelopes: Vec<Bytes> = (0..block_size)
        .map(|i| Bytes::from(vec![i as u8; envelope_size]))
        .collect();
    let mut number = 1u64;
    let mut prev = Hash256::ZERO;
    let mut submit_for = |duration: Duration| {
        let deadline = Instant::now() + duration;
        while Instant::now() < deadline {
            let block = Block::build(number, prev, envelopes.clone());
            prev = block.header_hash();
            number += 1;
            pool.submit(block);
        }
    };

    submit_for(Duration::from_millis(300)); // warm-up
    let start_count = signed.load(Ordering::Relaxed);
    let start = Instant::now();
    submit_for(Duration::from_secs(2));
    let elapsed = start.elapsed();
    let count = signed.load(Ordering::Relaxed) - start_count;
    count as f64 / elapsed.as_secs_f64()
}

/// Drives the actual [`SigningPool`] the ordering node uses and reports
/// the queue-depth counters, showing the backpressure the bounded job
/// queue exerts on the node thread when signing cannot keep up.
fn pool_backpressure(threads: usize, blocks: u64) {
    let key = SigningKey::from_seed(b"fig6-pool");
    let pool = SigningPool::new(threads, 0, key, |_| {});
    let stats = pool.stats();
    let mut peak_pending = 0u64;
    let start = Instant::now();
    for number in 1..=blocks {
        pool.submit(Block::build(
            number,
            Hash256::ZERO,
            vec![Bytes::from_static(b"envelope")],
        ));
        peak_pending = peak_pending.max(stats.pending());
    }
    let submit_done = start.elapsed();
    while stats.pending() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drained = start.elapsed();
    println!(
        "{threads:>8} {:>10} {:>8} {:>13} {:>11.2} {:>11.2}",
        stats.submitted(),
        stats.signed(),
        peak_pending,
        submit_done.as_secs_f64() * 1e3,
        drained.as_secs_f64() * 1e3,
    );
}

fn fig6_signing() {
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    println!("# Figure 6: block-header signature generation throughput");
    println!("# blocks of 10 empty envelopes, sweeping worker threads");
    println!(
        "# host parallelism: {host_parallelism} hardware thread(s); the curve \
         saturates there"
    );
    println!("{:>8} {:>16}", "threads", "ksignatures/sec");
    let mut series = Vec::new();
    for threads in [1usize, 2, 4, 8, 16] {
        let rate = signing_rate(threads, 0, 10);
        println!("{threads:>8} {:>16.2}", rate / 1000.0);
        series.push((threads, rate));
    }

    let peak = series.iter().map(|(_, r)| *r).fold(0.0f64, f64::max);
    println!("\npeak: {:.0} signatures/sec", peak);
    println!(
        "theoretical ordering bound at 10 envelopes/block: {:.0} tx/s\n",
        peak * 10.0
    );

    // The paper's second observation: the rate does not depend on
    // envelope or block size, because only the header is signed.
    let max_threads = host_parallelism.min(16);
    println!("# size-independence check (at {max_threads} threads):");
    println!(
        "{:>14} {:>12} {:>16}",
        "envelope", "block size", "ksignatures/sec"
    );
    for (envelope_size, block_size) in [(0, 10), (1024, 10), (0, 100), (4096, 100)] {
        let rate = signing_rate(max_threads, envelope_size, block_size);
        println!(
            "{envelope_size:>12} B {block_size:>12} {:>16.2}",
            rate / 1000.0
        );
    }
    println!(
        "\n(Variation here reflects the *hashing* of the block data, which\n\
         grows with block bytes; the signature itself covers only the\n\
         32-byte header digest, as in the paper.)"
    );
    // Queue-depth visibility through the node's actual signing pool:
    // `submitted` vs `signed` counters expose how deep the bounded job
    // queue runs before backpressure stalls the submitting thread.
    println!("\n# signing-pool queue depth (SigningStats submitted/signed/pending):");
    println!(
        "{:>8} {:>10} {:>8} {:>13} {:>11} {:>11}",
        "threads", "submitted", "signed", "peak pending", "submit ms", "drain ms"
    );
    for threads in [1usize, 4, max_threads] {
        pool_backpressure(threads, 512);
    }

    println!(
        "\npaper reference: ~8.4 ksignatures/sec at 16 threads on 2009-era\n\
         Xeon E5520; absolute rates differ with hardware, the scaling\n\
         shape is the result under reproduction."
    );
}

// ---------------------------------------------------------------------
// Figure 7 (a-f): LAN ordering-service throughput for different
// envelope, block and cluster sizes, as a function of the number of
// receivers, measured as block generation at node 0. The qualitative
// results to reproduce: small envelopes + blocks of 100 beat blocks of
// 10 (signature rate stops being the bottleneck); throughput falls as
// receivers grow (block transmission dominates); large envelopes are
// replication-bound and care less about receivers; larger clusters are
// slower.
// ---------------------------------------------------------------------

fn fig7_lan_throughput(full: bool, print_obs: bool) {
    let (clusters, block_sizes, envelope_sizes, receivers, measure) = if full {
        (
            PAPER_CLUSTERS.to_vec(),
            vec![10usize, 100],
            PAPER_ENVELOPE_SIZES.to_vec(),
            PAPER_RECEIVERS.to_vec(),
            Duration::from_secs(3),
        )
    } else {
        (
            vec![(4usize, 1usize)],
            vec![10usize, 100],
            vec![40usize, 1024],
            vec![1usize, 8, 32],
            Duration::from_secs(2),
        )
    };

    println!("# Figure 7: LAN ordering throughput (measured at node 0)");
    println!(
        "# host parallelism: {} hardware thread(s)",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    println!(
        "{:>2} {:>9} {:>9} {:>9} {:>12} {:>12}",
        "n", "blk size", "env size", "receivers", "ktrans/sec", "blocks/sec"
    );

    for &(n, f) in &clusters {
        for &block_size in &block_sizes {
            let panel = match (n, block_size) {
                (4, 10) => "7a",
                (4, 100) => "7b",
                (7, 10) => "7c",
                (7, 100) => "7d",
                (10, 10) => "7e",
                (10, 100) => "7f",
                _ => "--",
            };
            println!("# --- panel {panel}: {n} orderers, {block_size} envelopes/block ---");
            for &envelope_size in &envelope_sizes {
                for &receiver_count in &receivers {
                    let mut config = LanConfig::new(n, f);
                    config.block_size = block_size;
                    config.envelope_size = envelope_size;
                    config.receivers = receiver_count;
                    config.measure = measure;
                    let result = run_lan_throughput(&config);
                    println!(
                        "{n:>2} {block_size:>9} {envelope_size:>9} {receiver_count:>9} {:>12} {:>12.0}",
                        ktps(result.tx_per_sec),
                        result.blocks_per_sec
                    );
                }
            }
        }
    }

    println!(
        "\npaper reference (Dell R410 cluster, GbE): ~50 ktx/s peak at\n\
         blocks of 10 / few receivers; >100 ktx/s for 40 B envelopes at\n\
         blocks of 100; ~2.2 ktx/s at 10 nodes / 4 KiB / 32 receivers.\n\
         Absolute numbers scale with hardware; the orderings above are\n\
         the reproduced result."
    );

    if print_obs {
        // One dedicated point for the breakdown: n=4, 1 KiB envelopes,
        // blocks of 10, single receiver.
        let mut config = LanConfig::new(4, 1);
        config.envelope_size = 1024;
        config.measure = Duration::from_secs(2);
        let result = run_lan_throughput(&config);
        println!(
            "\n# obs run: 4 orderers, blocks of {}, 1 KiB envelopes, 1 receiver \
             ({} at {:.0} blocks/sec)",
            config.block_size,
            ktps(result.tx_per_sec),
            result.blocks_per_sec
        );
        print_phase_breakdown(&result.obs);
    }
}

// ---------------------------------------------------------------------
// Figures 8 and 9 (a-d): geo-distributed latency — BFT-SMaRt vs WHEAT
// at four frontends (Canada, Oregon, Virginia, São Paulo), envelope
// sizes 40 B / 200 B / 1 KiB / 4 KiB, median and 90th percentile — with
// blocks of 10 (Fig. 8) and of 100 envelopes (Fig. 9, up to ~63 ms
// higher because block generation slows down at a fixed workload). Runs
// on the deterministic WAN simulator with the AWS inter-region RTT
// matrix (see `hlf-simnet::regions`).
// ---------------------------------------------------------------------

const GEO_PROTOCOLS: [(Protocol, &str); 2] = [
    (Protocol::BftSmart, "BFT-SMaRt"),
    (Protocol::Wheat, "WHEAT"),
];

/// The paper's WAN workload: 275 envelopes/s per frontend (> 1000 tx/s
/// aggregate), 45 s with 5 s of warm-up.
fn geo_config(protocol: Protocol, envelope_size: usize, block_size: usize) -> GeoConfig {
    let mut config = GeoConfig::new(protocol);
    config.envelope_size = envelope_size;
    config.block_size = block_size;
    config.duration = SimTime::from_secs(45);
    config.warmup = SimTime::from_secs(5);
    config.rate_per_frontend = 275.0;
    config
}

/// Figure 8 (`block_size` 10) or 9 (100). With `print_obs`, a
/// per-phase latency breakdown of the 1 KiB runs' per-replica obs
/// snapshots is printed at the end.
fn geo_latency(block_size: usize, print_obs: bool) {
    let figure = if block_size == 10 { 8 } else { 9 };
    println!("# Figure {figure}: EC2-style latency, 4 receivers, blocks of {block_size} envelopes");
    println!("# per frontend: median / p90 milliseconds\n");

    let mut regions: Vec<String> = Vec::new();
    // latency[envelope][protocol][frontend] = (median, p90)
    let mut latency: Vec<Vec<Vec<(f64, f64)>>> = Vec::new();
    // (protocol name, per-replica snapshots) from the 1 KiB runs
    let mut obs_tables: Vec<(&str, Vec<Snapshot>)> = Vec::new();
    for &envelope_size in &PAPER_ENVELOPE_SIZES {
        let mut per_protocol = Vec::new();
        for &(protocol, protocol_name) in &GEO_PROTOCOLS {
            let result = run_geo_experiment(&geo_config(protocol, envelope_size, block_size));
            if print_obs && envelope_size == 1024 {
                obs_tables.push((protocol_name, result.obs));
            }
            if regions.is_empty() {
                regions = result
                    .frontends
                    .iter()
                    .map(|f| f.region.name().to_string())
                    .collect();
            }
            per_protocol.push(
                result
                    .frontends
                    .iter()
                    .map(|f| (f.median_ms, f.p90_ms))
                    .collect::<Vec<_>>(),
            );
        }
        latency.push(per_protocol);
    }
    let cells = |envelope: usize, frontend: usize| {
        let (bft_median, bft_p90) = latency[envelope][0][frontend];
        let (wheat_median, wheat_p90) = latency[envelope][1][frontend];
        format!("{bft_median:>12.0} / {bft_p90:<7.0} {wheat_median:>12.0} / {wheat_p90:<7.0}")
    };

    // The paper draws Fig. 8 as one panel per frontend and Fig. 9 as
    // one per envelope size; the tables keep its orientation.
    if figure == 8 {
        for (frontend, region) in regions.iter().enumerate() {
            println!("## panel: frontend in {region}");
            println!(
                "{:>10} {:>22} {:>22}",
                "envelope", "BFT-SMaRt med/p90", "WHEAT med/p90"
            );
            for (envelope, envelope_size) in PAPER_ENVELOPE_SIZES.iter().enumerate() {
                println!("{envelope_size:>8} B {}", cells(envelope, frontend));
            }
            println!();
        }
    } else {
        for (envelope, envelope_size) in PAPER_ENVELOPE_SIZES.iter().enumerate() {
            println!("## envelope size {envelope_size} B");
            println!(
                "{:<12} {:>22} {:>22}",
                "frontend", "BFT-SMaRt med/p90", "WHEAT med/p90"
            );
            for (frontend, region) in regions.iter().enumerate() {
                println!("{region:<12} {}", cells(envelope, frontend));
            }
            println!();
        }
    }

    // The paper's headline observations, restated over our numbers.
    if figure == 8 {
        let average_median = |protocol: usize| -> f64 {
            let medians: Vec<f64> = latency
                .iter()
                .flat_map(|envelope| envelope[protocol].iter().map(|&(median, _)| median))
                .collect();
            medians.iter().sum::<f64>() / medians.len() as f64
        };
        let (bft_avg, wheat_avg) = (average_median(0), average_median(1));
        println!(
            "WHEAT vs BFT-SMaRt average median: {wheat_avg:.0} ms vs {bft_avg:.0} ms \
             ({:.0}% lower; paper: \"almost 50%\")",
            100.0 * (1.0 - wheat_avg / bft_avg)
        );
        // Envelope size insensitivity: spread across sizes per frontend.
        let mut max_spread: f64 = 0.0;
        for protocol in 0..GEO_PROTOCOLS.len() {
            for frontend in 0..regions.len() {
                let medians = latency
                    .iter()
                    .map(|envelope| envelope[protocol][frontend].0);
                let spread =
                    medians.clone().fold(f64::MIN, f64::max) - medians.fold(f64::MAX, f64::min);
                max_spread = max_spread.max(spread);
            }
        }
        println!(
            "largest 40 B -> 4 KiB median spread at any frontend: {max_spread:.0} ms \
             (paper: never above 29 ms)"
        );
    } else {
        // Delta vs figure 8 at the Canada frontend, 1 KiB, BFT-SMaRt.
        let kib = PAPER_ENVELOPE_SIZES
            .iter()
            .position(|&size| size == 1024)
            .unwrap_or(0);
        let here = latency[kib][0][0].0;
        let fig8 =
            run_geo_experiment(&geo_config(Protocol::BftSmart, 1024, 10)).frontends[0].median_ms;
        println!(
            "block-size effect (Canada, 1 KiB, BFT-SMaRt): {fig8:.0} ms at \
             10 env/block vs {here:.0} ms at {block_size} env/block \
             (+{:.0} ms; paper: up to 63 ms higher)",
            here - fig8
        );
    }

    for (protocol_name, snapshots) in &obs_tables {
        println!("\n# {protocol_name}, 1 KiB envelopes, blocks of {block_size}");
        print_phase_breakdown(snapshots);
    }
}

// ---------------------------------------------------------------------
// Equation (1): the paper's peak-throughput bound
//
//     TP_os(bs, es, r)  <=  min( TP_sign * bs ,  TP_bftsmart(bs, es, r) )
//
// i.e. the ordering service can go no faster than either the rate at
// which one node signs block headers (times envelopes per block) or the
// rate at which BFT-SMaRt orders envelopes. All three quantities are
// measured on the same host and the inequality is checked.
// ---------------------------------------------------------------------

fn eq1_bound_check() {
    println!("# Equation (1) bound check: TP_os <= min(TP_sign * bs, TP_bftsmart)");
    let tp_sign = signing_rate(paper_signing_threads(), 8, 10);
    println!(
        "TP_sign  = {:.0} block signatures/sec ({} signer threads)\n",
        tp_sign,
        paper_signing_threads()
    );

    println!(
        "{:>9} {:>9} {:>14} {:>14} {:>14} {:>8}",
        "blk size", "env size", "TP_sign*bs", "TP_bftsmart", "TP_os", "holds?"
    );
    let mut all_hold = true;
    for (block_size, envelope_size) in [(10usize, 40usize), (10, 1024), (100, 40), (100, 1024)] {
        let tp_bftsmart = run_raw_consensus_throughput(4, 1, envelope_size, Duration::from_secs(2));
        let mut config = LanConfig::new(4, 1);
        config.block_size = block_size;
        config.envelope_size = envelope_size;
        config.receivers = 1;
        config.measure = Duration::from_secs(2);
        let tp_os = run_lan_throughput(&config).tx_per_sec;

        let sign_bound = tp_sign * block_size as f64;
        let bound = sign_bound.min(tp_bftsmart);
        // Allow 15% measurement slack: the three quantities come from
        // separate runs under different contention.
        let holds = tp_os <= bound * 1.15;
        all_hold &= holds;
        println!(
            "{block_size:>9} {envelope_size:>9} {:>13}k {:>13}k {:>13}k {:>8}",
            ktps(sign_bound),
            ktps(tp_bftsmart),
            ktps(tp_os),
            if holds { "yes" } else { "NO" }
        );
    }
    println!(
        "\nbound {} across all measured configurations",
        if all_hold { "holds" } else { "VIOLATED" }
    );
    println!(
        "(The paper derives the same bound in §6.1 and confirms it in §6.2:\n\
         at blocks of 10 the signature term binds for small envelopes; at\n\
         blocks of 100 the consensus term binds.)"
    );
}

// ---------------------------------------------------------------------
// Ablations for the design choices DESIGN.md calls out, beyond the
// paper's figures: ABL1 frontend trust policy (2f+1 matching copies vs
// verify and accept after f+1, footnote 8); ABL2 how much of WHEAT's
// win is weighted voting vs tentative execution; ABL3 checkpoint period
// (§5.2 argues the tiny state makes frequent checkpoints nearly free);
// ABL4 footnote 10's second signature per block.
// ---------------------------------------------------------------------

fn ablations() {
    println!("# Ablation benches (beyond the paper's figures)\n");
    abl1_frontend_policy();
    abl2_wheat_decomposition();
    abl3_checkpoint_period();
    abl4_double_signing();
}

fn abl1_frontend_policy() {
    println!("## ABL1: frontend trust policy (4 orderers, 1 KiB envelopes, 8 receivers)");
    println!("{:<28} {:>12} {:>12}", "policy", "ktrans/sec", "blocks/sec");
    for (label, verify) in [
        ("match 2f+1 (paper default)", false),
        ("verify, f+1 copies", true),
    ] {
        let mut config = LanConfig::new(4, 1);
        config.envelope_size = 1024;
        config.receivers = 8;
        config.measure = Duration::from_secs(2);
        config.verify_frontends = verify;
        let result = run_lan_throughput(&config);
        println!(
            "{label:<28} {:>12} {:>12.0}",
            ktps(result.tx_per_sec),
            result.blocks_per_sec
        );
    }
    println!(
        "(Verification moves CPU cost to the frontends but needs f fewer\n\
         copies; on a WAN it also saves one block transmission.)\n"
    );
}

fn abl2_wheat_decomposition() {
    println!("## ABL2: WHEAT decomposition (5 nodes, 1 KiB envelopes, blocks of 10)");
    println!("{:<36} {:>14}", "variant", "avg median ms");
    let variants = [
        ("classic quorums, final delivery", false, false),
        ("weighted quorums only", true, false),
        ("tentative execution only", false, true),
        ("full WHEAT (weights + tentative)", true, true),
    ];
    for (label, weights, tentative) in variants {
        let mut config = GeoConfig::new(Protocol::Wheat); // 5-node placement
        config.weights_override = Some(weights);
        config.tentative_override = Some(tentative);
        config.duration = SimTime::from_secs(30);
        config.warmup = SimTime::from_secs(5);
        config.rate_per_frontend = 200.0;
        let result = run_geo_experiment(&config);
        let avg = result.frontends.iter().map(|f| f.median_ms).sum::<f64>()
            / result.frontends.len() as f64;
        println!("{label:<36} {avg:>14.0}");
    }
    println!(
        "(Tentative execution removes the ACCEPT round; weighted voting\n\
         lets the two fastest replicas complete quorums. The paper\n\
         evaluates only the combination.)\n"
    );
}

fn abl3_checkpoint_period() {
    println!("## ABL3: checkpoint period vs consensus throughput (4 nodes)");
    println!("{:>20} {:>14}", "checkpoint every", "ktrans/sec");
    for interval in [8u64, 64, 256, 2048] {
        let rate = run_checkpoint_sweep_point(4, 1, interval, Duration::from_secs(2));
        println!("{interval:>17} dec {:>14}", ktps(rate));
    }
    println!(
        "(§5.2: ordering-service state is ~32 bytes, so even aggressive\n\
         checkpointing costs almost nothing — the rows above should be\n\
         within noise of each other.)\n"
    );
}

fn abl4_double_signing() {
    println!("## ABL4: footnote-10 double signing (4 orderers, 40 B envelopes, blocks of 1)");
    println!("# blocks of 1 make the signature term of equation (1) the binding one");
    println!("{:<24} {:>12}", "mode", "ktrans/sec");
    for (label, double) in [("single signature", false), ("double signature", true)] {
        let mut config = LanConfig::new(4, 1);
        config.envelope_size = 40;
        // One envelope per block: TP_sign * 1 binds (otherwise the
        // consensus term hides the signing cost on this host, exactly
        // as equation (1) predicts).
        config.block_size = 1;
        config.receivers = 1;
        config.measure = Duration::from_secs(2);
        config.double_sign = double;
        let result = run_lan_throughput(&config);
        println!("{label:<24} {:>12}", ktps(result.tx_per_sec));
    }
    println!(
        "(Paper footnote 10: when HLF needs a second signature per block,\n\
         the TP_sign term of equation (1) halves.)\n"
    );
}
