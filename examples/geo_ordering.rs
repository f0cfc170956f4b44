//! Geo-distributed ordering: BFT-SMaRt vs WHEAT across four continents
//! (a miniature of the paper's §6.3 evaluation).
//!
//! Ordering nodes run in Oregon, Ireland, Sydney and São Paulo — WHEAT
//! adds Virginia as a weighted spare — while frontends in Canada,
//! Oregon, Virginia and São Paulo measure end-to-end envelope latency
//! on the deterministic WAN simulator.
//!
//! ```sh
//! cargo run --release --example geo_ordering
//! ```

use ordering_core::{run_geo_experiment, GeoConfig, Protocol};
use hlf_simnet::SimTime;

fn main() {
    println!("simulating 30s of geo-distributed ordering (1 KiB envelopes, blocks of 10)\n");

    let mut results = Vec::new();
    for protocol in [Protocol::BftSmart, Protocol::Wheat] {
        let mut config = GeoConfig::new(protocol);
        config.duration = SimTime::from_secs(30);
        config.warmup = SimTime::from_secs(5);
        config.rate_per_frontend = 275.0;
        let result = run_geo_experiment(&config);
        results.push((protocol, result));
    }

    println!(
        "{:<12} {:>22} {:>22}",
        "frontend", "BFT-SMaRt (med/p90 ms)", "WHEAT (med/p90 ms)"
    );
    let (_, bft) = &results[0];
    let (_, wheat) = &results[1];
    for (b, w) in bft.frontends.iter().zip(&wheat.frontends) {
        println!(
            "{:<12} {:>12.0} / {:<7.0} {:>12.0} / {:<7.0}",
            b.region.name(),
            b.median_ms,
            b.p90_ms,
            w.median_ms,
            w.p90_ms
        );
    }
    println!(
        "\nthroughput: BFT-SMaRt {:.0} tx/s, WHEAT {:.0} tx/s",
        bft.throughput, wheat.throughput
    );

    let avg = |fls: &[ordering_core::FrontendLatency]| {
        fls.iter().map(|f| f.median_ms).sum::<f64>() / fls.len() as f64
    };
    let improvement = 100.0 * (1.0 - avg(&wheat.frontends) / avg(&bft.frontends));
    println!(
        "WHEAT cuts median latency by {improvement:.0}% on average \
         (the paper reports ~50% with its RTTs)"
    );
}
