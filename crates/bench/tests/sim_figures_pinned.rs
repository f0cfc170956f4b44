//! Characterisation of the geo simulator's figures, pinned *before*
//! the simulator became a driver of the shipped `NodeCore`,
//! `OrderingNodeApp` and `BlockCollector` (it used to carry its own
//! copy of the ordering node). The pins are the values that private
//! copy produced at seed 1; the shared code must stay within ±2 % of
//! every one, per frontend. The runs are deterministic, so a miss is a
//! behavioural change of the node, the collector or the simulator's
//! models — never noise.

use hlf_simnet::SimTime;
use ordering_core::{run_geo_experiment, GeoConfig, GeoResult, Protocol};

const TOLERANCE: f64 = 0.02;

/// `sim.rs`'s `quick_config`: 1024 B envelopes, blocks of 10, 100
/// envelopes/s per frontend, 12 s with 2 s of warm-up.
fn quick_config(protocol: Protocol) -> GeoConfig {
    let mut config = GeoConfig::new(protocol);
    config.duration = SimTime::from_secs(12);
    config.warmup = SimTime::from_secs(2);
    config.rate_per_frontend = 100.0;
    config
}

fn assert_within(what: &str, live: f64, pinned: f64) {
    let deviation = (live / pinned - 1.0).abs();
    assert!(
        deviation <= TOLERANCE,
        "{what}: {live} vs pinned {pinned} ({:+.2} %)",
        (live / pinned - 1.0) * 100.0
    );
}

/// `pinned`: per frontend (Canada, Oregon, Virginia, São Paulo), the
/// median and 90th-percentile latency in ms.
fn assert_figures(name: &str, result: &GeoResult, pinned: [(f64, f64); 4], throughput: f64) {
    assert_eq!(result.frontends.len(), pinned.len());
    for (frontend, (median, p90)) in result.frontends.iter().zip(pinned) {
        assert_within(&format!("{name} {} median", frontend.region), frontend.median_ms, median);
        assert_within(&format!("{name} {} p90", frontend.region), frontend.p90_ms, p90);
    }
    assert_within(&format!("{name} throughput"), result.throughput, throughput);
}

#[test]
fn bftsmart_quick_config_matches_the_pinned_figures() {
    let result = run_geo_experiment(&quick_config(Protocol::BftSmart));
    let pinned = [
        (510.174, 610.47),
        (508.728, 608.73),
        (513.234, 613.571),
        (571.703, 672.605),
    ];
    assert_figures("bft-smart", &result, pinned, 421.0);
}

#[test]
fn wheat_quick_config_matches_the_pinned_figures() {
    let result = run_geo_experiment(&quick_config(Protocol::Wheat));
    let pinned = [
        (276.88, 333.289),
        (272.68, 328.675),
        (289.308, 345.67),
        (396.664, 452.618),
    ];
    assert_figures("wheat", &result, pinned, 414.0);
}

/// One replica slowed by 250 ms and 2500 envelopes/s per frontend:
/// more than a single consensus slot per WAN round trip can order.
fn saturated_config(depth: usize) -> GeoConfig {
    let mut config = GeoConfig::new(Protocol::BftSmart)
        .with_slow_replica(3, SimTime::from_millis(250))
        .with_pipeline_depth(depth);
    config.duration = SimTime::from_secs(6);
    config.warmup = SimTime::from_secs(2);
    config.rate_per_frontend = 2500.0;
    config
}

/// The saturated k = 4 window.
#[test]
fn saturated_pipeline_probe_matches_the_pinned_figures() {
    let result = run_geo_experiment(&saturated_config(4));
    let pinned = [
        (3185.595, 4777.664),
        (3112.686, 4695.603),
        (3187.137, 4781.469),
        (3320.853, 4937.535),
    ];
    assert_figures("pipeline k=4", &result, pinned, 13000.0);
}

/// With k = 1 the leader cannot propose slot s+1 until slot s decides,
/// so throughput is capped at one batch per WAN round trip and the
/// backlog grows for the whole run; with k = 4 the rounds of four slots
/// overlap on the wire. The window must at least double the ordered
/// throughput, at an aggregate median latency no worse.
#[test]
fn window_of_four_doubles_saturated_throughput_at_no_worse_p50() {
    // Median over frontends, weighted by sample count: the same
    // backlog dominates at each, so the medians are close.
    let p50 = |result: &GeoResult| {
        let frontends = &result.frontends;
        let samples: usize = frontends.iter().map(|f| f.samples).sum();
        assert!(samples > 0, "no latency samples after warm-up");
        let weighted: f64 = frontends
            .iter()
            .map(|f| f.median_ms * f.samples as f64)
            .sum();
        weighted / samples as f64
    };
    let single = run_geo_experiment(&saturated_config(1));
    let window = run_geo_experiment(&saturated_config(4));
    assert!(
        window.throughput >= 2.0 * single.throughput,
        "k=4 orders {:.1}/s vs k=1 {:.1}/s",
        window.throughput,
        single.throughput
    );
    assert!(
        p50(&window) <= p50(&single),
        "k=4 p50 {:.1} ms vs k=1 {:.1} ms",
        p50(&window),
        p50(&single)
    );
}
