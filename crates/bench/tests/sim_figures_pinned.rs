//! Characterisation of the geo simulator's figures, pinned *before*
//! the simulator became a driver of the shipped `NodeCore`,
//! `OrderingNodeApp` and `BlockCollector` (it used to carry its own
//! copy of the ordering node). The pins are the values that private
//! copy produced at seed 1; the shared code must stay within ±2 % of
//! every one, per frontend. The runs are deterministic, so a miss is a
//! behavioural change of the node, the collector or the simulator's
//! models — never noise.

use hlf_simnet::SimTime;
use ordering_core::sim::{run_geo_experiment, GeoConfig, GeoResult, Protocol};

const TOLERANCE: f64 = 0.02;

/// `sim.rs`'s `quick_config`: 1024 B envelopes, blocks of 10, 100
/// envelopes/s per frontend, 12 s with 2 s of warm-up — which is also
/// `bench_summary --check`'s `geo_wheat_tx_s` probe.
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

/// `bench_summary --check`'s `pipeline_k4_tx_s` probe: the saturated
/// k = 4 window with one replica slowed by 250 ms.
#[test]
fn saturated_pipeline_probe_matches_the_pinned_figures() {
    let mut config = GeoConfig::new(Protocol::BftSmart)
        .with_slow_replica(3, SimTime::from_millis(250))
        .with_pipeline_depth(4);
    config.duration = SimTime::from_secs(6);
    config.warmup = SimTime::from_secs(2);
    config.rate_per_frontend = 2500.0;
    let result = run_geo_experiment(&config);
    let pinned = [
        (3185.595, 4777.664),
        (3112.686, 4695.603),
        (3187.137, 4781.469),
        (3320.853, 4937.535),
    ];
    assert_figures("pipeline k=4", &result, pinned, 13000.0);
}
