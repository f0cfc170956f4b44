//! Regression test for trace attribution across a view change: with the
//! consensus window pipelined (k = 4), crash the regency-0 leader
//! mid-run, let the cluster elect a new leader, and check that the
//! merged per-transaction timelines still telescope *exactly* —
//! the five phase deltas (relay, write, accept, sign, collect) sum to
//! deliver − submit for every completed transaction, including the ones
//! whose slots were re-proposed by (or first proposed under) the new
//! leader. This is what the generalized `bench::trace::merge_timelines`
//! buys over the old leader-0-only merge, which silently drops or
//! mis-attributes everything ordered after the regency change.
//!
//! The healthy and slowed-replica cases hold the rest of the traced
//! pipeline: timelines telescope, the flight dump JSON is byte-stable,
//! the straggler detector names the slowed replica, and the auditor
//! stays silent at window depths 2 and 3.

use bench::trace::merge_timelines;
use hlf_obs::flight::EventKind;
use hlf_simnet::SimTime;
use ordering_core::sim::{run_geo_experiment, GeoConfig, Protocol};

const CRASH_AT_S: u64 = 4;
const REQUEST_TIMEOUT_MS: u64 = 2_000;

#[test]
fn pipelined_timelines_telescope_exactly_across_a_view_change() {
    let mut config = GeoConfig::new(Protocol::BftSmart)
        .with_trace()
        .with_pipeline_depth(4)
        .with_request_timeout_ms(REQUEST_TIMEOUT_MS)
        .with_crash_replica(0, SimTime::from_secs(CRASH_AT_S));
    config.duration = SimTime::from_secs(20);
    config.warmup = SimTime::from_secs(2);
    config.rate_per_frontend = 100.0;

    let result = run_geo_experiment(&config);
    let dumps = result.flights.as_deref().expect("trace requested");

    // The crash must actually have forced a regency change.
    let regency_changes = dumps
        .iter()
        .flat_map(|d| &d.events)
        .filter(|e| e.kind == EventKind::RegencyChange && e.a >= 1)
        .count();
    assert!(
        regency_changes > 0,
        "leader crash did not trigger a view change"
    );

    let timelines = merge_timelines(dumps);
    assert!(
        timelines.len() > 500,
        "too few complete timelines: {}",
        timelines.len()
    );

    // Transactions ordered by the post-view-change leader must be
    // present and attributed to it — not dropped, not pinned to the
    // dead node 0.
    let crash_us = CRASH_AT_S * 1_000_000;
    let after_change: Vec<_> = timelines.iter().filter(|t| t.regency >= 1).collect();
    assert!(
        !after_change.is_empty(),
        "no timeline was attributed to a regency >= 1 leader"
    );
    for t in &after_change {
        assert_ne!(t.leader, 0, "regency {} mapped to the crashed leader", t.regency);
        assert!(
            t.deliver_us > crash_us,
            "trace {:#x}: regency-{} decision delivered before the crash",
            t.trace,
            t.regency
        );
    }
    // The run keeps ordering long after the crash, so the new leader
    // should account for a healthy share of the traffic.
    assert!(
        after_change.len() > 100,
        "only {} timelines attributed past the view change",
        after_change.len()
    );

    // The acceptance bar: phase deltas telescope exactly for every
    // transaction, before and after the regency change.
    for t in &timelines {
        let sum: u64 = t.phases.iter().sum();
        let e2e = t.deliver_us - t.submit_us;
        assert_eq!(
            sum,
            e2e,
            "trace {:#x} (cid {}, regency {}, leader {}): phases {:?} sum to {} but e2e is {}",
            t.trace,
            t.cid,
            t.regency,
            t.leader,
            t.phases,
            sum,
            e2e
        );
    }
}

#[test]
fn merge_matches_leader_zero_attribution_on_a_healthy_run() {
    // On a crash-free run every decision happens at regency 0, so the
    // generalized merge must attribute everything to node 0 and
    // telescope exactly — i.e. it is a strict superset of the old
    // hardcoded merge — and the audited run has nothing to report.
    for depth in [2, 3] {
        let mut config = GeoConfig::new(Protocol::BftSmart)
            .with_trace()
            .with_audit()
            .with_pipeline_depth(depth);
        config.duration = SimTime::from_secs(8);
        config.warmup = SimTime::from_secs(2);
        config.rate_per_frontend = 100.0;

        let result = run_geo_experiment(&config);
        let dumps = result.flights.as_deref().expect("trace requested");
        let timelines = merge_timelines(dumps);
        assert!(
            timelines.len() > 300,
            "k={depth}: too few complete timelines: {}",
            timelines.len()
        );
        for t in &timelines {
            assert_eq!(t.regency, 0);
            assert_eq!(t.leader, 0);
            let sum: u64 = t.phases.iter().sum();
            let e2e = t.deliver_us - t.submit_us;
            assert_eq!(sum, e2e, "k={depth} trace {:#x}", t.trace);
        }
        let audit = result.audit.expect("audit requested");
        let lines: Vec<String> = audit.violations.iter().map(|v| v.to_line()).collect();
        assert!(lines.is_empty(), "k={depth}: false positives {lines:?}");
    }
}

#[test]
fn slowed_replica_is_suspected_and_its_run_still_telescopes() {
    /// São Paulo in the BFT-SMaRt placement; not the leader.
    const SLOW_NODE: usize = 3;
    let mut config = GeoConfig::new(Protocol::BftSmart)
        .with_obs()
        .with_trace()
        .with_slow_replica(SLOW_NODE, SimTime::from_millis(250));
    config.duration = SimTime::from_secs(10);
    config.warmup = SimTime::from_secs(2);
    config.rate_per_frontend = 100.0;
    let result = run_geo_experiment(&config);
    let dumps = result.flights.as_deref().expect("trace requested");
    let obs = result.obs.as_deref().expect("obs requested");

    // Emit → parse → re-emit of the dump JSON is byte-identical.
    let json = hlf_obs::dumps_to_json(dumps);
    let reparsed = hlf_obs::dumps_from_json(&json).expect("own dump JSON parses");
    assert_eq!(json, hlf_obs::dumps_to_json(&reparsed));

    let timelines = merge_timelines(dumps);
    assert!(
        timelines.len() > 1000,
        "too few complete timelines: {}",
        timelines.len()
    );
    for t in &timelines {
        let e2e = (t.deliver_us - t.submit_us) as f64;
        let sum: u64 = t.phases.iter().sum();
        assert!(
            (sum as f64 - e2e).abs() <= 0.05 * e2e,
            "trace {:#x}: phases {:?} sum to {sum} but e2e is {e2e}",
            t.trace,
            t.phases
        );
    }

    // Every replica measures its own peers; at least one of the fast
    // ones must have flagged the slow one, in its gauge and in its ring.
    let suspects = |i: usize| obs[i].gauge_value("consensus.health.suspected_peers");
    assert!(
        (0..obs.len()).any(|i| i != SLOW_NODE && suspects(i).unwrap_or(0) > 0),
        "slow replica {SLOW_NODE} was not suspected by any peer"
    );
    assert!(
        dumps
            .iter()
            .flat_map(|d| &d.events)
            .any(|e| e.kind == EventKind::Suspect && e.a == SLOW_NODE as u64),
        "no Suspect flight event names replica {SLOW_NODE}"
    );
}
