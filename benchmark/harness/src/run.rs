//! One run of one workload: five set-ups, the paced stage, the sat stage,
//! the after-timing checks, and the metrics that come out of them.

use crate::check::{Chain, Verified};
use crate::drive::{with_cluster, Closed, Finished, Helper, Paced};
use crate::gen::Payloads;
use crate::layers;
use crate::spec::{Spec, N, SETUPS};
use crate::stats::{median, peak_rss_mib, SLICES};
use crate::trace::arm_allocator;
use hlf_smr::runtime::ClusterKeys;
use std::path::Path;
use std::time::Instant;

/// A generator that submits later than this (p99) did not hold its schedule.
const GENERATOR_LATE_MS: f64 = 25.0;

/// A metric as it is printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics of an untraced run, the per-layer metrics of
    /// a traced one.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks: violations, flags, sample counts.
    pub notes: Vec<String>,
}

/// What the stages of the kept cluster produced.
pub struct Stages {
    pub paced: Paced,
    pub sat: Closed,
}

/// `trace_dir`: where a traced run writes its trace file; `None` = untraced.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace_dir: Option<&Path>) -> Outcome {
    let trace = trace_dir.is_some();
    let epoch = Instant::now();
    let payloads = Payloads::new(seed, spec.envelope_bytes);
    // Every gated figure but the set-up time comes from the sat stage, so
    // it gets two thirds of the run.
    let paced_seconds = seconds / 3.0;
    let paced_total = (spec.paced_rate as f64 * paced_seconds) as u64;
    let sat_total = (spec.sat_per_second as f64 * seconds * 2.0 / 3.0) as u64;
    let mut notes = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    // Set-ups that are timed and thrown away: only the warm-up is checked.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for k in 1..SETUPS {
        let done = with_cluster(spec, &payloads, spec.warmup, epoch, false, |_| ());
        done.cluster.shutdown();
        setup_s.push(done.setup_s);
        if let Some(v) = warmup_violation(spec, &done.chain, &done.helper) {
            violations.push(format!("set-up {k}: {v}"));
        }
    }

    let expected = spec.warmup + paced_total + sat_total;
    let Finished {
        setup_s: kept_setup_s,
        result: stages,
        mut chain,
        mut recorder,
        helper,
        cluster,
    } = with_cluster(spec, &payloads, expected, epoch, trace, |session| {
        // The counting allocator is armed for the stages of a traced run.
        arm_allocator(trace);
        let paced = session.paced(paced_seconds);
        let sat = session.closed_loop("sat", sat_total);
        arm_allocator(false);
        Stages { paced, sat }
    });
    setup_s.push(kept_setup_s);
    let peak_rss_mb = peak_rss_mib();

    // Timing has stopped; everything below is checking and accounting.
    let Helper {
        chains: mut receivers,
        recorder: helper_recorder,
        cpu_us: helper_cpu_us,
    } = helper;
    let check = recorder.begin("check", 0);
    let check_started = Instant::now();
    let final_obs = cluster.obs();
    let keys = ClusterKeys::derive("runtime", N).verifying;
    // Both cores verify: the submitter's chain here, the receivers' beside it.
    let (data_hashes, verified) = std::thread::scope(|scope| {
        let beside = scope.spawn(|| {
            receivers
                .iter_mut()
                .map(|receiver| receiver.verify_signatures(&keys))
                .fold(Verified::default(), Verified::plus)
        });
        let data_hashes = chain.verify_data_hashes();
        let verified = chain.verify_signatures(&keys);
        let beside = beside.join().expect("the verifying thread panicked");
        (data_hashes, verified.plus(beside))
    });
    violations.extend(chain.violation.take());
    for (i, receiver) in receivers.iter_mut().enumerate() {
        violations.extend(
            receiver
                .violation
                .take()
                .map(|v| format!("receiver {}: {v}", i + 1)),
        );
        if let Err(why) = receiver.same_chain_as(&chain) {
            violations.push(format!("receiver {}: {why}", i + 1));
        }
    }
    let regency_changes = final_obs
        .counter_value("consensus.replica.regency_changes")
        .unwrap_or(0);
    if spec.crash_leader && regency_changes == 0 {
        violations.push("the leader was crashed but no replica changed regency".into());
    }
    if !spec.crash_leader && regency_changes > 0 {
        violations.push(format!(
            "{regency_changes} regency changes on a workload with no fault"
        ));
    }
    let Stages { paced, sat } = &stages;
    for (stage, attempted, delivered) in [
        ("paced", paced.attempted, paced.delivered),
        ("sat", sat.attempted, sat.delivered),
    ] {
        if delivered < attempted {
            violations.push(format!(
                "the {stage} stage stalled: {delivered} of {attempted} envelopes delivered"
            ));
        }
    }
    if spec.crash_leader {
        // The one injected fault must show as one outage of 2 x timeout
        // (a replica forwards the request, then suspects the leader) plus
        // the view change, and the view change must fit in one more timeout.
        let timeout = spec.request_timeout_ms as f64;
        if !(2.0 * timeout..=3.0 * timeout).contains(&paced.outage_ms) {
            violations.push(format!(
                "outage of {:.1} ms is outside 2x-3x the {timeout} ms request timeout",
                paced.outage_ms
            ));
        }
    }
    recorder.end(check);
    let check_s = check_started.elapsed().as_secs_f64();

    let attempted = paced.attempted + sat.attempted;
    let failed = attempted - (paced.delivered + sat.delivered).min(attempted);

    notes.push(format!(
        "{} blocks delivered to each of {} frontends: numbering, prev_hash, signer count, sequence and bytes of every envelope checked on each; data hash recomputed for {data_hashes} blocks (all); {} signatures verified on {} blocks (the one holding every {}th envelope); {check_s:.2} s after timing stopped",
        chain.blocks(),
        spec.receivers,
        verified.signatures,
        verified.signed_blocks,
        chain.stride,
    ));
    notes.push(format!(
        "stage figures are taken over the quiet half of the {} inner slices of {SLICES}",
        SLICES - 2
    ));
    notes.push(format!(
        "paced: {} tx/s for {paced_seconds} s; quiet half: p50 {:.4} ms and p99 {:.4} ms over {} samples ({} beyond the p99); whole stage: p50 {:.4} ms, mean {:.4} ms",
        spec.paced_rate,
        paced.lat_p50_ms,
        paced.lat_p99_ms,
        paced.latency_samples,
        paced.latency_samples / 100,
        paced.lat_p50_stage_ms,
        paced.lat_mean_ms,
    ));
    notes.push(format!(
        "paced: outage_ms {:.3}, gen_late_p99_ms {:.4}, regency changes {regency_changes}",
        paced.outage_ms, paced.gen_late_p99_ms
    ));
    let rounded = |ms: &[f64]| {
        let ms: Vec<String> = ms.iter().map(|ms| format!("{ms:.0}")).collect();
        ms.join(" ")
    };
    notes.push(format!(
        "paced: mean latency of each slice, ms: {}",
        rounded(&paced.slice_mean_ms)
    ));
    if paced.gen_late_p99_ms > GENERATOR_LATE_MS {
        notes.push(format!(
            "generator_late: p99 lateness above {GENERATOR_LATE_MS} ms"
        ));
    }
    notes.push(format!(
        "sat: {} envelopes in {:.3} s, window {}; tx/s: quiet half {:.0}, median slice {:.0}, whole stage {:.0}",
        sat.attempted,
        sat.cost.wall_s,
        spec.window,
        sat.tx_per_s,
        sat.tx_per_s_median_slice,
        sat.tx_per_s_stage(),
    ));
    notes.push(format!(
        "sat: duration of each slice, ms: {}",
        rounded(&sat.slice_ms)
    ));
    for v in &violations {
        notes.push(format!("VIOLATION {v}"));
    }

    let metrics = match trace_dir {
        Some(dir) => {
            recorder.absorb(helper_recorder);
            layers::per_layer(
                spec,
                seed,
                &stages,
                &cluster,
                &mut recorder,
                helper_cpu_us,
                &final_obs,
                dir,
            )
        }
        None => vec![
            ("setup_s", median(&setup_s), "s"),
            ("tx_per_s", sat.tx_per_s, "tx/s"),
            ("cpu_us_per_tx", sat.cpu_us_per_tx, "us"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    };
    cluster.shutdown();

    Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// A discarded set-up must still have ordered its warm-up, in order, on
/// every frontend.
fn warmup_violation(spec: &Spec, chain: &Chain, helper: &Helper) -> Option<String> {
    if let Some(v) = &chain.violation {
        return Some(v.clone());
    }
    if chain.delivered != spec.warmup {
        return Some(format!(
            "{} of {} warm-up envelopes delivered",
            chain.delivered, spec.warmup
        ));
    }
    helper.chains.iter().find_map(|receiver| {
        receiver
            .violation
            .clone()
            .or_else(|| receiver.same_chain_as(chain).err())
    })
}
