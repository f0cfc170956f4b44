//! Per-layer metrics of a traced run, and the trace file.
//!
//! Three sources, and nothing is estimated: *probes* (probes.rs), *counters*
//! (the program's own obs metrics, read at stage boundaries and divided by
//! the envelopes the stage delivered) and *spans* (the benchmark's own,
//! around its calls into the program). A layer is a crate of the workspace.

use crate::cluster::Cluster;
use crate::gen::Payloads;
use crate::probes::{self, Probes, VOTE_FRAME_BYTES};
use crate::run::{Metric, Stages};
use crate::spec::{Spec, N};
use crate::stats::median;
use crate::trace::{Recorder, NO_REQUEST};
use hlf_obs::{HistogramSnapshot, Snapshot};
use std::path::Path;
use std::time::Instant;

fn counter(obs: &Snapshot, name: &str) -> f64 {
    obs.counter_value(name).unwrap_or(0) as f64
}

fn histogram<'a>(
    obs: &'a Snapshot,
    name: &str,
    empty: &'a HistogramSnapshot,
) -> &'a HistogramSnapshot {
    obs.histogram(name).unwrap_or(empty)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    spec: &Spec,
    seed: u64,
    stages: &Stages,
    cluster: &Cluster,
    recorder: &mut Recorder,
    helper_cpu_us: f64,
    final_obs: &Snapshot,
    out_dir: &Path,
) -> Vec<Metric> {
    let empty = HistogramSnapshot::default();
    let Stages { paced, sat } = stages;
    let (paced_obs, sat_obs) = (&paced.cost.obs, &sat.cost.obs);
    let tx = sat.delivered.max(1) as f64;

    // Probes use the batch size the sat stage really ran at.
    let batches = histogram(sat_obs, "smr.node.commit_batch_len", &empty);
    let payloads = Payloads::new(seed, spec.envelope_bytes);
    let p: Probes = probes::run(spec, &payloads, batches.mean().round() as usize, recorder);

    let snapshot_us = {
        let span = recorder.begin("probe.obs.snapshot", NO_REQUEST);
        let times: Vec<f64> = (0..200)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(cluster.obs());
                start.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        recorder.end(span);
        median(&times)
    };

    let cpu_us_per_tx = sat.cost.cpu_us / tx;
    let blocks = counter(sat_obs, "core.frontend.delivered_blocks") / spec.receivers as f64;
    let blocks_per_tx = blocks / tx;
    let block_signs_per_tx = counter(sat_obs, "core.signing.signed") / tx;
    let quorum_votes = histogram(sat_obs, "consensus.replica.write_quorum_votes", &empty).sum
        + histogram(sat_obs, "consensus.replica.accept_quorum_votes", &empty).sum;
    let instances_per_tx = ratio(1.0, batches.mean());
    let paced_batches = histogram(paced_obs, "smr.node.commit_batch_len", &empty);

    // TCP counters exist on the TCP backend only; the hub sends no frame
    // through a socket, so there they are 0 by definition, not by guess.
    let frames_out = counter(sat_obs, "transport.net.frames_out");
    let frames_in = counter(sat_obs, "transport.net.frames_in");
    let bytes_out = counter(sat_obs, "transport.net.bytes_out");
    let bytes_in = counter(sat_obs, "transport.net.bytes_in");
    let writev = counter(sat_obs, "transport.net.writev_calls");
    let reads = counter(sat_obs, "transport.net.read_calls");

    // The ledger: what each layer's probe cost times its calls per envelope
    // explains of the process CPU per envelope over the whole traced sat
    // stage (`ledger.cpu_us_per_tx`; the end-to-end `cpu_us_per_tx` is the
    // same ratio on the stage's quiet slices). Rows do not overlap:
    //   crypto    block signatures (vote signatures are inside `consensus`)
    //   mac       HMAC of every frame sealed and opened on a socket,
    //             linear in bytes between the vote-frame and block-frame probes
    //   codec     every replica encodes every block once
    //   hash      every replica hashes every block's data once
    //   consensus one probed instance (all four replicas) per decided batch
    //   frontend  on-CPU time of the benchmark's two threads, which hold
    //             the frontends: decode, data-hash check, collection
    let mac_per_byte_us = ratio(
        (p.seal_us - p.hmac_us_per_frame).max(0.0),
        (p.block_bytes as f64 - VOTE_FRAME_BYTES as f64).max(1.0),
    );
    let mac_us = |frames: f64, bytes: f64| frames * p.hmac_us_per_frame + bytes * mac_per_byte_us;
    let ledger = [
        ("ledger.crypto_us_per_tx", p.sign_us * block_signs_per_tx),
        (
            "ledger.mac_us_per_tx",
            (mac_us(frames_out, bytes_out) + mac_us(frames_in, bytes_in)) / tx,
        ),
        (
            "ledger.codec_us_per_tx",
            p.block_encode_us * N as f64 * blocks_per_tx,
        ),
        (
            "ledger.hash_us_per_tx",
            p.block_build_us * N as f64 * blocks_per_tx,
        ),
        (
            "ledger.consensus_us_per_tx",
            p.instance_us * instances_per_tx,
        ),
        (
            "ledger.frontend_us_per_tx",
            (sat.cost.gen_cpu_us + helper_share(helper_cpu_us, stages)) / tx,
        ),
    ];
    let attributed: f64 = ledger.iter().map(|(_, us)| us).sum();

    let mut m: Vec<Metric> = Vec::new();
    let mut add = |name: &'static str, value: f64, unit: &'static str| m.push((name, value, unit));
    add("crypto.sign_us", p.sign_us, "us");
    add("crypto.verify_us", p.verify_us, "us");
    add("crypto.sha256_ns_per_byte", p.sha256_ns_per_byte, "ns/B");
    add("crypto.hmac_us_per_frame", p.hmac_us_per_frame, "us");
    add("crypto.block_signs_per_tx", block_signs_per_tx, "count");
    add(
        "crypto.vote_verifies_per_tx",
        quorum_votes as f64 / tx,
        "count",
    );
    add("wire.block_encode_us", p.block_encode_us, "us");
    add("wire.block_decode_us", p.block_decode_us, "us");
    add("wire.allocs_per_tx", sat.cost.allocs as f64 / tx, "count");
    add(
        "wire.alloc_bytes_per_tx",
        sat.cost.alloc_bytes as f64 / tx,
        "B",
    );
    add("fabric.block_build_us", p.block_build_us, "us");
    add("fabric.block_check_us", p.block_check_us, "us");
    add("transport.seal_us", p.seal_us, "us");
    add("transport.open_us", p.open_us, "us");
    add("transport.hub_hop_us", p.hub_hop_us, "us");
    add("transport.tcp_hop_us", p.tcp_hop_us, "us");
    add("transport.tcp.frames_per_tx", frames_out / tx, "count");
    add("transport.tcp.bytes_per_tx", bytes_out / tx, "B");
    add(
        "transport.tcp.frames_per_writev",
        ratio(frames_out, writev),
        "count",
    );
    add("transport.tcp.writev_per_tx", writev / tx, "count");
    add("transport.tcp.reads_per_tx", reads / tx, "count");
    add(
        "transport.tcp.reconnects",
        counter(final_obs, "transport.net.reconnects"),
        "count",
    );
    add(
        "transport.tcp.queue_drops",
        counter(final_obs, "transport.net.queue_drops"),
        "count",
    );
    add(
        "transport.tcp.auth_failures",
        counter(final_obs, "transport.net.auth_failures"),
        "count",
    );
    add("consensus.instance_us", p.instance_us, "us");
    add("consensus.batch_mean.paced", paced_batches.mean(), "count");
    add("consensus.batch_mean.sat", batches.mean(), "count");
    add(
        "consensus.instances_per_s.paced",
        ratio(
            paced.delivered as f64,
            paced_batches.mean() * paced.cost.wall_s,
        ),
        "1/s",
    );
    add(
        "consensus.instances_per_s.sat",
        ratio(tx, batches.mean() * sat.cost.wall_s),
        "1/s",
    );
    add(
        "consensus.write_phase_ms_p50",
        histogram(sat_obs, "consensus.replica.write_phase_ms", &empty).p50() as f64,
        "ms",
    );
    add(
        "consensus.accept_phase_ms_p50",
        histogram(sat_obs, "consensus.replica.accept_phase_ms", &empty).p50() as f64,
        "ms",
    );
    add(
        "consensus.regency_changes",
        counter(final_obs, "consensus.replica.regency_changes"),
        "count",
    );
    add(
        "consensus.view_change_ms",
        if spec.crash_leader {
            paced.outage_ms - 2.0 * spec.request_timeout_ms as f64
        } else {
            0.0
        },
        "ms",
    );
    add(
        "consensus.ooo_votes",
        histogram(sat_obs, "consensus.pipeline.ooo_votes", &empty).mean(),
        "count",
    );
    add(
        "consensus.reproposals",
        counter(final_obs, "consensus.pipeline.reproposals"),
        "count",
    );
    add(
        "smr.request_decide_us_p50",
        histogram(paced_obs, "smr.node.request_decide_us", &empty).p50() as f64,
        "us",
    );
    add(
        "smr.state_transfers",
        counter(final_obs, "smr.node.state_transfers"),
        "count",
    );
    add("core.cutter_push_ns", p.cutter_push_ns, "ns");
    add(
        "core.sign_queue_wait_us_p50",
        histogram(sat_obs, "core.signing.queue_wait_us", &empty).p50() as f64,
        "us",
    );
    add(
        "core.sign_us_p50",
        histogram(sat_obs, "core.signing.sign_us", &empty).p50() as f64,
        "us",
    );
    add(
        "core.block_fill_pct",
        histogram(sat_obs, "core.cutter.block_fill_pct", &empty).mean(),
        "%",
    );
    add(
        "core.collect_round_us_p50",
        histogram(sat_obs, "core.frontend.collect_round_us", &empty).p50() as f64,
        "us",
    );
    add("core.blocks_per_s.sat", blocks / sat.cost.wall_s, "1/s");
    add(
        "core.discarded_copies_per_block",
        ratio(
            counter(sat_obs, "core.frontend.discarded_copies"),
            blocks * spec.receivers as f64,
        ),
        "count",
    );
    add(
        "core.frontend_submit_us",
        recorder.mean_us("frontend.submit"),
        "us",
    );
    add(
        "core.frontend_next_block_us",
        recorder.mean_us("frontend.next_block"),
        "us",
    );
    add("obs.snapshot_us", snapshot_us, "us");
    add("bench.gen_late_p99_ms", paced.gen_late_p99_ms, "ms");
    add("bench.outage_ms", paced.outage_ms, "ms");
    add("bench.lat_p50_ms", paced.lat_p50_ms, "ms");
    add("bench.lat_p99_ms", paced.lat_p99_ms, "ms");
    add("bench.lat_mean_ms", paced.lat_mean_ms, "ms");
    add("bench.lat_p50_stage_ms", paced.lat_p50_stage_ms, "ms");
    add("bench.tx_per_s_traced", sat.tx_per_s, "tx/s");
    add(
        "bench.tx_per_s_median_slice",
        sat.tx_per_s_median_slice,
        "tx/s",
    );
    add("bench.tx_per_s_stage", sat.tx_per_s_stage(), "tx/s");
    add("ledger.cpu_us_per_tx", cpu_us_per_tx, "us");
    for (name, us) in ledger {
        add(name, us, "us");
    }
    add(
        "ledger.unattributed_pct",
        (1.0 - ratio(attributed, cpu_us_per_tx)) * 100.0,
        "%",
    );

    if let Err(err) = write_trace(spec, seed, stages, recorder, &m, out_dir) {
        eprintln!(
            "could not write the trace file under {}: {err}",
            out_dir.display()
        );
    }
    m
}

/// The helper thread lives as long as the cluster; charge the sat stage its
/// share of the helper's CPU by wall-clock.
fn helper_share(helper_cpu_us: f64, stages: &Stages) -> f64 {
    let sat = stages.sat.cost.wall_s;
    helper_cpu_us * ratio(sat, sat + stages.paced.cost.wall_s)
}

/// Spans, span totals, the obs movement of each stage and the per-layer
/// table, as one JSON file per workload.
fn write_trace(
    spec: &Spec,
    seed: u64,
    stages: &Stages,
    recorder: &Recorder,
    per_layer: &[Metric],
    out_dir: &Path,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(recorder.spans.len() * 96 + 65_536);
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {seed},\n \"per_layer\": {{",
        spec.name
    );
    for (i, (name, value, unit)) in per_layer.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("},\n \"span_totals\": {");
    for (i, (name, total)) in recorder.totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\": {{\"count\": {}, \"total_ns\": {}}}",
            total.count, total.total_ns
        );
    }
    let _ = write!(
        out,
        "}},\n \"counters\": {{\"paced\": {}, \"sat\": {}}},\n \"spans\": [",
        stages.paced.cost.obs.to_json(),
        stages.sat.cost.obs.to_json()
    );
    for (i, s) in recorder.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let request = if s.request == NO_REQUEST {
            "null".to_string()
        } else {
            s.request.to_string()
        };
        let _ = write!(
            out,
            "{sep}\n  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"request\": {request}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join(format!("trace-{}.json", spec.name)), out)
}
