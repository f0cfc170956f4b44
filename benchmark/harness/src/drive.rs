//! The load generator: set-up, the paced (open-loop) stage and the sat
//! (closed-loop) stage of one workload.
//!
//! Two threads at most. The calling thread owns the submitting frontend:
//! it submits, takes that frontend's blocks and injects the crash. Where a
//! workload has receive-only frontends, a helper thread drains them, so
//! that they never hold the generator up.

use crate::check::{signature_stride, Chain};
use crate::cluster::Cluster;
use crate::gen::Payloads;
use crate::spec::{Spec, F};
use crate::stats::{median, process_cpu_us, quantile_sorted, quiet_slices, thread_cpu_us, SLICES};
use crate::trace::{alloc_counts, Recorder, NO_REQUEST};
use hlf_obs::Snapshot;
use ordering_core::frontend::Frontend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A stage gives up this long after the generator last submitted or was
/// last delivered anything; what is still missing then counts as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// What the helper thread hands back.
pub struct Helper<'a> {
    pub chains: Vec<Chain<'a>>,
    pub recorder: Recorder,
    pub cpu_us: f64,
}

/// Drains the receive-only frontends until each has been delivered
/// `target` envelopes (`u64::MAX` until the submitter has taken its last
/// block) or nothing has arrived for `DRAIN_DEADLINE`.
fn drain_receivers<'a>(
    mut receivers: Vec<Frontend>,
    payloads: &'a Payloads,
    stride: u64,
    target: &AtomicU64,
    mut recorder: Recorder,
) -> Helper<'a> {
    let mut chains: Vec<Chain> = receivers
        .iter()
        .map(|_| Chain::new(payloads, 2 * F + 1, stride))
        .collect();
    let mut stopped_at: Option<Instant> = None;
    loop {
        let mut progressed = false;
        for (receiver, chain) in receivers.iter_mut().zip(&mut chains) {
            let span = recorder.begin("receiver.drain", NO_REQUEST);
            let mut took = false;
            while let Some(block) = receiver.try_next_block() {
                chain.accept(&block);
                took = true;
            }
            recorder.end_as(
                span,
                if took {
                    "receiver.drain"
                } else {
                    "receiver.poll"
                },
            );
            progressed |= took;
        }
        let target = target.load(Ordering::Relaxed);
        if target != u64::MAX {
            let since = *stopped_at.get_or_insert_with(Instant::now);
            if chains.iter().all(|c| c.delivered >= target) || since.elapsed() > DRAIN_DEADLINE {
                break;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    drop(receivers);
    Helper {
        chains,
        recorder,
        cpu_us: thread_cpu_us(),
    }
}

/// Counters every stage reports, over the whole stage.
pub struct StageCost {
    pub wall_s: f64,
    /// Process user+system CPU over the stage.
    pub cpu_us: f64,
    /// On-CPU time of the generator thread over the stage.
    pub gen_cpu_us: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Movement of every obs metric over the stage (traced runs only).
    pub obs: Snapshot,
}

struct CostProbe {
    start: Instant,
    cpu_us: f64,
    gen_cpu_us: f64,
    allocs: (u64, u64),
    obs: Option<Snapshot>,
}

pub struct Closed {
    pub attempted: u64,
    pub delivered: u64,
    /// Envelopes delivered per second, over the stage's quiet slices
    /// (0 if the stage stalled before its last slice).
    pub tx_per_s: f64,
    /// Process user+system CPU per envelope delivered, same slices.
    pub cpu_us_per_tx: f64,
    /// Envelopes per second of the median slice, for comparison.
    pub tx_per_s_median_slice: f64,
    /// Duration of each slice completed, in milliseconds.
    pub slice_ms: Vec<f64>,
    pub cost: StageCost,
}

impl Closed {
    /// Envelopes per second over the whole stage, ramp-up, drain and every
    /// disturbed slice included.
    pub fn tx_per_s_stage(&self) -> f64 {
        self.delivered as f64 / self.cost.wall_s
    }
}

pub struct Paced {
    pub attempted: u64,
    pub delivered: u64,
    /// Over the pooled samples of the stage's quiet slices.
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    /// Samples the two are taken over (1 % lie beyond the p99).
    pub latency_samples: u64,
    /// Median and mean over every envelope of the stage.
    pub lat_p50_stage_ms: f64,
    pub lat_mean_ms: f64,
    /// Mean latency of each slice, in milliseconds.
    pub slice_mean_ms: Vec<f64>,
    pub outage_ms: f64,
    pub gen_late_p99_ms: f64,
    pub cost: StageCost,
}

/// The generator's side of one cluster. A stage starts where the one
/// before it stopped submitting; if that one lost envelopes, no later
/// stage can complete in order, and the run reports them all as failed.
pub struct Session<'a, 'c> {
    spec: &'a Spec,
    payloads: &'a Payloads,
    cluster: &'c mut Cluster,
    frontend: Frontend,
    pub chain: Chain<'a>,
    pub recorder: Recorder,
    next_seq: u64,
}

impl Session<'_, '_> {
    fn submit_next(&mut self) {
        let seq = self.next_seq;
        let span = self.recorder.begin("frontend.submit", seq);
        self.frontend.submit(self.payloads.envelope(seq));
        self.recorder.end(span);
        self.next_seq += 1;
    }

    /// Takes the submitter's next block, waiting up to `timeout`; returns
    /// by how many envelopes the in-order frontier advanced.
    fn take_block(&mut self, timeout: Duration) -> Option<u64> {
        let span = self.recorder.begin("frontend.next_block", NO_REQUEST);
        let block = self.frontend.next_block(timeout);
        self.recorder.end_as(
            span,
            if block.is_some() {
                "frontend.next_block"
            } else {
                "frontend.wait"
            },
        );
        block.map(|block| self.chain.accept(&block))
    }

    fn probe_cost(&self) -> CostProbe {
        let obs = self.recorder.enabled().then(|| self.cluster.obs());
        CostProbe {
            obs,
            allocs: alloc_counts(),
            gen_cpu_us: thread_cpu_us(),
            cpu_us: process_cpu_us(),
            start: Instant::now(),
        }
    }

    fn cost_since(&self, probe: CostProbe) -> StageCost {
        let wall_s = probe.start.elapsed().as_secs_f64();
        let cpu_us = process_cpu_us() - probe.cpu_us;
        let gen_cpu_us = thread_cpu_us() - probe.gen_cpu_us;
        let (allocs, alloc_bytes) = alloc_counts();
        let obs = match probe.obs {
            Some(base) => hlf_obs::delta_since(&self.cluster.obs(), &base),
            None => Snapshot::default(),
        };
        StageCost {
            wall_s,
            cpu_us,
            gen_cpu_us,
            allocs: allocs - probe.allocs.0,
            alloc_bytes: alloc_bytes - probe.allocs.1,
            obs,
        }
    }

    /// Closed loop: orders `count` envelopes with at most `window`
    /// outstanding. The warm-up and the sat stage.
    pub fn closed_loop(&mut self, name: &'static str, count: u64) -> Closed {
        let stage = self.recorder.begin(name, count);
        let probe = self.probe_cost();
        let base = self.next_seq;
        // (time, process CPU) when the stage began and whenever another
        // slice of its envelopes had been delivered.
        let per_slice = (count / SLICES as u64).max(1);
        let mut marks = vec![(self.recorder.now_ns(), probe.cpu_us)];
        let mut last_progress = Instant::now();
        loop {
            let done = self.chain.delivered.saturating_sub(base);
            if done >= count || last_progress.elapsed() > DRAIN_DEADLINE {
                break;
            }
            while self.next_seq - base < count && self.next_seq - base - done < self.spec.window {
                self.submit_next();
                last_progress = Instant::now();
            }
            if self.take_block(Duration::from_millis(50)).is_some() {
                last_progress = Instant::now();
                let done = self.chain.delivered.saturating_sub(base);
                while marks.len() <= SLICES && done >= marks.len() as u64 * per_slice {
                    marks.push((self.recorder.now_ns(), process_cpu_us()));
                }
            }
        }
        let cost = self.cost_since(probe);
        self.recorder.end(stage);
        let delivered = self.chain.delivered.saturating_sub(base);

        // Duration and CPU of each slice; the figures come from the quiet
        // ones. A stage that stalled has no figures: the run is incorrect.
        let slices: Vec<(f64, f64)> = marks
            .windows(2)
            .map(|m| ((m[1].0 - m[0].0) as f64, m[1].1 - m[0].1))
            .collect();
        let (mut tx_per_s, mut cpu_us_per_tx, mut tx_per_s_median_slice) = (0.0, 0.0, 0.0);
        if slices.len() == SLICES {
            let ns: Vec<f64> = slices.iter().map(|&(ns, _)| ns).collect();
            let quiet = quiet_slices(&ns);
            let envelopes = (quiet.len() as u64 * per_slice) as f64;
            let quiet_ns: f64 = quiet.iter().map(|&i| slices[i].0).sum();
            let quiet_cpu_us: f64 = quiet.iter().map(|&i| slices[i].1).sum();
            tx_per_s = envelopes * 1e9 / quiet_ns;
            cpu_us_per_tx = quiet_cpu_us / envelopes;
            tx_per_s_median_slice = per_slice as f64 * 1e9 / median(&ns);
        }
        Closed {
            attempted: count,
            delivered,
            tx_per_s,
            cpu_us_per_tx,
            tx_per_s_median_slice,
            slice_ms: slices.iter().map(|&(ns, _)| ns / 1e6).collect(),
            cost,
        }
    }

    /// Open loop: envelope `i` is due at `i / rate` seconds into the stage
    /// whatever the cluster does, and its latency counts from then. On the
    /// crash workload the leader is crashed half-way through.
    pub fn paced(&mut self, seconds: f64) -> Paced {
        let rate = self.spec.paced_rate;
        let total = (rate as f64 * seconds) as u64;
        let stage = self.recorder.begin("paced", total);
        let probe = self.probe_cost();
        let base = self.next_seq;
        let start_ns = self.recorder.now_ns();
        let due = |i: u64| start_ns + (i as f64 * 1e9 / rate as f64) as u64;
        let mut crash_at_ns = if self.spec.crash_leader {
            start_ns + (seconds * 0.5e9) as u64
        } else {
            u64::MAX
        };
        let mut late_ns: Vec<u64> = Vec::with_capacity(total as usize);
        let mut arrive_ns: Vec<u64> = vec![0; total as usize];
        let mut outage_ns = 0u64;
        let mut last_arrival_ns = start_ns;
        let mut last_progress = Instant::now();
        loop {
            if self.recorder.now_ns() >= crash_at_ns {
                crash_at_ns = u64::MAX;
                let span = self.recorder.begin("crash_leader", 0);
                self.cluster.crash_leader();
                self.recorder.end(span);
            }
            let mut submitted = self.next_seq - base;
            while submitted < total {
                let now = self.recorder.now_ns();
                if due(submitted) > now {
                    break;
                }
                late_ns.push(now - due(submitted));
                self.submit_next();
                submitted += 1;
                last_progress = Instant::now();
            }
            let done = self.chain.delivered.saturating_sub(base);
            if done >= total || last_progress.elapsed() > DRAIN_DEADLINE {
                break;
            }
            // Sleep inside `next_block` until the next envelope is due.
            let wait = if submitted < total {
                Duration::from_nanos(
                    due(submitted)
                        .saturating_sub(self.recorder.now_ns())
                        .max(1_000),
                )
            } else {
                Duration::from_millis(50)
            };
            if let Some(advanced) = self.take_block(wait) {
                let now = self.recorder.now_ns();
                let upto = (done + advanced).min(total);
                for slot in &mut arrive_ns[done as usize..upto as usize] {
                    *slot = now;
                }
                // Envelopes were due and none was delivered from the later
                // of the previous delivery and this block's first due time.
                if advanced > 0 {
                    outage_ns = outage_ns.max(now.saturating_sub(last_arrival_ns.max(due(done))));
                    last_arrival_ns = now;
                }
                last_progress = Instant::now();
            }
        }
        let cost = self.cost_since(probe);
        self.recorder.end(stage);

        // Latency per envelope; one never delivered is slower than any limit.
        let latency: Vec<u64> = arrive_ns
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if t == 0 {
                    u64::MAX
                } else {
                    t.saturating_sub(due(i as u64))
                }
            })
            .collect();
        // p50 and p99 over the pooled samples of the quiet slices. A slice's
        // cost is its mean latency, which a disturbed tail raises even where
        // the median stays low (the slice right after the injected fault).
        let slice_len = (total as usize / SLICES).max(1);
        let slices: Vec<&[u64]> = latency.chunks(slice_len).take(SLICES).collect();
        let means: Vec<f64> = slices
            .iter()
            .map(|slice| slice.iter().map(|&l| l as f64).sum::<f64>() / slice.len() as f64)
            .collect();
        let mut pooled: Vec<u64> = quiet_slices(&means)
            .into_iter()
            .flat_map(|i| slices[i].iter().copied())
            .collect();
        pooled.sort_unstable();
        let mut delivered: Vec<u64> = latency.iter().copied().filter(|&l| l != u64::MAX).collect();
        delivered.sort_unstable();
        let lat_mean_ms =
            delivered.iter().sum::<u64>() as f64 / delivered.len().max(1) as f64 / 1e6;
        late_ns.sort_unstable();
        Paced {
            attempted: total,
            delivered: self.chain.delivered.saturating_sub(base),
            lat_p50_ms: quantile_sorted(&pooled, 0.50) as f64 / 1e6,
            lat_p99_ms: quantile_sorted(&pooled, 0.99) as f64 / 1e6,
            latency_samples: pooled.len() as u64,
            lat_p50_stage_ms: quantile_sorted(&delivered, 0.50) as f64 / 1e6,
            lat_mean_ms,
            slice_mean_ms: means.iter().map(|ns| ns / 1e6).collect(),
            outage_ms: outage_ns as f64 / 1e6,
            gen_late_p99_ms: quantile_sorted(&late_ns, 0.99) as f64 / 1e6,
            cost,
        }
    }
}

/// What is left of a cluster once it has been torn down to its replicas.
pub struct Finished<'a, R> {
    /// Boot to warm-up count delivered, in seconds.
    pub setup_s: f64,
    /// What `body` returned.
    pub result: R,
    /// The submitter's chain and recorder, and the helper thread's.
    pub chain: Chain<'a>,
    pub recorder: Recorder,
    pub helper: Helper<'a>,
    /// Still running: the caller reads its obs and keys, then shuts it down.
    pub cluster: Cluster,
}

/// One set-up: boots the cluster, connects the frontends and orders the
/// warm-up; then runs `body` on the warm cluster, drains the receivers and
/// drops the frontends.
pub fn with_cluster<'a, R>(
    spec: &'a Spec,
    payloads: &'a Payloads,
    expected_envelopes: u64,
    epoch: Instant,
    trace: bool,
    body: impl FnOnce(&mut Session<'a, '_>) -> R,
) -> Finished<'a, R> {
    let mut recorder = Recorder::new(trace, epoch, 1);
    let setup = recorder.begin("setup", NO_REQUEST);
    let started = Instant::now();
    let stride = signature_stride(expected_envelopes, spec.receivers);

    let boot = recorder.begin("setup.boot", NO_REQUEST);
    let mut cluster = Cluster::boot(spec);
    recorder.end(boot);
    let connect = recorder.begin("setup.connect", NO_REQUEST);
    let frontend = cluster.frontend();
    let receivers: Vec<Frontend> = (1..spec.receivers).map(|_| cluster.frontend()).collect();
    recorder.end(connect);

    let target = AtomicU64::new(u64::MAX);
    let (setup_s, result, chain, recorder, helper) = std::thread::scope(|scope| {
        // No receive-only frontends, no helper thread.
        let helper = (!receivers.is_empty()).then(|| {
            let recorder = Recorder::new(trace, epoch, 2);
            std::thread::Builder::new()
                .name("bench-helper".into())
                .spawn_scoped(scope, || {
                    drain_receivers(receivers, payloads, stride, &target, recorder)
                })
                .expect("spawn the helper thread")
        });
        let mut session = Session {
            spec,
            payloads,
            cluster: &mut cluster,
            frontend,
            chain: Chain::new(payloads, 2 * F + 1, stride),
            recorder,
            next_seq: 0,
        };
        session.closed_loop("setup.warmup", spec.warmup);
        session.recorder.end(setup);
        let setup_s = started.elapsed().as_secs_f64();

        let result = body(&mut session);

        target.store(session.chain.delivered, Ordering::Relaxed);
        let helper = match helper {
            Some(thread) => thread.join().expect("the helper thread panicked"),
            None => Helper {
                chains: Vec::new(),
                recorder: Recorder::new(trace, epoch, 2),
                cpu_us: 0.0,
            },
        };
        // Frontends go before the networks they are connected to.
        let Session {
            frontend,
            chain,
            recorder,
            ..
        } = session;
        drop(frontend);
        (setup_s, result, chain, recorder, helper)
    });
    Finished {
        setup_s,
        result,
        chain,
        recorder,
        helper,
        cluster,
    }
}
