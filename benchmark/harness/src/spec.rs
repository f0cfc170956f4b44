//! The four workloads. Everything a workload varies is in this table;
//! the driver, the checker and the probes read nothing else.

/// Which transport carries the cluster's frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// In-memory channels of `hlf_transport::Network`.
    Hub,
    /// One `TcpNetwork` per replica and per frontend on `127.0.0.1:0`.
    Tcp,
}

/// One workload: cluster shape, envelope shape and stage sizes.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub backend: Backend,
    pub envelope_bytes: usize,
    pub block_size: usize,
    /// Frontends connected: one submits and receives, the rest only receive.
    pub receivers: usize,
    pub request_timeout_ms: u64,
    /// Envelopes ordered by each set-up before it counts as done.
    pub warmup: u64,
    /// Open-loop arrival rate of the paced stage, envelopes per second.
    pub paced_rate: u64,
    /// The sat stage orders `sat_per_second x 2/3 x seconds` envelopes:
    /// fixed work, sized so the stage lasts at most two thirds of
    /// `--seconds` on the machine the counts were chosen on (2 cores).
    pub sat_per_second: u64,
    /// Outstanding envelopes allowed in the sat stage and the warm-up.
    pub window: u64,
    /// Crash replica 0 (the leader) half-way through the paced stage.
    pub crash_leader: bool,
}

/// Replicas and fault threshold are the same for every workload.
pub const N: usize = 4;
pub const F: usize = 1;
/// Set-ups per run; `setup_s` is their median and the last one is kept.
pub const SETUPS: usize = 5;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        // 200 B envelopes in blocks of 10 on the in-memory hub: per-envelope CPU is signing, consensus stepping and codec.
        name: "hub_small",
        backend: Backend::Hub,
        envelope_bytes: 200,
        block_size: 10,
        receivers: 1,
        request_timeout_ms: 2_000,
        warmup: 20_000,
        paced_rate: 8_000,
        sat_per_second: 26_000,
        window: 4_000,
        crash_leader: false,
    },
    Spec {
        // hub_small's exact inputs over five loopback TcpNetworks: isolates framing, writev coalescing and reader/writer threads.
        name: "tcp_small",
        backend: Backend::Tcp,
        envelope_bytes: 200,
        block_size: 10,
        receivers: 1,
        request_timeout_ms: 2_000,
        warmup: 12_000,
        paced_rate: 8_000,
        sat_per_second: 15_000,
        window: 4_000,
        crash_leader: false,
    },
    Spec {
        // 4 KiB envelopes in blocks of 100 pushed to 4 receivers: bytes dominate (hashing, copies, fan-out, log retention), not signing.
        name: "hub_large_fanout",
        backend: Backend::Hub,
        envelope_bytes: 4_096,
        block_size: 100,
        receivers: 4,
        request_timeout_ms: 2_000,
        warmup: 2_000,
        paced_rate: 1_200,
        sat_per_second: 2_100,
        window: 1_000,
        crash_leader: false,
    },
    Spec {
        // hub_small's inputs with the leader crashed mid-stage: time without service, nothing lost, capacity on 3 of 4 replicas.
        name: "hub_paced_crash",
        backend: Backend::Hub,
        envelope_bytes: 200,
        block_size: 10,
        receivers: 1,
        request_timeout_ms: 500,
        warmup: 20_000,
        paced_rate: 2_000,
        sat_per_second: 30_000,
        window: 4_000,
        crash_leader: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
