//! Multi-process cluster plumbing shared by `bench_net`, `hlf_node
//! --role frontend` and `tests/process_cluster.rs`: free ports,
//! `hlf_node` replica children that cannot outlive their owner and
//! leave their obs snapshots behind, the frontend's link wait, and the
//! windowed workload all three drive.

use hlf_obs::Snapshot;
use hlf_transport::{PeerId, TcpConfig, TcpNetwork};
use hlf_wire::Bytes;
use ordering_core::frontend::Frontend;
use ordering_core::proc::connect_frontend_endpoint;
use ordering_core::service::ServiceOptions;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Ports in the window [`free_ports`] probes.
const PORT_WINDOW: usize = 10_000;

/// `n` localhost addresses nothing listens on, for processes that are
/// about to be started to bind.
///
/// The ports come from a window outside this host's ephemeral range
/// (see `port_window_start`), so that no outgoing connection of some
/// process starting at the same time can be given one of them between
/// this probe and its owner's bind (an `hlf_node` that cannot bind
/// exits, and its cluster runs one replica short). A cursor shared by
/// the whole process keeps concurrent callers' sets apart; it starts at
/// a per-process offset to do the same, mostly, between processes.
/// Panics on a bind error other than "in use", and after one pass over
/// the window.
pub fn free_ports(n: usize) -> Vec<SocketAddr> {
    static CURSOR: AtomicUsize = AtomicUsize::new(0);
    let start = port_window_start();
    let offset = std::process::id() as usize * 97;
    let mut free = Vec::with_capacity(n);
    for _ in 0..PORT_WINDOW {
        if free.len() == n {
            break;
        }
        let port = start + (offset + CURSOR.fetch_add(1, Ordering::Relaxed)) % PORT_WINDOW;
        let addr = SocketAddr::from(([127, 0, 0, 1], port as u16));
        match TcpListener::bind(addr) {
            Ok(_) => free.push(addr),
            Err(err) if err.kind() == ErrorKind::AddrInUse => {}
            Err(err) => panic!("cannot probe {addr}: {err}"),
        }
    }
    let end = start + PORT_WINDOW - 1;
    assert_eq!(free.len(), n, "fewer than {n} free ports in {start}-{end}");
    free
}

/// First port of [`free_ports`]' window: 20000 when 20000–29999 lies
/// outside the range in `/proc/sys/net/ipv4/ip_local_port_range` (as it
/// does on Linux's default 32768–60999) or that file cannot be read;
/// otherwise the window just above the range, or else just below it.
fn port_window_start() -> usize {
    const DEFAULT: usize = 20_000;
    let range = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range");
    let range = range.unwrap_or_default();
    let bounds: Vec<usize> = range.split_whitespace().filter_map(|b| b.parse().ok()).collect();
    let &[lo, hi] = bounds.as_slice() else {
        return DEFAULT;
    };
    [DEFAULT, hi + 1, lo.saturating_sub(PORT_WINDOW)]
        .into_iter()
        .find(|&start| {
            let end = start + PORT_WINDOW;
            start >= 1024 && end <= 65_536 && (end <= lo || start > hi)
        })
        .unwrap_or(DEFAULT)
}

/// The service options an `hlf_node` runs with unless a flag says
/// otherwise (its defaults are this function); [`ClusterSpec`] passes no
/// such flag, so its replicas, its frontend and the in-process cluster
/// `bench_net` compares them with all run with these.
/// `flush_on_batch_end` cuts the tail of a finite workload as soon as
/// its last consensus batch lands (without it the stale cut needs
/// further decides, which never come once the frontend has drained its
/// window); the fixed block-of-10 cutter is the paper-style Fig. 7
/// configuration.
pub fn node_options(f: usize) -> ServiceOptions {
    ServiceOptions::new(f)
        .with_block_size(10)
        .with_signing_threads(4)
        .with_request_timeout_ms(60_000)
        .with_pipeline_depth(4)
        .with_flush_on_batch_end(true)
}

/// Where a cluster's processes listen and how they authenticate.
pub struct ClusterSpec {
    /// The `hlf_node` binary.
    pub node_bin: PathBuf,
    /// Shared secret the link keys derive from.
    pub secret: String,
    /// Fault threshold.
    pub f: usize,
    /// Consensus listen address of each replica.
    pub replicas: Vec<SocketAddr>,
    /// The frontend's client id and listen address.
    pub frontend: (u32, SocketAddr),
}

impl ClusterSpec {
    /// Starts replica `i` as an OS process, serving its admin endpoint
    /// on `admin` when given. The child holds a stdin pipe and runs
    /// until it closes.
    pub fn spawn_replica(&self, i: usize, admin: Option<SocketAddr>) -> Replica {
        let listen = self.replicas[i];
        let obs_path = std::env::temp_dir().join(format!(
            "hlf_node_obs_{}_{}.json",
            std::process::id(),
            listen.port()
        ));
        let mut cmd = Command::new(&self.node_bin);
        cmd.args(["--role", "replica", "--id", &i.to_string()])
            .args(["--n", &self.replicas.len().to_string()])
            .args(["--f", &self.f.to_string()])
            .args(["--listen", &listen.to_string()])
            .args(["--secret", &self.secret])
            .arg("--obs-out")
            .arg(&obs_path);
        if let Some(admin) = admin {
            cmd.args(["--admin-listen", &admin.to_string()]);
        }
        for (j, addr) in self.replicas.iter().enumerate() {
            if j != i {
                cmd.args(["--peer", &format!("replica:{j}={addr}")]);
            }
        }
        let (client, addr) = self.frontend;
        cmd.args(["--peer", &format!("client:{client}={addr}")]);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let proc = Proc(cmd.spawn().expect("spawn hlf_node replica"));
        Replica { proc, obs_path }
    }

    /// Binds the frontend's TCP endpoint in this process, connects it
    /// to every replica and waits for the links (see [`await_links`]).
    pub fn connect_frontend(&self) -> (TcpNetwork, Frontend) {
        let (client, addr) = self.frontend;
        let mut config = TcpConfig::new(PeerId::Client(client), addr, self.secret.as_bytes());
        for (j, addr) in self.replicas.iter().enumerate() {
            config = config.with_peer(PeerId::replica(j as u32), *addr);
        }
        let network = TcpNetwork::bind(config).expect("bind frontend TCP endpoint");
        let n = self.replicas.len();
        let options = node_options(self.f);
        let frontend = connect_frontend_endpoint(client, n, &options, network.endpoint());
        assert!(
            await_links(&network, n, Duration::from_secs(30)),
            "frontend could not reach all {n} replica processes"
        );
        (network, frontend)
    }
}

/// A child process that is killed and reaped when dropped, so that a
/// failing caller leaves nothing running.
pub struct Proc(pub Child);

impl Proc {
    /// Closes the child's stdin — `hlf_node`'s and `hlf_top
    /// --until-stdin-eof`'s cue to report and exit — and polls until
    /// it exits; `true` if it exited successfully. A child still
    /// running at `deadline` is killed, so its pipes reach EOF too.
    pub fn finish(&mut self, deadline: Instant) -> bool {
        drop(self.0.stdin.take());
        loop {
            match self.0.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = self.0.kill();
                    let _ = self.0.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One `hlf_node` replica process and where it leaves its obs snapshot.
pub struct Replica {
    proc: Proc,
    obs_path: PathBuf,
}

impl Drop for Replica {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.obs_path);
    }
}

/// Stops `replicas` cleanly, waiting up to `grace` for all of them
/// (stragglers are killed), and returns the obs snapshots they wrote
/// on the way out.
pub fn stop_replicas(mut replicas: Vec<Replica>, grace: Duration) -> Vec<Snapshot> {
    for replica in &mut replicas {
        drop(replica.proc.0.stdin.take());
    }
    let deadline = Instant::now() + grace;
    let mut snapshots = Vec::new();
    for replica in &mut replicas {
        replica.proc.finish(deadline);
        let json = std::fs::read_to_string(&replica.obs_path).unwrap_or_default();
        snapshots.extend(Snapshot::from_json(&json));
    }
    snapshots
}

/// Sum of counter `name` over `snapshots`.
pub fn sum_counter(snapshots: &[Snapshot], name: &str) -> u64 {
    snapshots.iter().filter_map(|s| s.counter_value(name)).sum()
}

/// Waits, up to `timeout`, until `network` has dialled `links` peers;
/// `false` if it has not.
///
/// A frontend's `Subscribe` is the first frame on each of its links,
/// and a replica pushes a block only to the frontends it has heard
/// from: one that decides an envelope before that `Subscribe` arrives
/// pushes the block to nobody, and with two such replicas the frontend
/// never collects `2f + 1` copies. A frontend process started alongside
/// its replicas (whose first dials are refused and retried 25 ms later)
/// therefore submits only once every link is up.
pub fn await_links(network: &TcpNetwork, links: usize, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while (network.net_stats().connects as usize) < links {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Outcome of one [`drive`] call.
pub struct Driven {
    pub submitted: u64,
    pub delivered: u64,
    pub elapsed_s: f64,
    pub tx_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0)
}

/// Orders `count` envelopes of `envelope_bytes` through `frontend`
/// with at most `window` outstanding, giving up after `timeout`, and
/// measures delivery throughput and per-envelope latency (a single
/// frontend's envelopes come back in submission order).
pub fn drive(
    frontend: &mut Frontend,
    count: u64,
    envelope_bytes: usize,
    window: u64,
    timeout: Duration,
) -> Driven {
    let size = envelope_bytes.max(16);
    let mut in_flight: VecDeque<Instant> = VecDeque::new();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(count as usize);
    let (mut submitted, mut delivered) = (0u64, 0u64);
    let start = Instant::now();
    let deadline = start + timeout;
    while delivered < count && Instant::now() < deadline {
        while submitted < count && (submitted - delivered) < window {
            let mut payload = vec![0u8; size];
            payload[..8].copy_from_slice(&submitted.to_le_bytes());
            frontend.submit(Bytes::from(payload));
            in_flight.push_back(Instant::now());
            submitted += 1;
        }
        if let Some(block) = frontend.next_block(Duration::from_millis(50)) {
            let now = Instant::now();
            for _ in 0..block.envelopes.len() {
                if let Some(at) = in_flight.pop_front() {
                    latencies_ms.push(now.duration_since(at).as_secs_f64() * 1e3);
                }
            }
            delivered += block.envelopes.len() as u64;
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    Driven {
        submitted,
        delivered,
        elapsed_s,
        tx_s: delivered as f64 / elapsed_s.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    }
}
