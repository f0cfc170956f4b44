//! The deployment shape of the paper's §6.2 experiments, end to end:
//! real `hlf_node` OS processes exchanging bytes over localhost TCP,
//! and `hlf_top` attached to their admin endpoints. Every wait has a
//! deadline and every child is killed when its guard drops, so a
//! failure is a failed test, never a hung one.

use bench::cluster::{drive, free_ports, stop_replicas, sum_counter, ClusterSpec, Proc};
use hlf_obs::to_prometheus;
use hlf_transport::{AdminClient, PeerId};
use std::io::Read;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const N: usize = 4;
const F: usize = 1;
const DEADLINE: Duration = Duration::from_secs(60);

/// A spec for `N` replicas and one frontend on fresh ports, plus
/// `extra` more ports for admin endpoints.
fn cluster(secret: &str, extra: usize) -> (ClusterSpec, Vec<SocketAddr>) {
    let mut ports = free_ports(N + 1 + extra);
    let admin = ports.split_off(N + 1);
    let frontend_addr = ports.pop().expect("frontend port");
    let spec = ClusterSpec {
        node_bin: PathBuf::from(env!("CARGO_BIN_EXE_hlf_node")),
        secret: secret.to_string(),
        f: F,
        replicas: ports,
        frontend: (1001, frontend_addr),
    };
    (spec, admin)
}

/// `hlf_top` pointed at `nodes`, its stdout and stderr piped.
fn hlf_top(secret: &str, nodes: &[(usize, SocketAddr)], args: &[&str]) -> Proc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hlf_top"));
    cmd.args(["--secret", secret, "--n", "4", "--f", "1"])
        .args(args);
    for (replica, admin) in nodes {
        cmd.args(["--node", &format!("replica:{replica}={admin}")]);
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    Proc(cmd.spawn().expect("spawn hlf_top"))
}

/// What an exited child wrote to a pipe.
fn piped(pipe: Option<impl Read>) -> String {
    let mut text = String::new();
    pipe.expect("pipe was requested")
        .read_to_string(&mut text)
        .expect("utf-8 output");
    text
}

/// Four replica processes and a TCP frontend order 500 envelopes with
/// no authentication failure on any link, while `hlf_top` scrapes the
/// four admin endpoints and audits the cluster's flight events live:
/// it must have seen events and found no safety violation.
#[test]
fn four_replica_processes_order_a_workload_audited_live() {
    let (spec, admin) = cluster("process-cluster", N);
    let replicas: Vec<_> = (0..N)
        .map(|i| spec.spawn_replica(i, Some(admin[i])))
        .collect();
    let (network, mut frontend) = spec.connect_frontend();
    let nodes: Vec<_> = admin.iter().copied().enumerate().collect();
    let mut top = hlf_top(
        &spec.secret,
        &nodes,
        &["--interval-ms", "250", "--until-stdin-eof"],
    );

    let run = drive(&mut frontend, 500, 200, 4_000, DEADLINE);
    // One more scrape interval, so the last decides are audited too.
    std::thread::sleep(Duration::from_millis(500));
    let top_ok = top.finish(Instant::now() + DEADLINE);
    let report = piped(top.0.stderr.take());
    let snapshots = stop_replicas(replicas, Duration::from_secs(10));
    network.shutdown();

    assert_eq!(
        run.delivered, 500,
        "ordered {} of {} envelopes",
        run.delivered, run.submitted
    );
    assert_eq!(
        snapshots.len(),
        N,
        "every replica leaves an obs snapshot on a clean stop"
    );
    assert_eq!(sum_counter(&snapshots, "transport.net.auth_failures"), 0);
    assert!(sum_counter(&snapshots, "transport.net.frames_out") > 0);
    assert!(
        top_ok,
        "hlf_top failed or reported audit violations:\n{report}"
    );
    let observed: u64 = report
        .lines()
        .find_map(|line| line.strip_prefix("audit: 0 violations across "))
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no audit summary in hlf_top's report:\n{report}"));
    assert!(observed > 0, "hlf_top audited no flight events");
}

/// One node with its admin endpoint up answers `MetricsSnapshot` and
/// `Health`, its registry renders as Prometheus text, and `hlf_top
/// --once` produces the same exposition plus a health line from it.
#[test]
fn hlf_top_scrapes_a_node_admin_endpoint() {
    let (spec, admin) = cluster("admin-scrape", 1);
    let _replica = spec.spawn_replica(0, Some(admin[0]));

    // The admin listener comes up within the node's bootstrap.
    let deadline = Instant::now() + DEADLINE;
    let mut client = loop {
        match AdminClient::connect(
            admin[0],
            b"admin-scrape",
            PeerId::Client(9901),
            PeerId::Replica(0),
        ) {
            Ok(client) => break client,
            Err(err) if Instant::now() >= deadline => panic!("admin endpoint never came up: {err}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let snapshot = client.metrics_snapshot().expect("MetricsSnapshot");
    assert_eq!(snapshot.registry, "node-0");
    assert!(!snapshot.metrics.is_empty(), "snapshot carried no metrics");
    let health = client.health().expect("Health");
    assert_eq!(health.decided, 0, "a lone replica decides nothing");
    assert!(to_prometheus(std::slice::from_ref(&snapshot)).contains("# TYPE "));

    let prom = std::env::temp_dir().join(format!("hlf_top_{}.prom", admin[0].port()));
    let prom_arg = prom.to_string_lossy().into_owned();
    let mut top = hlf_top(
        &spec.secret,
        &[(0, admin[0])],
        &["--once", "--prom-out", &prom_arg],
    );
    let top_ok = top.finish(Instant::now() + DEADLINE);
    let (stdout, stderr) = (piped(top.0.stdout.take()), piped(top.0.stderr.take()));
    let exposition = std::fs::read_to_string(&prom).unwrap_or_default();
    let _ = std::fs::remove_file(&prom);
    assert!(top_ok, "hlf_top --once failed:\n{stderr}");
    assert!(
        stdout.contains("health replica:0 {"),
        "no health line in:\n{stdout}"
    );
    assert!(
        exposition.contains("# TYPE "),
        "--prom-out rendered no metric families"
    );
}
