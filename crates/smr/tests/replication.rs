//! Threaded integration tests for the SMR layer: fault tolerance,
//! state transfer, durability and concurrency.

use hlf_smr::CounterApp;
use hlf_smr::runtime::{ClusterRuntime, RuntimeOptions};
use hlf_smr::FileLog;
use std::time::Duration;

fn counter_value(reply: &[u8]) -> u64 {
    u64::from_le_bytes(reply[..8].try_into().expect("8-byte counter"))
}

#[test]
fn basic_replicated_counter() {
    let mut cluster = ClusterRuntime::start(4, RuntimeOptions::classic(1), |_| {
        Box::new(CounterApp::new())
    });
    let mut client = cluster.proxy();
    let mut expected = 0u64;
    for size in [3usize, 10, 1] {
        expected += size as u64;
        let reply = client.invoke(vec![0u8; size]).unwrap();
        assert_eq!(counter_value(&reply), expected);
    }
    assert!(cluster.wait_for_cid(3, Duration::from_secs(5)));
    for i in 0..4 {
        assert_eq!(cluster.stats(i).decided(), 3);
        assert_eq!(cluster.stats(i).executed_requests(), 3);
    }
    cluster.shutdown();
}

#[test]
fn larger_cluster_with_f2() {
    let mut cluster = ClusterRuntime::start(7, RuntimeOptions::classic(2), |_| {
        Box::new(CounterApp::new())
    });
    let mut client = cluster.proxy();
    let reply = client.invoke(vec![0u8; 9]).unwrap();
    assert_eq!(counter_value(&reply), 9);
    cluster.shutdown();
}

#[test]
fn concurrent_clients_agree() {
    let mut cluster = ClusterRuntime::start(4, RuntimeOptions::classic(1), |_| {
        Box::new(CounterApp::new())
    });
    let mut threads = Vec::new();
    for _ in 0..4 {
        let mut proxy = cluster.proxy();
        threads.push(std::thread::spawn(move || {
            let mut last = 0u64;
            for _ in 0..25 {
                let reply = proxy.invoke(vec![0u8; 1]).unwrap();
                let value = counter_value(&reply);
                // The counter must be monotonically increasing from this
                // client's point of view (total order).
                assert!(value > last, "counter went backwards: {value} <= {last}");
                last = value;
            }
            last
        }));
    }
    let finals: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    // 100 one-byte requests in total; the max observed value is 100.
    assert_eq!(finals.iter().copied().max().unwrap(), 100);
    cluster.shutdown();
}

#[test]
fn crashed_follower_is_tolerated() {
    let mut cluster = ClusterRuntime::start(4, RuntimeOptions::classic(1), |_| {
        Box::new(CounterApp::new())
    });
    cluster.crash(3);
    let mut client = cluster.proxy();
    let reply = client.invoke(vec![0u8; 7]).unwrap();
    assert_eq!(counter_value(&reply), 7);
    cluster.shutdown();
}

#[test]
fn leader_crash_triggers_failover() {
    let options = RuntimeOptions::classic(1).with_request_timeout_ms(150);
    let mut cluster = ClusterRuntime::start(4, options, |_| Box::new(CounterApp::new()));
    // Warm up through the original leader.
    let mut client = cluster.proxy();
    let reply = client.invoke(vec![0u8; 1]).unwrap();
    assert_eq!(counter_value(&reply), 1);

    // Kill the leader (node 0). The next invocation must still finish
    // after the regency change (within the proxy's generous timeout).
    cluster.crash(0);
    let reply = client.invoke(vec![0u8; 2]).unwrap();
    assert_eq!(counter_value(&reply), 3);

    // And the system keeps working afterwards.
    let reply = client.invoke(vec![0u8; 4]).unwrap();
    assert_eq!(counter_value(&reply), 7);
    cluster.shutdown();
}

#[test]
fn late_replica_catches_up_via_state_transfer() {
    let options = RuntimeOptions::classic(1)
        .with_request_timeout_ms(300)
        .with_checkpoint_interval(5);
    let mut cluster = ClusterRuntime::start(4, options, |_| Box::new(CounterApp::new()));
    // Crash a follower, then make progress without it.
    cluster.crash(3);
    let mut client = cluster.proxy();
    for _ in 0..12 {
        client.invoke(vec![0u8; 1]).unwrap();
    }
    // Restart it with empty state; it must catch up through state
    // transfer (it will see Sync/future traffic and fetch).
    cluster.restart(3);
    for _ in 0..6 {
        client.invoke(vec![0u8; 1]).unwrap();
    }
    // Node 3 eventually reaches the same cid as the others.
    let target = cluster.stats(0).last_cid();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.stats(3).last_cid() < target {
        assert!(
            std::time::Instant::now() < deadline,
            "node 3 stuck at {} (target {target})",
            cluster.stats(3).last_cid()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

#[test]
fn durable_log_restores_state_across_restart() {
    let dir = std::env::temp_dir().join(format!("hlf-smr-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..4 {
        let _ = std::fs::remove_file(dir.join(format!("node-{i}.log")));
    }
    let dir2 = dir.clone();
    let options = RuntimeOptions::classic(1).with_checkpoint_interval(2);
    let mut cluster = ClusterRuntime::start_with_logs(
        4,
        options,
        |_| Box::new(CounterApp::new()),
        move |i| Box::new(FileLog::open(dir2.join(format!("node-{i}.log"))).unwrap()),
    );
    let mut client = cluster.proxy();
    for _ in 0..5 {
        client.invoke(vec![0u8; 2]).unwrap();
    }
    assert!(cluster.wait_for_cid(5, Duration::from_secs(5)));

    // Crash node 2 and restart from its own durable log only.
    cluster.crash(2);
    cluster.restart(2);
    // It recovers to cid >= 4 (last checkpoint at 4) immediately from
    // disk, then rejoins; a new request confirms liveness.
    let reply = client.invoke(vec![0u8; 2]).unwrap();
    assert_eq!(counter_value(&reply), 12);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.stats(2).last_cid() < 6 {
        assert!(std::time::Instant::now() < deadline, "node 2 did not rejoin");
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
    for i in 0..4 {
        let _ = std::fs::remove_file(dir.join(format!("node-{i}.log")));
    }
}

#[test]
fn async_invocations_are_ordered() {
    let mut cluster = ClusterRuntime::start(4, RuntimeOptions::classic(1), |_| {
        Box::new(CounterApp::new())
    });
    let mut client = cluster.proxy();
    for _ in 0..50 {
        client.invoke_async(vec![0u8; 1]);
    }
    // This loop polls replica counters, not the proxy: nothing below
    // makes the proxy wait, so the window has to be sent explicitly.
    client.flush();
    // All 50 requests eventually execute on all replicas.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let done = (0..4).all(|i| cluster.stats(i).executed_requests() >= 50);
        if done {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "async requests not executed: {:?}",
            (0..4)
                .map(|i| cluster.stats(i).executed_requests())
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

#[test]
fn cluster_metrics_cover_consensus_smr_and_client() {
    let mut cluster = ClusterRuntime::start(4, RuntimeOptions::classic(1), |_| {
        Box::new(CounterApp::new())
    });
    let mut client = cluster.proxy();
    for _ in 0..5 {
        client.invoke(vec![0u8; 1]).unwrap();
    }
    assert!(cluster.wait_for_cid(5, Duration::from_secs(5)));

    // Every node registry carries consensus phase histograms and the
    // SMR request→decide latency.
    for i in 0..4 {
        let snap = cluster.obs_registry(i).snapshot();
        assert_eq!(snap.registry, format!("node-{i}"));
        assert_eq!(snap.counter_value("consensus.replica.decided"), Some(5));
        let write = snap.histogram("consensus.replica.write_phase_ms").unwrap();
        assert_eq!(write.count, 5);
        let accept = snap.histogram("consensus.replica.accept_phase_ms").unwrap();
        assert_eq!(accept.count, 5);
        let decide = snap.histogram("smr.node.request_decide_us").unwrap();
        assert_eq!(decide.count, 5);
        assert!(decide.sum > 0, "request→decide latency must be non-zero");
        let batch = snap.histogram("smr.node.commit_batch_len").unwrap();
        assert_eq!(batch.count, 5);
    }

    // The shared client registry aggregates proxy invocations.
    let clients = cluster.client_obs_registry().snapshot();
    let invoke = clients.histogram("smr.client.invoke_us").unwrap();
    assert_eq!(invoke.count, 5);
    assert_eq!(clients.counter_value("smr.client.invoke_timeouts"), Some(0));

    // obs_snapshots returns node registries in order plus the clients.
    let snaps = cluster.obs_snapshots();
    assert_eq!(snaps.len(), 5);
    assert_eq!(snaps[4].registry, "clients");
    cluster.shutdown();
}

#[test]
fn node_metrics_survive_crash_and_restart() {
    let dir = std::env::temp_dir().join(format!("hlf-smr-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..4 {
        let _ = std::fs::remove_file(dir.join(format!("obs-{i}.log")));
    }
    let dir2 = dir.clone();
    let options = RuntimeOptions::classic(1).with_checkpoint_interval(2);
    let mut cluster = ClusterRuntime::start_with_logs(
        4,
        options,
        |_| Box::new(CounterApp::new()),
        move |i| Box::new(FileLog::open(dir2.join(format!("obs-{i}.log"))).unwrap()),
    );
    let mut client = cluster.proxy();
    for _ in 0..5 {
        client.invoke(vec![0u8; 2]).unwrap();
    }
    assert!(cluster.wait_for_cid(5, Duration::from_secs(5)));
    let before = cluster
        .obs_registry(2)
        .snapshot()
        .counter_value("consensus.replica.decided")
        .unwrap();
    assert_eq!(before, 5);

    cluster.crash(2);
    // The registry outlives the node: still readable while crashed.
    assert_eq!(
        cluster
            .obs_registry(2)
            .snapshot()
            .counter_value("consensus.replica.decided"),
        Some(5)
    );
    cluster.restart(2);
    client.invoke(vec![0u8; 2]).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.stats(2).last_cid() < 6 {
        assert!(std::time::Instant::now() < deadline, "node 2 did not rejoin");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The restarted node replayed its durable log (a recovery) and kept
    // recording into the same registry, so counters only grow.
    let snap = cluster.obs_registry(2).snapshot();
    assert_eq!(snap.counter_value("smr.node.recoveries"), Some(1));
    assert!(snap.counter_value("consensus.replica.decided").unwrap() > before);
    cluster.shutdown();
    for i in 0..4 {
        let _ = std::fs::remove_file(dir.join(format!("obs-{i}.log")));
    }
}
