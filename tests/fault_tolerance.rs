//! Threaded integration tests for the ordering service: crashed
//! orderers, leader failover mid-stream, and the WHEAT configuration end
//! to end. Message loss and cut links are tested on the deterministic
//! simulator (`core::sim`'s tests, `core::sim::node_core` among them).

use hlf_wire::Bytes;
use ordering_core::service::{OrderingService, ServiceOptions};
use std::time::Duration;

fn envelopes(count: usize, size: usize) -> Vec<Bytes> {
    (0..count)
        .map(|i| {
            let mut payload = vec![0u8; size];
            payload[..8].copy_from_slice(&(i as u64).to_le_bytes());
            Bytes::from(payload)
        })
        .collect()
}

fn collect_envelopes(
    frontend: &mut ordering_core::Frontend,
    expected: usize,
    timeout: Duration,
) -> Vec<Bytes> {
    let deadline = std::time::Instant::now() + timeout;
    let mut received = Vec::new();
    while received.len() < expected {
        let now = std::time::Instant::now();
        if now >= deadline {
            break;
        }
        if let Some(block) = frontend.next_block(deadline - now) {
            received.extend(block.envelopes);
        }
    }
    received
}

#[test]
fn ordering_survives_crashed_follower() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(2),
    );
    // Crash a non-leader ordering node before any traffic.
    service.runtime_mut().crash(2);

    let mut frontend = service.frontend();
    for envelope in envelopes(20, 256) {
        frontend.submit(envelope);
    }
    let received = collect_envelopes(&mut frontend, 20, Duration::from_secs(30));
    assert_eq!(received.len(), 20);
    service.shutdown();
}

#[test]
fn ordering_survives_leader_crash_mid_stream() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(2)
            .with_request_timeout_ms(250),
    );
    let mut frontend = service.frontend();

    // First wave through the original leader.
    for envelope in envelopes(10, 256) {
        frontend.submit(envelope);
    }
    let first = collect_envelopes(&mut frontend, 10, Duration::from_secs(30));
    assert_eq!(first.len(), 10);

    // Kill the leader. The cluster must elect node 1 and keep going.
    service.runtime_mut().crash(0);
    for (i, envelope) in envelopes(10, 256).into_iter().enumerate() {
        // Distinct content from wave one.
        let mut payload = envelope.to_vec();
        payload[8] = 0xbb;
        payload[9] = i as u8;
        frontend.submit(Bytes::from(payload));
    }
    let second = collect_envelopes(&mut frontend, 10, Duration::from_secs(60));
    assert_eq!(second.len(), 10, "envelopes lost across leader failover");
    service.shutdown();
}

#[test]
fn restarted_replica_catches_up_and_completes_the_quorum() {
    // Batches of at most 2 envelopes, blocks of 2: 280 envelopes are
    // about 140 decisions, more than two of the 64-decision checkpoint
    // periods, so the crashed replica can only come level by state
    // transfer. Its peers' votes are then beyond the 64 instances it
    // buffers ahead; once f + 1 peers have sent such votes it starts
    // the transfer itself. The short timeout keeps the regency changes
    // after the second crash quick.
    let mut options = ServiceOptions::new(1)
        .with_block_size(2)
        .with_signing_threads(2)
        .with_flush_on_batch_end(true)
        .with_request_timeout_ms(250);
    options.runtime.batch_max = 2;
    let mut service = OrderingService::start(4, options);
    let mut frontend = service.frontend();
    let (mut sent, mut blocks) = (Vec::new(), Vec::new());
    let mut order = |wave: u8, count: usize| {
        let envelopes: Vec<Bytes> = envelopes(count, 64)
            .into_iter()
            .map(|envelope| {
                let mut payload = envelope.to_vec();
                payload[8] = wave;
                Bytes::from(payload)
            })
            .collect();
        sent.extend(envelopes.iter().cloned());
        let timeout = Duration::from_secs(60);
        blocks.extend(OrderingService::order_all(&mut frontend, envelopes, timeout));
    };

    order(1, 20);
    service.runtime_mut().crash(3);
    order(2, 280);
    service.runtime_mut().restart(3);
    order(3, 40);
    // With replica 2 gone, every decision and every block's 2f + 1
    // copies need the restarted replica.
    service.runtime_mut().crash(2);
    order(4, 60);

    let numbers: Vec<u64> = blocks.iter().map(|block| block.header.number).collect();
    let expected: Vec<u64> = (1..=numbers.len() as u64).collect();
    assert_eq!(numbers, expected, "block numbers skip or repeat");
    let mut received: Vec<Bytes> = blocks.into_iter().flat_map(|block| block.envelopes).collect();
    received.sort();
    sent.sort();
    assert_eq!(received.len(), 400, "envelopes lost");
    assert_eq!(received, sent, "envelopes lost or duplicated");
    let transfers = service
        .runtime_mut()
        .obs_registry(3)
        .snapshot()
        .counter_value("smr.node.state_transfers");
    assert!(transfers >= Some(1), "replica 3 never transferred state: {transfers:?}");
    service.shutdown();
}

#[test]
fn wheat_configuration_orders_end_to_end() {
    // 5 nodes, f = 1, weighted quorums + tentative execution.
    let mut service = OrderingService::start(
        5,
        ServiceOptions::new(1)
            .with_wheat(true)
            .with_block_size(5)
            .with_signing_threads(2),
    );
    let mut frontend = service.frontend();
    for envelope in envelopes(25, 512) {
        frontend.submit(envelope);
    }
    let received = collect_envelopes(&mut frontend, 25, Duration::from_secs(30));
    assert_eq!(received.len(), 25);
    // Under tentative execution blocks still arrive with >= 2f+1
    // signatures merged by the frontend.
    service.shutdown();
}

#[test]
fn frontend_verification_mode_end_to_end() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(2)
            .with_frontend_verification(true),
    );
    let mut frontend = service.frontend();
    for envelope in envelopes(10, 256) {
        frontend.submit(envelope);
    }
    let received = collect_envelopes(&mut frontend, 10, Duration::from_secs(30));
    assert_eq!(received.len(), 10);
    service.shutdown();
}

#[test]
fn multiple_frontends_see_identical_chains() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(2),
    );
    let mut submitter = service.frontend();
    let mut observer = service.frontend();

    for envelope in envelopes(15, 128) {
        submitter.submit(envelope);
    }
    let a = collect_envelopes(&mut submitter, 15, Duration::from_secs(30));
    let b = collect_envelopes(&mut observer, 15, Duration::from_secs(30));
    assert_eq!(a.len(), 15);
    assert_eq!(a, b, "frontends disagree on envelope order");
    service.shutdown();
}

#[test]
fn batch_end_flush_bounds_latency_for_stragglers() {
    // 7 envelopes with blocks of 10: without the flush they would sit
    // in the blockcutter forever; with it they ship at the batch end.
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(10)
            .with_signing_threads(2)
            .with_flush_on_batch_end(true),
    );
    let mut frontend = service.frontend();
    for envelope in envelopes(7, 128) {
        frontend.submit(envelope);
    }
    let received = collect_envelopes(&mut frontend, 7, Duration::from_secs(20));
    assert_eq!(received.len(), 7);
    service.shutdown();
}

#[test]
fn double_sign_mode_orders_end_to_end() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(2)
            .with_double_sign(true),
    );
    let mut frontend = service.frontend();
    for envelope in envelopes(10, 128) {
        frontend.submit(envelope);
    }
    let received = collect_envelopes(&mut frontend, 10, Duration::from_secs(30));
    assert_eq!(received.len(), 10);
    service.shutdown();
}
