//! Quickstart: boot a 4-node BFT ordering cluster, submit envelopes
//! through a frontend, and watch signed blocks come back.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hlf_wire::Bytes;
use ordering_core::service::{OrderingService, ServiceOptions};
use std::time::Duration;

fn main() {
    // A cluster of 3f+1 = 4 ordering nodes tolerating f = 1 Byzantine
    // fault, cutting blocks of 10 envelopes.
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(10)
            .with_signing_threads(4),
    );
    println!(
        "started ordering cluster: n = {}, f = 1, block size = {}",
        service.n(),
        service.options().block_size
    );

    // A frontend relays envelopes on behalf of clients and collects
    // 2f+1 matching block copies before trusting a block.
    let mut frontend = service.frontend();

    for i in 0..30u32 {
        let envelope = Bytes::from(format!("transaction-envelope-{i:04}").into_bytes());
        frontend.submit(envelope);
    }
    println!("submitted 30 envelopes");

    let mut delivered = 0;
    while delivered < 30 {
        let block = frontend
            .next_block(Duration::from_secs(15))
            .expect("cluster should deliver blocks");
        delivered += block.envelopes.len();
        println!(
            "block #{:<3} prev={} envelopes={:2} signatures={} first={:?}",
            block.header.number,
            &block.header.prev_hash.to_hex()[..12],
            block.envelopes.len(),
            block.signatures.len(),
            std::str::from_utf8(&block.envelopes[0]).unwrap_or("<binary>"),
        );
    }

    println!("all 30 envelopes delivered in hash-chained, signed blocks");
    service.shutdown();
}
