//! The orderer keys' comb tables are built once per process and shared:
//! every replica and every verifying frontend of one `OrderingService`
//! holds clones of the same pinned keys.
//!
//! This file holds one test on purpose: `PinnedKey::tables_built` is a
//! process-wide count, and a second test in the same binary would pin
//! keys of its own concurrently.

use hlf_crypto::ecdsa::PinnedKey;
use hlf_wire::Bytes;
use ordering_core::service::{OrderingService, ServiceOptions};
use std::time::Duration;

#[test]
fn one_service_builds_one_table_per_orderer_key() {
    let before = PinnedKey::tables_built();
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(1)
            .with_frontend_verification(true),
    );
    let mut frontends = [service.frontend(), service.frontend()];
    for (i, frontend) in frontends.iter_mut().enumerate() {
        let envelopes: Vec<Bytes> = (0..10u8).map(|j| Bytes::from(vec![i as u8, j])).collect();
        let blocks = OrderingService::order_all(frontend, envelopes, Duration::from_secs(30));
        assert_eq!(blocks.iter().map(|b| b.envelopes.len()).sum::<usize>(), 10);
    }
    // Four replicas and two verifying frontends checked votes, decision
    // proofs and block signatures against the four orderer keys.
    assert_eq!(PinnedKey::tables_built() - before, 4, "one table per key, not per holder");
    service.shutdown();
}
