//! Multi-channel ordering: the service "gathers envelopes from all
//! channels ... and creates signed chain blocks" (paper §3 step 4) —
//! one independent hash chain per channel, all totally ordered by a
//! single consensus instance stream.

use hlf_wire::Bytes;
use hlf_bft::fabric::block::SYSTEM_CHANNEL;
use hlf_bft::ordering::channel::TAG_MAGIC;
use hlf_bft::ordering::service::{OrderingService, ServiceOptions};
use std::collections::HashMap;
use std::time::Duration;

fn envelope(tag: &str, i: u32) -> Bytes {
    Bytes::from(format!("{tag}-{i:04}").into_bytes())
}

#[test]
fn channels_form_independent_chains() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(3)
            .with_signing_threads(2),
    );
    let mut frontend = service.frontend();

    // Interleave submissions across three channels.
    for i in 0..6 {
        frontend.submit_to_channel("alpha", envelope("a", i));
        frontend.submit_to_channel("beta", envelope("b", i));
        frontend.submit(envelope("sys", i)); // system channel
    }

    // Expect 2 blocks of 3 envelopes per channel.
    let mut by_channel: HashMap<String, Vec<hlf_bft::fabric::Block>> = HashMap::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while by_channel.values().map(|v| v.len()).sum::<usize>() < 6 {
        assert!(std::time::Instant::now() < deadline, "blocks missing");
        if let Some(block) = frontend.next_block(Duration::from_secs(5)) {
            by_channel
                .entry(block.header.channel.clone())
                .or_default()
                .push(block);
        }
    }

    for channel in ["alpha", "beta", SYSTEM_CHANNEL] {
        let blocks = &by_channel[channel];
        assert_eq!(blocks.len(), 2, "channel {channel}");
        // Each channel's chain starts at 1 and links internally.
        assert_eq!(blocks[0].header.number, 1);
        assert_eq!(blocks[0].header.prev_hash, hlf_bft::crypto::sha256::Hash256::ZERO);
        assert_eq!(blocks[1].header.number, 2);
        assert_eq!(blocks[1].header.prev_hash, blocks[0].header.hash());
        // Envelopes stayed in their channel.
        for block in blocks {
            for env in &block.envelopes {
                let text = std::str::from_utf8(env).unwrap();
                let expected_prefix = match channel {
                    "alpha" => "a-",
                    "beta" => "b-",
                    _ => "sys-",
                };
                assert!(text.starts_with(expected_prefix), "{channel}: {text}");
            }
        }
    }
    service.shutdown();
}

/// A plain envelope travels untagged and one whose first byte is the
/// channel tag's magic byte travels tagged; both land on the system
/// chain byte for byte, in submission order.
#[test]
fn system_envelopes_land_byte_for_byte_tagged_or_not() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(2)
            .with_signing_threads(2),
    );
    let mut frontend = service.frontend();
    let plain = Bytes::from_static(b"plain envelope");
    let weird = Bytes::from(vec![TAG_MAGIC; 9]);
    frontend.submit(plain.clone());
    frontend.submit(weird.clone());
    let block = frontend.next_block(Duration::from_secs(30)).expect("block delivered");
    assert_eq!(block.header.channel, SYSTEM_CHANNEL);
    assert_eq!(block.envelopes, [plain, weird]);
    assert!(block.data_consistent());
    service.shutdown();
}

#[test]
fn per_channel_delivery_api() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(2)
            .with_signing_threads(2),
    );
    let mut frontend = service.frontend();
    for i in 0..4 {
        frontend.submit_to_channel("only-this", envelope("x", i));
        frontend.submit_to_channel("other", envelope("y", i));
    }
    // next_block_on filters to one channel, in order.
    let b1 = frontend
        .next_block_on("only-this", Duration::from_secs(20))
        .expect("block 1");
    let b2 = frontend
        .next_block_on("only-this", Duration::from_secs(20))
        .expect("block 2");
    assert_eq!(b1.header.channel, "only-this");
    assert_eq!(b2.header.prev_hash, b1.header_hash());
    service.shutdown();
}

#[test]
fn peers_reject_foreign_channel_blocks() {
    use hlf_bft::crypto::ecdsa::SigningKey;
    use hlf_bft::fabric::{LedgerError, Peer, PeerConfig};

    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(1)
            .with_signing_threads(2),
    );
    let mut frontend = service.frontend();
    let peer_key = SigningKey::from_seed(b"mc-peer");
    let mut peer = Peer::new_on_channel(
        PeerConfig {
            id: 0,
            signing_key: peer_key.clone(),
            endorser_keys: vec![*peer_key.verifying_key()],
            orderer_keys: service.orderer_keys().to_vec(),
            orderer_signatures_needed: 2,
            policies: HashMap::new(),
        },
        "mine",
    );
    assert_eq!(peer.channel(), "mine");

    frontend.submit_to_channel("foreign", envelope("f", 0));
    let foreign = frontend.next_block(Duration::from_secs(20)).expect("block");
    assert_eq!(foreign.header.channel, "foreign");
    assert!(matches!(
        peer.validate_and_commit(foreign),
        Err(LedgerError::WrongChannel { .. })
    ));

    frontend.submit_to_channel("mine", envelope("m", 0));
    let mine = frontend
        .next_block_on("mine", Duration::from_secs(20))
        .expect("block");
    // Malformed-envelope validation events are fine; the block itself
    // must append.
    peer.validate_and_commit(mine).expect("own-channel block accepted");
    assert_eq!(peer.ledger().height(), 1);
    service.shutdown();
}

#[test]
fn channel_isolation_under_load_imbalance() {
    // A busy channel must not stall a quiet channel's delivery.
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(5)
            .with_signing_threads(2),
    );
    let mut frontend = service.frontend();
    for i in 0..50 {
        frontend.submit_to_channel("busy", envelope("busy", i));
    }
    for i in 0..5 {
        frontend.submit_to_channel("quiet", envelope("quiet", i));
    }
    let quiet = frontend
        .next_block_on("quiet", Duration::from_secs(20))
        .expect("quiet channel starved");
    assert_eq!(quiet.envelopes.len(), 5);
    service.shutdown();
}
