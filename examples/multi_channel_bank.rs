//! Multi-channel ordering: one BFT ordering service carrying two
//! isolated ledgers (paper §3: a channel "is a private blockchain on a
//! HLF network, providing data partition"; step 4: the service gathers
//! envelopes *from all channels*).
//!
//! A retail channel and a wholesale channel share the same four
//! ordering nodes but form independent hash chains validated by
//! disjoint peer sets.
//!
//! ```sh
//! cargo run --release --example multi_channel_bank
//! ```

use hlf_crypto::ecdsa::SigningKey;
use hlf_fabric::{EndorsementPolicy, FabricClient, KvChaincode, Peer, PeerConfig};
use ordering_core::service::{OrderingService, ServiceOptions};
use std::collections::HashMap;
use std::time::Duration;

fn make_peers(channel: &str, count: usize, orderer_keys: Vec<hlf_crypto::ecdsa::VerifyingKey>, client: &FabricClient) -> Vec<Peer> {
    let keys: Vec<SigningKey> = (0..count)
        .map(|i| SigningKey::from_seed(format!("{channel}-peer-{i}").as_bytes()))
        .collect();
    let endorser_keys: Vec<_> = keys.iter().map(|k| *k.verifying_key()).collect();
    (0..count)
        .map(|i| {
            let mut peer = Peer::new_on_channel(
                PeerConfig {
                    id: i as u32,
                    signing_key: keys[i].clone(),
                    endorser_keys: endorser_keys.clone(),
                    orderer_keys: orderer_keys.clone(),
                    orderer_signatures_needed: 2,
                    policies: HashMap::from([(
                        "kv".to_string(),
                        EndorsementPolicy::AnyN(2),
                    )]),
                },
                channel,
            );
            peer.install_chaincode(Box::new(KvChaincode::new()));
            peer.register_client(client.id(), client.verifying_key());
            peer
        })
        .collect()
}

fn main() {
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(2)
            .with_signing_threads(2),
    );
    let mut frontend = service.frontend();

    let mut retail_client = FabricClient::new(1, "retail", SigningKey::from_seed(b"retail-client"));
    let mut wholesale_client =
        FabricClient::new(2, "wholesale", SigningKey::from_seed(b"wholesale-client"));
    let mut retail_peers = make_peers("retail", 3, service.orderer_keys().to_vec(), &retail_client);
    let mut wholesale_peers =
        make_peers("wholesale", 3, service.orderer_keys().to_vec(), &wholesale_client);
    println!("one ordering cluster, two channels, disjoint peer sets");

    // Interleave traffic from both channels through the same cluster.
    for i in 0..4 {
        let refs: Vec<&Peer> = retail_peers.iter().collect();
        let envelope = retail_client
            .transact_str(&refs, 2, "kv", &["put", &format!("account-{i}"), "100"])
            .expect("retail endorsement");
        frontend.submit_to_channel("retail", envelope.to_bytes());

        let refs: Vec<&Peer> = wholesale_peers.iter().collect();
        let envelope = wholesale_client
            .transact_str(&refs, 2, "kv", &["put", &format!("position-{i}"), "1000000"])
            .expect("wholesale endorsement");
        frontend.submit_to_channel("wholesale", envelope.to_bytes());
    }

    // Each channel delivers two blocks of two envelopes, independently
    // numbered and chained.
    for channel in ["retail", "wholesale"] {
        for _ in 0..2 {
            let block = frontend
                .next_block_on(channel, Duration::from_secs(15))
                .expect("block");
            println!(
                "channel {:<10} block #{} ({} envelopes)",
                block.header.channel,
                block.header.number,
                block.envelopes.len()
            );
            let peers = if channel == "retail" {
                &mut retail_peers
            } else {
                &mut wholesale_peers
            };
            for peer in peers.iter_mut() {
                let events = peer.validate_and_commit(block.clone()).expect("valid block");
                assert!(events.iter().all(|e| e.validation.is_valid()));
            }
        }
    }

    // Isolation: retail peers know nothing of wholesale state.
    assert!(retail_peers[0].state().get("position-0").is_none());
    assert!(wholesale_peers[0].state().get("account-0").is_none());
    assert_eq!(retail_peers[0].state().get("account-0").unwrap().0.as_ref(), b"100");
    println!("channels isolated: retail peers hold no wholesale keys and vice versa");
    service.shutdown();
}
