//! A complete Fabric-style application over the BFT ordering service:
//! asset creation and transfer with endorsement, ordering, validation
//! and MVCC conflict detection — the paper's six protocol steps end to
//! end, including a double-spend race that the validation step
//! resolves.
//!
//! ```sh
//! cargo run --release --example asset_transfer
//! ```

use hlf_wire::Bytes;
use hlf_crypto::ecdsa::SigningKey;
use hlf_fabric::{
    AssetChaincode, EndorsementPolicy, Envelope, Peer, PeerConfig, Proposal,
};
use ordering_core::service::{OrderingService, ServiceOptions};
use std::collections::HashMap;
use std::time::Duration;

fn main() {
    // --- Infrastructure: 4 orderers, 3 peers, 1 client -------------
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(2)
            .with_signing_threads(2),
    );
    let peer_keys: Vec<SigningKey> = (0..3)
        .map(|i| SigningKey::from_seed(format!("demo-peer-{i}").as_bytes()))
        .collect();
    let endorser_keys: Vec<_> = peer_keys.iter().map(|k| *k.verifying_key()).collect();
    let client_key = SigningKey::from_seed(b"demo-client");

    let mut peers: Vec<Peer> = (0..3)
        .map(|i| {
            let mut peer = Peer::new_on_channel(PeerConfig {
                id: i as u32,
                signing_key: peer_keys[i].clone(),
                endorser_keys: endorser_keys.clone(),
                orderer_keys: service.orderer_keys().to_vec(),
                orderer_signatures_needed: 2,
                policies: HashMap::from([(
                    "asset".to_string(),
                    EndorsementPolicy::AnyN(2),
                )]),
            }, "trading");
            peer.install_chaincode(Box::new(AssetChaincode::new()));
            peer.register_client(1, *client_key.verifying_key());
            peer
        })
        .collect();
    let mut frontend = service.frontend();
    println!("network up: 4 orderers (f=1), 3 peers, asset chaincode installed");

    let mut nonce = 0u64;
    let mut transact = |peers: &[Peer], args: &[&str]| -> Envelope {
        nonce += 1;
        let proposal = Proposal {
            channel: "trading".into(),
            chaincode: "asset".into(),
            client: 1,
            nonce,
            args: args.iter().map(|a| Bytes::copy_from_slice(a.as_bytes())).collect(),
        };
        let responses = peers[..2]
            .iter()
            .map(|p| p.endorse(&proposal).expect("endorsement"))
            .collect();
        Envelope::assemble(proposal, responses, &client_key).expect("assembly")
    };

    let commit_next_block = |peers: &mut Vec<Peer>,
                                 frontend: &mut ordering_core::Frontend| {
        let block = frontend
            .next_block(Duration::from_secs(15))
            .expect("block delivered");
        println!("-- block #{} ({} envelopes)", block.header.number, block.envelopes.len());
        for peer in peers.iter_mut() {
            let events = peer.validate_and_commit(block.clone()).expect("valid block");
            if peer.id() == 0 {
                for event in &events {
                    println!(
                        "   tx {}.. -> {}",
                        &event.tx_id.to_hex()[..12],
                        event.validation
                    );
                }
            }
        }
    };

    // --- Round 1: create two assets --------------------------------
    let create_car = transact(&peers, &["create", "car", "alice", "9000"]);
    let create_boat = transact(&peers, &["create", "boat", "bob", "55000"]);
    frontend.submit_to_channel("trading", create_car.to_bytes());
    frontend.submit_to_channel("trading", create_boat.to_bytes());
    commit_next_block(&mut peers, &mut frontend);

    // --- Round 2: a double-spend race ------------------------------
    // Alice signs two transfers of the same car, endorsed against the
    // same committed state. Both are totally ordered; MVCC validation
    // lets exactly the first one through.
    let to_carol = transact(&peers, &["transfer", "car", "carol"]);
    let to_dave = transact(&peers, &["transfer", "car", "dave"]);
    frontend.submit_to_channel("trading", to_carol.to_bytes());
    frontend.submit_to_channel("trading", to_dave.to_bytes());
    commit_next_block(&mut peers, &mut frontend);

    // --- Inspect final state ----------------------------------------
    let owner = peers[0].state().get("asset/car").expect("car exists").0;
    println!(
        "final owner record: {}",
        std::str::from_utf8(&owner).unwrap()
    );
    for peer in &peers {
        assert!(peer.ledger().verify_chain());
        assert_eq!(peer.state().get("asset/car").unwrap().0, owner);
    }
    println!(
        "all {} peers agree; ledgers verified ({} blocks)",
        peers.len(),
        peers[0].ledger().height()
    );
    service.shutdown();
}
