//! Full-pipeline integration test: Fabric clients endorse transactions
//! at peers, submit envelopes through an ordering-service frontend, and
//! committing peers validate and apply the resulting blocks — the
//! complete six-step protocol of paper §3 with the BFT ordering service
//! of §5 in the middle.

use hlf_wire::Bytes;
use hlf_bft::crypto::ecdsa::{PinnedKey, SigningKey};
use hlf_bft::fabric::{
    AssetChaincode, Envelope, EndorsementPolicy, KvChaincode, Peer, PeerConfig, Proposal,
    ProposalResponse, TxValidation,
};
use hlf_bft::ordering::service::{OrderingService, ServiceOptions};
use std::collections::HashMap;
use std::time::Duration;

struct TestNetwork {
    service: OrderingService,
    peers: Vec<Peer>,
    client_key: SigningKey,
    nonce: u64,
}

impl TestNetwork {
    fn start(block_size: usize) -> TestNetwork {
        let service = OrderingService::start(
            4,
            ServiceOptions::new(1)
                .with_block_size(block_size)
                .with_signing_threads(2),
        );

        let peer_signing: Vec<SigningKey> = (0..3)
            .map(|i| SigningKey::from_seed(format!("e2e-peer-{i}").as_bytes()))
            .collect();
        let endorser_keys: Vec<_> = peer_signing.iter().map(|k| *k.verifying_key()).collect();
        let client_key = SigningKey::from_seed(b"e2e-client");

        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), EndorsementPolicy::AnyN(2));
        policies.insert("asset".to_string(), EndorsementPolicy::AnyN(2));

        let peers: Vec<Peer> = (0..3)
            .map(|i| {
                let mut peer = Peer::new_on_channel(PeerConfig {
                    id: i as u32,
                    signing_key: peer_signing[i].clone(),
                    endorser_keys: endorser_keys.clone(),
                    orderer_keys: service.orderer_keys().to_vec(),
                    orderer_signatures_needed: 2, // f + 1
                    policies: policies.clone(),
                }, "ch1");
                peer.install_chaincode(Box::new(KvChaincode::new()));
                peer.install_chaincode(Box::new(AssetChaincode::new()));
                peer.register_client(1, *client_key.verifying_key());
                peer
            })
            .collect();

        TestNetwork {
            service,
            peers,
            client_key,
            nonce: 0,
        }
    }

    /// Client-side steps 1-3: endorse at two peers and assemble.
    fn transact(&mut self, chaincode: &str, args: &[&str]) -> Envelope {
        self.nonce += 1;
        let proposal = Proposal {
            channel: "ch1".into(),
            chaincode: chaincode.into(),
            client: 1,
            nonce: self.nonce,
            args: args
                .iter()
                .map(|a| Bytes::copy_from_slice(a.as_bytes()))
                .collect(),
        };
        let responses: Vec<ProposalResponse> = self.peers[..2]
            .iter()
            .map(|peer| peer.endorse(&proposal).expect("endorsement"))
            .collect();
        Envelope::assemble(proposal, responses, &self.client_key).expect("assembly")
    }
}

#[test]
fn fabric_transactions_flow_through_bft_ordering() {
    let mut network = TestNetwork::start(2);
    let mut frontend = network.service.frontend();

    // Round 1 (steps 1-3): four independent transactions. Dependent
    // transactions (e.g. transferring a not-yet-committed asset) cannot
    // be endorsed before their predecessors commit — exactly Fabric's
    // execute-order-validate semantics.
    let envelopes = vec![
        network.transact("kv", &["put", "color", "blue"]),
        network.transact("kv", &["put", "shape", "round"]),
        network.transact("asset", &["create", "car1", "alice", "9000"]),
        network.transact("asset", &["create", "car2", "carol", "100"]),
    ];

    // Step 4: submit to the ordering service.
    for envelope in &envelopes {
        frontend.submit_to_channel("ch1", envelope.to_bytes());
    }

    // Step 5: the frontend releases blocks of two envelopes each.
    let mut blocks = Vec::new();
    while blocks.iter().map(|b: &hlf_bft::fabric::Block| b.envelopes.len()).sum::<usize>() < 4 {
        let block = frontend
            .next_block(Duration::from_secs(20))
            .expect("block delivered");
        blocks.push(block);
    }

    // Step 6: all peers validate and commit identically.
    for peer in network.peers.iter_mut() {
        for block in &blocks {
            let events = peer.validate_and_commit(block.clone()).expect("block accepted");
            for event in events {
                assert_eq!(event.validation, TxValidation::Valid, "{event:?}");
            }
        }
    }

    // Round 2: now that car1 is committed, transfer it.
    let round2 = vec![
        network.transact("asset", &["transfer", "car1", "bob"]),
        network.transact("kv", &["put", "epoch", "2"]),
    ];
    for envelope in &round2 {
        frontend.submit_to_channel("ch1", envelope.to_bytes());
    }
    let block = frontend
        .next_block(Duration::from_secs(20))
        .expect("round-2 block");
    for peer in network.peers.iter_mut() {
        let events = peer.validate_and_commit(block.clone()).expect("block accepted");
        for event in events {
            assert_eq!(event.validation, TxValidation::Valid, "{event:?}");
        }
        assert_eq!(
            peer.state().get("color").unwrap().0,
            Bytes::from_static(b"blue")
        );
        assert_eq!(
            peer.state().get("asset/car1").unwrap().0,
            Bytes::from_static(b"bob:9000")
        );
        assert!(peer.ledger().verify_chain());
    }

    // Ledgers are identical across peers.
    let tips: Vec<_> = network.peers.iter().map(|p| p.ledger().tip_hash()).collect();
    assert!(tips.windows(2).all(|w| w[0] == w[1]));
    network.service.shutdown();
}

#[test]
fn stale_read_set_invalidated_at_commit() {
    let mut network = TestNetwork::start(2);
    let mut frontend = network.service.frontend();

    // Seed a key.
    let seed = network.transact("kv", &["put", "hot", "0"]);
    // Two conflicting updates endorsed against the SAME state: both
    // read nothing but write "hot"... to force a read conflict, make
    // both transactions read the key first via the asset chaincode
    // pattern: use kv get+put through two separate txs endorsed before
    // either commits.
    frontend.submit_to_channel("ch1", seed.to_bytes());

    // Wait: nothing is committed at peers yet, so endorse both
    // conflicting transactions against the pre-commit state.
    let read_a = network.transact("kv", &["get", "hot"]);
    let read_b = network.transact("kv", &["get", "hot"]);
    frontend.submit_to_channel("ch1", read_a.to_bytes());
    frontend.submit_to_channel("ch1", read_b.to_bytes());
    // Submit one more to fill the second block of two.
    let filler = network.transact("kv", &["put", "cold", "1"]);
    frontend.submit_to_channel("ch1", filler.to_bytes());

    let mut blocks = Vec::new();
    while blocks.iter().map(|b: &hlf_bft::fabric::Block| b.envelopes.len()).sum::<usize>() < 4 {
        blocks.push(frontend.next_block(Duration::from_secs(20)).expect("block"));
    }

    let peer = &mut network.peers[0];
    let mut validations = Vec::new();
    for block in &blocks {
        for event in peer.validate_and_commit(block.clone()).unwrap() {
            validations.push(event.validation);
        }
    }
    // The seed committed first, so both reads (endorsed against the
    // empty state, version None) are stale: MVCC conflicts.
    assert_eq!(validations[0], TxValidation::Valid);
    assert_eq!(validations[1], TxValidation::MvccConflict);
    assert_eq!(validations[2], TxValidation::MvccConflict);
    assert_eq!(validations[3], TxValidation::Valid);
    network.service.shutdown();
}

#[test]
fn blocks_carry_enough_signatures_for_peers() {
    let mut network = TestNetwork::start(1);
    let mut frontend = network.service.frontend();
    let envelope = network.transact("kv", &["put", "sig", "check"]);
    frontend.submit_to_channel("ch1", envelope.to_bytes());
    let block = frontend.next_block(Duration::from_secs(20)).expect("block");
    // The 2f+1 matching copies merged at least 3 distinct signatures —
    // more than the f+1 = 2 the peers demand.
    assert!(block.signatures.len() >= 3);
    let orderer_keys = PinnedKey::pin_all(network.service.orderer_keys());
    assert!(block.valid_signatures(&orderer_keys) >= 3);
    network.service.shutdown();
}
