//! Edge-case integration tests for the consensus replica: buffering
//! across synchronization phases, state installation, value transfer
//! limits, and proposal validation.

use hlf_wire::Bytes;
use hlf_consensus::messages::{Batch, ConsensusMsg, Request, Vote, VotePhase};
use hlf_consensus::quorum::QuorumSystem;
use hlf_consensus::replica::{Action, Config, Input, Replica};
use hlf_consensus::testing::{step, test_keys, Cluster, Observed};
use hlf_wire::{ClientId, NodeId};

fn req(seq: u64) -> Request {
    Request::new(ClientId(4), seq, Bytes::from(vec![seq as u8; 16]))
}

/// Builds a standalone replica wired with the same deterministic keys
/// the Cluster harness uses (so injected votes validate).
fn standalone(n: usize, f: usize, index: usize) -> Replica {
    let (signing, verifying) = test_keys(n);
    Replica::new(Config::new(
        NodeId(index as u32),
        QuorumSystem::classic(n, f).unwrap(),
        verifying,
        signing[index].clone(),
    ))
}

/// `replica`'s actions on a PROPOSE of `batch` for slot 1, epoch 0,
/// sent by `from`.
fn propose(replica: &mut Replica, from: u32, batch: Batch) -> Vec<Action> {
    let msg = ConsensusMsg::Propose {
        cid: 1,
        epoch: 0,
        batch,
    };
    step(replica, 0, Input::Message(NodeId(from), msg))
}

#[test]
fn duplicate_proposals_are_idempotent() {
    let mut replica = standalone(4, 1, 1);
    let batch = Batch::new(vec![req(1)]);
    let first = propose(&mut replica, 0, batch.clone());
    assert!(first
        .iter()
        .any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Write(_)))));
    // A replayed identical proposal must not produce a second write.
    let second = propose(&mut replica, 0, batch);
    assert!(second.is_empty());
}

#[test]
fn conflicting_second_proposal_ignored() {
    let mut replica = standalone(4, 1, 1);
    let batch_a = Batch::new(vec![req(1)]);
    let batch_b = Batch::new(vec![req(2)]);
    propose(&mut replica, 0, batch_a);
    let actions = propose(&mut replica, 0, batch_b);
    assert!(actions.is_empty(), "equivocating second proposal accepted");
}

#[test]
fn oversized_batch_rejected() {
    let mut replica = standalone(4, 1, 1);
    let too_many = Batch::new((0..500).map(req).collect());
    let actions = propose(&mut replica, 0, too_many);
    assert!(actions.is_empty());
}

#[test]
fn empty_normal_proposal_rejected() {
    let mut replica = standalone(4, 1, 1);
    let actions = propose(&mut replica, 0, Batch::empty());
    assert!(actions.is_empty());
}

#[test]
fn proposal_from_non_leader_rejected() {
    let mut replica = standalone(4, 1, 2);
    // The leader of regency 0 is node 0.
    let actions = propose(&mut replica, 1, Batch::new(vec![req(1)]));
    assert!(actions.is_empty());
}

#[test]
fn install_state_skips_ahead_and_ignores_regressions() {
    let mut replica = standalone(4, 1, 1);
    assert_eq!(replica.next_cid(), 1);
    step(&mut replica, 0, Input::InstallState(10));
    assert_eq!(replica.next_cid(), 11);
    // Installing an older state is a no-op.
    step(&mut replica, 0, Input::InstallState(5));
    assert_eq!(replica.next_cid(), 11);
}

#[test]
fn value_requests_for_ancient_cids_get_no_reply() {
    // Replica 0 decides many instances; its reply cache is bounded, so
    // a request for instance 1 after hundreds of decisions is silent
    // (state transfer, not value transfer, covers that gap).
    let mut cluster = Cluster::classic(4, 1);
    for seq in 1..=80 {
        cluster.submit_to_all(req(seq));
        cluster.run_to_quiescence();
    }
    assert_eq!(cluster.decisions(0).len(), 80);
    // 64-entry cache: cid 1 is long gone; cid 80 is present.
    cluster.inject(0, NodeId(3), ConsensusMsg::ValueRequest { cid: 1 });
    cluster.inject(0, NodeId(3), ConsensusMsg::ValueRequest { cid: 80 });
    cluster.run_to_quiescence();
    // Only the fresh cid produced a reply, observable as replica 3
    // ignoring it (it already decided 80). No panic = pass; check
    // stronger: replica 3's decision count unchanged.
    assert_eq!(cluster.decisions(3).len(), 80);
}

#[test]
fn writes_buffered_during_sync_complete_after_sync() {
    // Reproduce the race the randomized tests exposed: a replica
    // receives WRITE votes for the post-sync epoch while it is still
    // collecting the sync itself; they must count afterwards.
    // Force the leader change with randomized delivery across seeds;
    // progress must happen in every interleaving.
    for seed in 100..110u64 {
        let mut cluster = Cluster::classic(4, 1);
        cluster.randomize_order(seed);
        cluster.crash(NodeId(0));
        cluster.submit_to_all(req(1));
        for _ in 0..10 {
            cluster.advance_time(2_600);
            cluster.run_to_quiescence();
        }
        for i in 1..4 {
            assert_eq!(
                cluster.decisions(i).len(),
                1,
                "seed {seed} replica {i} stalled"
            );
        }
        cluster.assert_consistent();
    }
}

#[test]
fn request_dedup_survives_decisions() {
    let mut cluster = Cluster::classic(4, 1);
    cluster.submit_to_all(req(1));
    cluster.run_to_quiescence();
    // Resubmitting the same request after it decided must not create a
    // second instance.
    cluster.submit_to_all(req(1));
    cluster.run_to_quiescence();
    for i in 0..4 {
        assert_eq!(cluster.decisions(i).len(), 1, "replica {i}");
    }
}

#[test]
fn forward_reaches_leader_and_orders() {
    // A request submitted only to a follower is forwarded to the leader
    // after the first timeout stage and then ordered.
    let mut cluster = Cluster::classic(4, 1);
    cluster.submit_to(2, req(1));
    cluster.run_to_quiescence();
    assert!(cluster.decisions(0).is_empty());
    cluster.advance_time(2_500); // stage 1: forward
    cluster.run_to_quiescence();
    for i in 0..4 {
        assert_eq!(cluster.decisions(i).len(), 1, "replica {i}");
    }
}

#[test]
fn wheat_tentative_not_contradicted_by_commit() {
    let mut cluster = Cluster::wheat(5, 1);
    for seq in 1..=10 {
        cluster.submit_to_all(req(seq));
        cluster.run_to_quiescence();
    }
    for i in 0..5 {
        let events = cluster.observed(i);
        let tentatives = events
            .iter()
            .filter(|e| matches!(e, Observed::Tentative(..)))
            .count();
        let commits = events
            .iter()
            .filter(|e| matches!(e, Observed::Commit(..)))
            .count();
        assert_eq!(tentatives, 10, "replica {i}");
        assert_eq!(commits, 10, "replica {i}");
        assert!(!events.iter().any(|e| matches!(e, Observed::Rollback(_))));
    }
}

#[test]
fn stale_votes_from_previous_epoch_do_not_count() {
    // Votes signed for epoch 0 must be worthless once regency 1 runs.
    let (signing, _) = test_keys(4);
    let mut replica = standalone(4, 1, 3);
    // Install regency 1 via stops from 1 and 2 (plus own amplification).
    step(&mut replica, 0, Input::Message(NodeId(1), ConsensusMsg::Stop { regency: 1 }));
    step(&mut replica, 0, Input::Message(NodeId(2), ConsensusMsg::Stop { regency: 1 }));
    assert_eq!(replica.regency(), 1);

    // A stale epoch-0 write arrives: must not trigger anything even
    // after the sync concludes.
    let batch = Batch::new(vec![req(1)]);
    let stale = Vote::sign(&signing[2], VotePhase::Write, NodeId(2), 1, 0, batch.digest());
    let actions = step(&mut replica, 0, Input::Message(NodeId(2), ConsensusMsg::Write(stale)));
    assert!(actions.is_empty());
}

#[test]
fn wheat_tentative_rollback_on_conflicting_sync() {
    // Exercise the tentative-rollback path end to end at one replica:
    // it tentatively delivers batch A after a WRITE quorum, then a
    // (Byzantine-flavoured) synchronization phase whose collect set
    // hides every write certificate re-binds batch B. The replica must
    // emit Rollback before adopting B.
    use hlf_consensus::messages::StopData;

    let n = 5;
    let (signing, verifying) = test_keys(n);
    let mut replica = Replica::new(
        Config::new(
            NodeId(4),
            QuorumSystem::wheat_binary(n, 1).unwrap(),
            verifying,
            signing[4].clone(),
        )
        .with_tentative_execution(true),
    );

    // Leader 0 proposes batch A.
    let batch_a = Batch::new(vec![req(1)]);
    let actions = propose(&mut replica, 0, batch_a.clone());
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Write(_)))));

    // WRITE votes from the two Vmax replicas (weight 2+2) plus our own
    // weight-1 vote reach the quorum weight of 5: tentative delivery.
    let mut tentative_seen = false;
    for i in [0usize, 1] {
        let vote = Vote::sign(
            &signing[i],
            VotePhase::Write,
            NodeId(i as u32),
            1,
            0,
            batch_a.digest(),
        );
        let write = Input::Message(NodeId(i as u32), ConsensusMsg::Write(vote));
        let actions = step(&mut replica, 0, write);
        tentative_seen |= actions
            .iter()
            .any(|a| matches!(a, Action::DeliverTentative { cid: 1, .. }));
    }
    assert!(tentative_seen, "write quorum must deliver tentatively");

    // Regency change to 1 (leader = node 1).
    let stop = |from| Input::Message(NodeId(from), ConsensusMsg::Stop { regency: 1 });
    step(&mut replica, 0, stop(2));
    let actions = step(&mut replica, 0, stop(3));
    assert!(replica.is_syncing());
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::Send(NodeId(1), ConsensusMsg::StopData(_)))));

    // The new leader's SYNC carries an n-f = 4 entry collect set where
    // the write-voters 0 and 1 *hide* their certificates (this takes
    // two Byzantine replicas — beyond f — but it exercises exactly the
    // rollback path the paper's §4 mandates the application support).
    let batch_b = Batch::new(vec![req(2)]);
    let collect: Vec<StopData> = [0usize, 1, 2, 3]
        .iter()
        .map(|&i| {
            StopData::sign(
                &signing[i],
                NodeId(i as u32),
                1,
                1,
                None,
                None,
                vec![],
                None,
            )
        })
        .collect();
    let sync = ConsensusMsg::Sync {
        regency: 1,
        collect,
        cid: 1,
        batch: batch_b.clone(),
        rebinds: vec![],
    };
    let actions = step(&mut replica, 0, Input::Message(NodeId(1), sync));
    assert!(
        actions.iter().any(|a| matches!(a, Action::Rollback { cid: 1 })),
        "conflicting re-proposal must roll the tentative delivery back: {actions:?}"
    );
    // And the replica proceeds with B in the new epoch.
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Broadcast(ConsensusMsg::Write(v)) if v.epoch == 1 && v.hash == batch_b.digest()
    )));
    assert_eq!(replica.metrics().rollbacks, 1);
}
