//! Randomized consensus safety sweeps and Byzantine-behaviour tests,
//! driven through the deterministic cluster harness.

use hlf_wire::Bytes;
use hlf_bft::consensus::messages::{Batch, ConsensusMsg, Request, Vote, VotePhase};
use hlf_bft::consensus::quorum::QuorumSystem;
use hlf_bft::consensus::replica::{Action, Input};
use hlf_bft::consensus::testing::{step, test_keys, Cluster};
use hlf_bft::wire::{ClientId, NodeId};
use std::collections::BTreeMap;

fn req(client: u32, seq: u64) -> Request {
    Request::new(ClientId(client), seq, Bytes::from(vec![seq as u8; 24]))
}

#[test]
fn safety_under_random_schedules_and_drops() {
    for seed in 0..8u64 {
        let mut cluster = Cluster::classic(4, 1);
        cluster.randomize_order(seed);
        cluster.set_drop_probability(0.02);
        for seq in 1..=8 {
            cluster.submit_to_all(req(1, seq));
            cluster.run_to_quiescence();
        }
        // Drive timeouts so dropped traffic is recovered.
        for _ in 0..12 {
            cluster.advance_time(2_600);
            cluster.run_to_quiescence();
        }
        cluster.assert_prefix_consistent();
    }
}

#[test]
fn safety_with_crashed_leader_under_random_order() {
    for seed in 0..5u64 {
        let mut cluster = Cluster::classic(4, 1);
        cluster.randomize_order(seed);
        cluster.crash(NodeId(0));
        for seq in 1..=3 {
            cluster.submit_to_all(req(2, seq));
        }
        for _ in 0..8 {
            cluster.advance_time(2_600);
            cluster.run_to_quiescence();
        }
        // All live replicas decided the requests identically.
        cluster.assert_prefix_consistent();
        for i in 1..4 {
            let delivered: usize = cluster.decisions(i).iter().map(|(_, b)| b.len()).sum();
            assert_eq!(delivered, 3, "replica {i} (seed {seed})");
        }
    }
}

#[test]
fn wheat_safety_under_random_schedules() {
    for seed in 0..5u64 {
        let mut cluster = Cluster::wheat(5, 1);
        cluster.randomize_order(seed);
        for seq in 1..=6 {
            cluster.submit_to_all(req(3, seq));
            cluster.run_to_quiescence();
        }
        cluster.assert_prefix_consistent();
        // Tentative deliveries never contradict final commits.
        for i in 0..5 {
            use hlf_bft::consensus::testing::Observed;
            let events = cluster.observed(i);
            for event in events {
                if let Observed::Tentative(cid, batch) = event {
                    // If this cid later committed, it committed the same
                    // batch (no rollback happened in a fault-free run).
                    let committed = events.iter().find_map(|e| match e {
                        Observed::Commit(c, b) if c == cid => Some(b),
                        _ => None,
                    });
                    if let Some(committed) = committed {
                        assert_eq!(committed.digest(), batch.digest());
                    }
                }
            }
        }
    }
}

#[test]
fn byzantine_double_vote_cannot_fork() {
    // Node 3 sends conflicting WRITE votes for the same instance to
    // different replicas. Quorum intersection must prevent divergence.
    let mut cluster = Cluster::classic(4, 1);
    let (signing, _) = test_keys(4);

    let batch_a = Batch::new(vec![req(1, 1)]);
    let batch_b = Batch::new(vec![req(1, 2)]);

    // The honest leader proposes batch A everywhere.
    cluster.submit_to_all(req(1, 1));

    // Byzantine node 3 votes for A at replica 1 and for B at replica 2.
    let vote_a = Vote::sign(&signing[3], VotePhase::Write, NodeId(3), 1, 0, batch_a.digest());
    let vote_b = Vote::sign(&signing[3], VotePhase::Write, NodeId(3), 1, 0, batch_b.digest());
    cluster.inject(1, NodeId(3), ConsensusMsg::Write(vote_a));
    cluster.inject(2, NodeId(3), ConsensusMsg::Write(vote_b));

    cluster.run_to_quiescence();
    cluster.assert_consistent();
    // The honest batch decides despite the equivocation.
    let decided: usize = cluster.decisions(1).len();
    assert_eq!(decided, 1);
    assert_eq!(cluster.decisions(1)[0].1.digest(), batch_a.digest());
}

#[test]
fn byzantine_fake_stop_storm_cannot_install_regency() {
    // A single Byzantine node spams STOP for higher regencies; with
    // only one vote the change must not install (needs 2f+1 = 3).
    let mut cluster = Cluster::classic(4, 1);
    for target in [1u32, 2, 3] {
        for victim in 0..4usize {
            if victim != 3 {
                cluster.inject(victim, NodeId(3), ConsensusMsg::Stop { regency: target });
            }
        }
    }
    cluster.run_to_quiescence();
    for i in 0..3 {
        assert_eq!(cluster.replica(i).regency(), 0, "replica {i}");
    }
    // And the cluster still orders normally afterwards.
    cluster.submit_to_all(req(1, 1));
    cluster.run_to_quiescence();
    assert_eq!(cluster.decisions(0).len(), 1);
    cluster.assert_consistent();
}

#[test]
fn byzantine_forged_sync_is_rejected() {
    // A fake leader (node 1 is not the leader of regency 0) sends a
    // SYNC with an empty collect set; replicas must ignore it.
    let mut cluster = Cluster::classic(4, 1);
    cluster.inject(
        2,
        NodeId(1),
        ConsensusMsg::Sync {
            regency: 0,
            collect: vec![],
            cid: 1,
            batch: Batch::new(vec![req(9, 9)]),
            rebinds: vec![],
        },
    );
    cluster.run_to_quiescence();
    assert!(cluster.decisions(2).is_empty());
    // Normal operation unaffected.
    cluster.submit_to_all(req(1, 1));
    cluster.run_to_quiescence();
    cluster.assert_consistent();
    assert_eq!(cluster.decisions(2).len(), 1);
}

#[test]
fn larger_cluster_with_two_crashes() {
    let mut cluster = Cluster::classic(7, 2);
    cluster.crash(NodeId(5));
    cluster.crash(NodeId(6));
    for seq in 1..=4 {
        cluster.submit_to_all(req(4, seq));
        cluster.run_to_quiescence();
    }
    for i in 0..5 {
        assert_eq!(cluster.decisions(i).len(), 4, "replica {i}");
    }
    cluster.assert_prefix_consistent();
}

#[test]
fn cascading_leader_crashes_eventually_progress() {
    // n = 7 tolerates f = 2: crash the leaders of regencies 0 and 1.
    // The group must walk to regency 2 and decide there.
    let mut cluster = Cluster::classic(7, 2);
    cluster.crash(NodeId(0));
    cluster.crash(NodeId(1));
    cluster.submit_to_all(req(5, 1));
    for _ in 0..30 {
        cluster.advance_time(4_000);
        cluster.run_to_quiescence();
        let done = (2..7).all(|i| cluster.decisions(i).len() == 1);
        if done {
            break;
        }
    }
    for i in 2..7 {
        assert_eq!(cluster.decisions(i).len(), 1, "replica {i}");
        assert!(cluster.replica(i).regency() >= 2, "replica {i}");
    }
    cluster.assert_consistent();
}

#[test]
fn pipelined_out_of_order_accepts_decide_in_order() {
    // With a deep window the leader keeps several slots in flight at
    // once; shuffled delivery lets ACCEPT quorums complete out of
    // order, but commits must still be released strictly in order.
    for seed in 0..6u64 {
        let mut cluster = Cluster::with_configs(4, QuorumSystem::classic(4, 1).unwrap(), |c| {
            c.with_pipeline_depth(4)
        });
        cluster.randomize_order(seed);
        for seq in 1..=6 {
            cluster.submit_to(0, req(1, seq));
        }
        cluster.run_to_quiescence();
        for i in 0..4 {
            let cids: Vec<u64> = cluster.decisions(i).iter().map(|(c, _)| *c).collect();
            let expected: Vec<u64> = (1..=cids.len() as u64).collect();
            assert_eq!(cids, expected, "replica {i} committed out of order (seed {seed})");
            let delivered: usize = cluster.decisions(i).iter().map(|(_, b)| b.len()).sum();
            assert_eq!(delivered, 6, "replica {i} lost requests (seed {seed})");
        }
        cluster.assert_prefix_consistent();
    }
}

#[test]
fn pipelined_view_change_reproposes_in_flight_slots() {
    // Three slots are in flight (WRITE-certified at two followers) when
    // the leader goes silent. The new regent must re-propose all three
    // from the STOP-DATA window reports and commit them in order with
    // no request lost. Hand-driven up to the SYNC so the crash lands
    // mid-window; the cluster delivers the rest.
    let mut cluster = Cluster::with_configs(4, QuorumSystem::classic(4, 1).unwrap(), |c| {
        c.with_pipeline_depth(4)
    });

    // The leader opens three slots; capture its PROPOSE/WRITE traffic.
    let mut leader_msgs = Vec::new();
    let mut proposed = BTreeMap::new();
    for seq in 1..=3 {
        for action in step(cluster.replica_mut(0), 0, Input::Requests(vec![req(7, seq)])) {
            if let Action::Broadcast(msg) = action {
                if let ConsensusMsg::Propose { cid, batch, .. } = &msg {
                    proposed.insert(*cid, batch.clone());
                }
                leader_msgs.push(msg);
            }
        }
    }
    assert_eq!(cluster.replica(0).window_occupancy(), 3, "leader holds 3 in-flight slots");
    assert_eq!(proposed.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3]);

    // Replicas 1 and 2 see the leader's traffic; replica 3 sees nothing.
    let mut writes = Vec::new();
    for msg in &leader_msgs {
        for i in [1usize, 2] {
            let input = Input::Message(NodeId(0), msg.clone());
            for action in step(cluster.replica_mut(i), 5, input) {
                if let Action::Broadcast(m @ ConsensusMsg::Write(_)) = action {
                    writes.push((NodeId(i as u32), m));
                }
            }
        }
    }
    // Exchange WRITEs between replicas 1 and 2: together with the
    // leader's they certify all three slots. Their ACCEPTs are eaten by
    // the network, so nothing decides in regency 0.
    for (from, msg) in writes {
        for i in [1usize, 2] {
            if NodeId(i as u32) != from {
                step(cluster.replica_mut(i), 6, Input::Message(from, msg.clone()));
            }
        }
    }

    // The live replicas demand a leader change (two peer STOPs each
    // amplify into a 2f+1 quorum including the local vote).
    let mut stopdatas = Vec::new();
    for i in [1usize, 2, 3] {
        for from in [1u32, 2, 3] {
            if from as usize == i {
                continue;
            }
            let stop = Input::Message(NodeId(from), ConsensusMsg::Stop { regency: 1 });
            for action in step(cluster.replica_mut(i), 10, stop) {
                if let Action::Send(NodeId(1), ConsensusMsg::StopData(sd)) = action {
                    stopdatas.push((NodeId(i as u32), sd));
                }
            }
        }
        assert_eq!(cluster.replica(i).regency(), 1, "replica {i} installs regency 1");
    }

    // The new regent (node 1) collects STOP-DATA and emits a SYNC that
    // rebinds the two slots above the frontier.
    let mut regent_msgs = Vec::new();
    for (from, sd) in stopdatas {
        let input = Input::Message(from, ConsensusMsg::StopData(sd));
        for action in step(cluster.replica_mut(1), 11, input) {
            if let Action::Broadcast(msg) = action {
                if let ConsensusMsg::Sync { cid, rebinds, .. } = &msg {
                    assert_eq!(*cid, 1, "sync targets the frontier");
                    let rebound: Vec<u64> = rebinds.iter().map(|r| r.cid).collect();
                    assert_eq!(rebound, vec![2, 3], "both in-flight slots re-proposed");
                    for rebind in rebinds {
                        assert_eq!(
                            rebind.batch.digest(),
                            proposed[&rebind.cid].digest(),
                            "slot {} must rebind the certified value",
                            rebind.cid
                        );
                    }
                }
                regent_msgs.push(msg);
            }
        }
    }
    assert!(
        regent_msgs.iter().any(|m| matches!(m, ConsensusMsg::Sync { .. })),
        "new regent must emit a SYNC"
    );

    // Leader 0 stays dark; the regent's broadcasts reach the other live
    // replicas, and the cluster runs them to quiescence.
    cluster.crash(NodeId(0));
    for msg in regent_msgs {
        for to in [2usize, 3] {
            cluster.inject(to, NodeId(1), msg.clone());
        }
    }
    cluster.run_to_quiescence();

    // Every live replica committed all three slots, in order, with the
    // originally proposed values: no committed or certified tx lost.
    for i in [1usize, 2, 3] {
        let committed = cluster.decisions(i);
        let cids: Vec<u64> = committed.iter().map(|(c, _)| *c).collect();
        assert_eq!(cids, vec![1, 2, 3], "replica {i} commit order");
        for (cid, batch) in &committed {
            assert_eq!(batch.digest(), proposed[cid].digest(), "replica {i} slot {cid}");
        }
    }
}

#[test]
fn byzantine_equivocation_across_slots_rejected_independently() {
    // Node 3 votes for a different forged value in each of two
    // concurrently open slots. Each slot's tracker must judge its own
    // votes only: both slots still decide the honest batches.
    let mut cluster = Cluster::with_configs(4, QuorumSystem::classic(4, 1).unwrap(), |c| {
        c.with_pipeline_depth(2)
    });
    let (signing, _) = test_keys(4);

    cluster.submit_to(0, req(1, 1));
    cluster.submit_to(0, req(1, 2));

    let forged_a = Batch::new(vec![req(8, 1)]);
    let forged_b = Batch::new(vec![req(8, 2)]);
    for victim in 0..3usize {
        let vote_a =
            Vote::sign(&signing[3], VotePhase::Write, NodeId(3), 1, 0, forged_a.digest());
        let vote_b =
            Vote::sign(&signing[3], VotePhase::Write, NodeId(3), 2, 0, forged_b.digest());
        cluster.inject(victim, NodeId(3), ConsensusMsg::Write(vote_a));
        cluster.inject(victim, NodeId(3), ConsensusMsg::Write(vote_b));
    }

    cluster.run_to_quiescence();
    cluster.assert_consistent();
    for i in 0..3 {
        let decisions = cluster.decisions(i);
        assert_eq!(decisions.len(), 2, "replica {i}");
        assert_eq!(decisions[0].1.digest(), Batch::new(vec![req(1, 1)]).digest());
        assert_eq!(decisions[1].1.digest(), Batch::new(vec![req(1, 2)]).digest());
        for (_, batch) in &decisions {
            assert_ne!(batch.digest(), forged_a.digest(), "replica {i}");
            assert_ne!(batch.digest(), forged_b.digest(), "replica {i}");
        }
    }
}

#[test]
fn beyond_f_crashes_halt_but_stay_safe() {
    // Two crashes with f = 1 exceed the fault threshold: the protocol
    // must NOT decide (liveness is forfeit), and must not fork.
    let mut cluster = Cluster::classic(4, 1);
    cluster.crash(NodeId(0));
    cluster.crash(NodeId(1));
    cluster.submit_to_all(req(5, 1));
    for _ in 0..10 {
        cluster.advance_time(3_000);
        cluster.run_to_quiescence();
    }
    for i in 2..4 {
        assert!(cluster.decisions(i).is_empty(), "replica {i} decided unsafely");
    }
}
