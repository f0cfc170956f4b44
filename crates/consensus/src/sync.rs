//! The synchronization phase's deterministic selection function.
//!
//! When a regency change installs a new leader, every replica sends the
//! leader a signed [`StopData`] snapshot. The leader gathers at least
//! `n - f` of them (the *collect set*) and runs [`select`] to determine
//! (a) which consensus instance the group resumes at and (b) whether a
//! value is *bound* — i.e. might already have been decided somewhere and
//! therefore must be re-proposed verbatim.
//!
//! Followers re-run the same function over the collect set carried by
//! the leader's SYNC message, so a Byzantine leader cannot smuggle in a
//! value that contradicts a possible earlier decision.
//!
//! Safety sketch: if instance `c` decided batch `v` anywhere, a quorum
//! accept-voted `v`, and every correct accept-voter held a WRITE
//! certificate for `v` at that moment. Either at least one of those
//! correct replicas appears in the collect set still at instance `c`
//! (its certificate binds `v`), or enough replicas advanced past `c`
//! that a decision proof raises the resume instance beyond `c`.

use crate::messages::{verify_votes, Batch, SlotRebind, StopData, Vote, VotePhase};
use crate::quorum::QuorumSystem;
use crate::ConsensusError;
use hlf_crypto::ecdsa::{verify_batch, PinnedKey};
use hlf_crypto::sha256::Hash256;
use std::collections::{BTreeMap, HashSet};

/// Upper bound on the pipelined window depth the protocol accepts.
/// Bounds the slot range the selection function scans and the rebind
/// vector a SYNC may carry, so a Byzantine collect set cannot force
/// unbounded work.
pub(crate) const MAX_WINDOW: u64 = 64;

/// Outcome of the window-aware selection function: the frontier
/// selection plus every later in-flight slot the new regent must
/// re-propose.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WindowSelection {
    /// The instance the group resumes at (the window frontier).
    pub(crate) cid: u64,
    /// The frontier's bound value, when one exists.
    pub(crate) bound: Option<BoundValue>,
    /// Contiguous slots `cid+1 ..= highest bound slot`, each with its
    /// bound value or `None` for an unbound gap (which must be
    /// re-proposed as an empty batch so in-order release can pass it).
    pub(crate) extra: Vec<(u64, Option<BoundValue>)>,
}

/// A value bound by a WRITE certificate in the collect set.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct BoundValue {
    /// Digest of the bound batch.
    hash: Hash256,
    /// Epoch of the certificate that bound it.
    epoch: u32,
    /// The batch, when recoverable from the collect set.
    pub(crate) value: Option<Batch>,
}

/// Validates a WRITE certificate: distinct signers, matching fields,
/// quorum weight, and valid signatures, verified as one batch.
fn write_cert_valid(
    votes: &[Vote],
    cid: u64,
    epoch: u32,
    hash: &Hash256,
    quorums: &QuorumSystem,
    keys: &[PinnedKey],
) -> bool {
    let mut seen = HashSet::new();
    let mut signed = Vec::with_capacity(votes.len());
    for vote in votes {
        if vote.phase != VotePhase::Write
            || vote.cid != cid
            || vote.epoch != epoch
            || vote.hash != *hash
        {
            return false;
        }
        if !seen.insert(vote.node) {
            return false;
        }
        let Some(key) = keys.get(vote.node.as_usize()) else {
            return false;
        };
        signed.push((vote, key));
    }
    quorums.is_quorum(seen.iter().copied()) && !verify_votes(signed).contains(&false)
}

/// Filters a collect set down to entries with valid signatures and the
/// expected regency, deduplicating senders (the first entry per sender
/// counts); the signatures are verified as one batch.
///
/// # Errors
///
/// Returns [`ConsensusError::InvalidCollect`] if fewer than `n - f`
/// valid entries remain.
pub(crate) fn validate_collect<'a>(
    collect: &'a [StopData],
    regency: u32,
    quorums: &QuorumSystem,
    keys: &[PinnedKey],
) -> Result<Vec<&'a StopData>, ConsensusError> {
    let mut seen = HashSet::new();
    let mut entries = Vec::new();
    let mut signed = Vec::new();
    for sd in collect {
        if sd.regency != regency {
            continue;
        }
        let Some(key) = keys.get(sd.node.as_usize()) else {
            continue;
        };
        if !seen.insert(sd.node) {
            continue;
        }
        entries.push(sd);
        signed.push((key, sd.signed_digest(), sd.signature));
    }
    let valid: Vec<&StopData> = entries
        .into_iter()
        .zip(verify_batch(&signed))
        .filter_map(|(sd, verdict)| verdict.is_ok().then_some(sd))
        .collect();
    if valid.len() < quorums.collect_count() {
        return Err(ConsensusError::InvalidCollect("too few valid entries"));
    }
    Ok(valid)
}

/// The bound value at one window slot, across frontier fields and
/// per-slot reports of every valid collect entry. Highest certificate
/// epoch wins.
fn slot_bound(
    valid: &[&StopData],
    cid: u64,
    quorums: &QuorumSystem,
    keys: &[PinnedKey],
) -> Option<BoundValue> {
    let mut bound: Option<BoundValue> = None;
    let mut consider = |epoch: u32, hash: &Hash256, cert: &[Vote]| {
        if cert.is_empty() || !write_cert_valid(cert, cid, epoch, hash, quorums, keys) {
            return;
        }
        if bound.as_ref().is_none_or(|b| epoch > b.epoch) {
            bound = Some(BoundValue {
                hash: *hash,
                epoch,
                value: None,
            });
        }
    };
    for sd in valid {
        if sd.cid == cid {
            if let Some((epoch, hash)) = sd.last_write {
                consider(epoch, &hash, &sd.write_cert);
            }
        }
        for report in &sd.extra_slots {
            if report.cid == cid {
                if let Some((epoch, hash)) = report.last_write {
                    consider(epoch, &hash, &report.write_cert);
                }
            }
        }
    }
    bound
}

/// Recovers the batch bytes behind a bound hash from any collect entry
/// (frontier value or per-slot report value).
fn recover_value(valid: &[&StopData], bound: &mut BoundValue) {
    for sd in valid {
        let values = sd
            .value
            .iter()
            .chain(sd.extra_slots.iter().filter_map(|r| r.value.as_ref()));
        for batch in values {
            if batch.digest() == bound.hash {
                bound.value = Some(batch.clone());
                return;
            }
        }
    }
}

/// Runs the window-aware selection function over a collect set: the
/// frontier selection plus a bound value for every later in-flight slot
/// certified anywhere in the collect set.
///
/// An ACCEPT quorum can exist at slot `s > frontier` while the frontier
/// itself is still unbound; every accept-voter held a WRITE certificate
/// for `s`, and the collect set (`n - f` entries) intersects that quorum
/// in a correct replica whose [`crate::messages::SlotReport`] carries
/// the certificate — so scanning the reports is exactly what makes
/// decisions above the frontier survive the view change.
///
/// # Errors
///
/// Returns [`ConsensusError::InvalidCollect`] if the collect set is too
/// small or malformed.
pub(crate) fn select_window(
    collect: &[StopData],
    regency: u32,
    quorums: &QuorumSystem,
    keys: &[PinnedKey],
) -> Result<WindowSelection, ConsensusError> {
    let valid = validate_collect(collect, regency, quorums, keys)?;

    // Highest instance provably already decided everywhere below it:
    // a valid decision proof for instance c lets the group resume at
    // c + 1 even if only one replica reports it.
    let mut proven: u64 = 1;
    for sd in &valid {
        if let Some(proof) = &sd.decision {
            if proof.verify(quorums, keys).is_ok() && proof.cid + 1 > proven {
                proven = proof.cid + 1;
            }
        }
    }

    // The (f+1)-th largest claimed instance: at least one correct
    // replica claims an instance >= this value.
    let mut cids: Vec<u64> = valid.iter().map(|sd| sd.cid).collect();
    cids.sort_unstable_by(|a, b| b.cmp(a));
    let kth = cids
        .get(quorums.f())
        .or_else(|| cids.last())
        .copied()
        .unwrap_or(0);

    let target = proven.max(kth);

    let mut bound = slot_bound(&valid, target, quorums, keys);
    if let Some(b) = &mut bound {
        recover_value(&valid, b);
    }

    // Bound values at slots above the frontier, within the protocol's
    // window horizon.
    let mut later: BTreeMap<u64, BoundValue> = BTreeMap::new();
    for slot in target + 1..target + MAX_WINDOW {
        if let Some(mut b) = slot_bound(&valid, slot, quorums, keys) {
            recover_value(&valid, &mut b);
            later.insert(slot, b);
        }
    }
    let highest = later.keys().next_back().copied().unwrap_or(target);
    let extra = (target + 1..=highest)
        .map(|slot| {
            let b = later.remove(&slot);
            (slot, b)
        })
        .collect();

    Ok(WindowSelection {
        cid: target,
        bound,
        extra,
    })
}

/// Verifies a leader's windowed SYNC against its collect set: re-runs
/// the selection, checks the leader respected the frontier's bound
/// value, and requires an exact match between the carried `rebinds`
/// and the window selection — every bound slot re-proposed verbatim,
/// every unbound gap slot re-proposed empty, nothing omitted or padded.
///
/// # Errors
///
/// Returns [`ConsensusError::InvalidCollect`] when the collect set is
/// invalid or the proposed values contradict the selection.
pub(crate) fn validate_sync_window(
    collect: &[StopData],
    regency: u32,
    cid: u64,
    batch: &Batch,
    rebinds: &[SlotRebind],
    quorums: &QuorumSystem,
    keys: &[PinnedKey],
) -> Result<(), ConsensusError> {
    let selection = select_window(collect, regency, quorums, keys)?;
    if selection.cid != cid {
        return Err(ConsensusError::InvalidCollect("wrong resume instance"));
    }
    if let Some(bound) = &selection.bound {
        if batch.digest() != bound.hash {
            return Err(ConsensusError::InvalidCollect("bound value not proposed"));
        }
    }
    if rebinds.len() != selection.extra.len() {
        return Err(ConsensusError::InvalidCollect("window rebinds mismatch"));
    }
    for (rebind, (slot, bound)) in rebinds.iter().zip(&selection.extra) {
        if rebind.cid != *slot {
            return Err(ConsensusError::InvalidCollect("rebind slot mismatch"));
        }
        match bound {
            Some(bound) => {
                if rebind.batch.digest() != bound.hash {
                    return Err(ConsensusError::InvalidCollect("bound slot not re-proposed"));
                }
            }
            None => {
                if !rebind.batch.is_empty() {
                    return Err(ConsensusError::InvalidCollect("gap slot must be empty"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Request;
    use hlf_wire::Bytes;
    use hlf_crypto::ecdsa::SigningKey;
    use hlf_wire::{ClientId, NodeId};

    struct Fixture {
        sk: Vec<SigningKey>,
        vk: Vec<PinnedKey>,
        quorums: QuorumSystem,
    }

    fn fixture(n: usize, f: usize) -> Fixture {
        let sk: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("sync-{i}").as_bytes()))
            .collect();
        let vk = sk.iter().map(|k| PinnedKey::new(*k.verifying_key())).collect();
        Fixture {
            sk,
            vk,
            quorums: QuorumSystem::classic(n, f).unwrap(),
        }
    }

    fn batch(tag: u8) -> Batch {
        Batch::new(vec![Request::new(
            ClientId(1),
            tag as u64,
            Bytes::copy_from_slice(&[tag; 8]),
        )])
    }

    fn write_cert(fx: &Fixture, voters: &[usize], cid: u64, epoch: u32, hash: Hash256) -> Vec<Vote> {
        voters
            .iter()
            .map(|&i| {
                Vote::sign(
                    &fx.sk[i],
                    VotePhase::Write,
                    NodeId(i as u32),
                    cid,
                    epoch,
                    hash,
                )
            })
            .collect()
    }

    fn plain_sd(fx: &Fixture, node: usize, regency: u32, cid: u64) -> StopData {
        StopData::sign(
            &fx.sk[node],
            NodeId(node as u32),
            regency,
            cid,
            None,
            None,
            vec![],
            None,
        )
    }

    #[test]
    fn free_selection_when_nothing_written() {
        let fx = fixture(4, 1);
        let collect: Vec<StopData> = (0..3).map(|i| plain_sd(&fx, i, 1, 5)).collect();
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert_eq!(sel.cid, 5);
        assert!(sel.bound.is_none());
    }

    #[test]
    fn too_few_entries_rejected() {
        let fx = fixture(4, 1);
        let collect: Vec<StopData> = (0..2).map(|i| plain_sd(&fx, i, 1, 5)).collect();
        assert!(matches!(
            select_window(&collect, 1, &fx.quorums, &fx.vk),
            Err(ConsensusError::InvalidCollect(_))
        ));
    }

    #[test]
    fn bad_signature_entries_are_ignored() {
        let fx = fixture(4, 1);
        let mut collect: Vec<StopData> = (0..3).map(|i| plain_sd(&fx, i, 1, 5)).collect();
        collect[2].cid = 99; // invalidates the signature
        assert!(select_window(&collect, 1, &fx.quorums, &fx.vk).is_err());
        // Adding a fourth valid entry restores the quorum of valid ones.
        collect.push(plain_sd(&fx, 3, 1, 5));
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert_eq!(sel.cid, 5);
    }

    #[test]
    fn duplicate_senders_count_once() {
        let fx = fixture(4, 1);
        let sd = plain_sd(&fx, 0, 1, 5);
        let collect = vec![sd.clone(), sd.clone(), sd];
        assert!(select_window(&collect, 1, &fx.quorums, &fx.vk).is_err());
    }

    #[test]
    fn write_certificate_binds_value() {
        let fx = fixture(4, 1);
        let b = batch(7);
        let h = b.digest();
        let cert = write_cert(&fx, &[0, 1, 2], 5, 0, h);
        let holder = StopData::sign(
            &fx.sk[0],
            NodeId(0),
            1,
            5,
            Some((0, h)),
            Some(b.clone()),
            cert,
            None,
        );
        let collect = vec![holder, plain_sd(&fx, 1, 1, 5), plain_sd(&fx, 2, 1, 5)];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert_eq!(sel.cid, 5);
        let bound = sel.bound.expect("value must be bound");
        assert_eq!(bound.hash, h);
        assert_eq!(bound.value, Some(b.clone()));

        // validate_sync_window accepts the bound value and rejects others.
        validate_sync_window(&collect, 1, 5, &b, &[], &fx.quorums, &fx.vk).unwrap();
        assert!(validate_sync_window(&collect, 1, 5, &batch(9), &[], &fx.quorums, &fx.vk).is_err());
        assert!(validate_sync_window(&collect, 1, 6, &b, &[], &fx.quorums, &fx.vk).is_err());
    }

    #[test]
    fn undersized_certificate_does_not_bind() {
        let fx = fixture(4, 1);
        let b = batch(7);
        let h = b.digest();
        let cert = write_cert(&fx, &[0, 1], 5, 0, h); // only 2 < quorum 3
        let holder = StopData::sign(
            &fx.sk[0],
            NodeId(0),
            1,
            5,
            Some((0, h)),
            Some(b),
            cert,
            None,
        );
        let collect = vec![holder, plain_sd(&fx, 1, 1, 5), plain_sd(&fx, 2, 1, 5)];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert!(sel.bound.is_none());
    }

    #[test]
    fn forged_certificate_votes_do_not_bind() {
        let fx = fixture(4, 1);
        let b = batch(7);
        let h = b.digest();
        // Votes signed for a different cid cannot certify cid 5.
        let cert = write_cert(&fx, &[0, 1, 2], 4, 0, h)
            .into_iter()
            .map(|mut v| {
                v.cid = 5;
                v
            })
            .collect();
        let holder = StopData::sign(
            &fx.sk[0],
            NodeId(0),
            1,
            5,
            Some((0, h)),
            Some(b),
            cert,
            None,
        );
        let collect = vec![holder, plain_sd(&fx, 1, 1, 5), plain_sd(&fx, 2, 1, 5)];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert!(sel.bound.is_none());
    }

    #[test]
    fn highest_epoch_certificate_wins() {
        let fx = fixture(4, 1);
        let b_old = batch(1);
        let b_new = batch(2);
        let cert_old = write_cert(&fx, &[0, 1, 2], 5, 0, b_old.digest());
        let cert_new = write_cert(&fx, &[1, 2, 3], 5, 2, b_new.digest());
        let holder_old = StopData::sign(
            &fx.sk[0],
            NodeId(0),
            3,
            5,
            Some((0, b_old.digest())),
            Some(b_old),
            cert_old,
            None,
        );
        let holder_new = StopData::sign(
            &fx.sk[1],
            NodeId(1),
            3,
            5,
            Some((2, b_new.digest())),
            Some(b_new.clone()),
            cert_new,
            None,
        );
        let collect = vec![holder_old, holder_new, plain_sd(&fx, 2, 3, 5)];
        let sel = select_window(&collect, 3, &fx.quorums, &fx.vk).unwrap();
        let bound = sel.bound.unwrap();
        assert_eq!(bound.hash, b_new.digest());
        assert_eq!(bound.epoch, 2);
        assert_eq!(bound.value, Some(b_new));
    }

    #[test]
    fn kth_largest_cid_resists_byzantine_inflation() {
        let fx = fixture(4, 1);
        // A Byzantine replica claims an absurd instance; with f = 1 the
        // 2nd-largest claim (f+1 = 2) is what counts.
        let collect = vec![
            plain_sd(&fx, 0, 1, 1_000_000),
            plain_sd(&fx, 1, 1, 7),
            plain_sd(&fx, 2, 1, 7),
        ];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert_eq!(sel.cid, 7);
    }

    #[test]
    fn decision_proof_raises_resume_instance() {
        let fx = fixture(4, 1);
        let b = batch(3);
        let h = b.digest();
        let accepts: Vec<Vote> = [0usize, 1, 2]
            .iter()
            .map(|&i| {
                Vote::sign(
                    &fx.sk[i],
                    VotePhase::Accept,
                    NodeId(i as u32),
                    9,
                    0,
                    h,
                )
            })
            .collect();
        let proof = crate::messages::DecisionProof {
            cid: 9,
            hash: h,
            votes: accepts,
        };
        // One replica decided instance 9 and moved to 10; the other two
        // lag at 7. The proof forces resumption at 10, not 7.
        let ahead = StopData::sign(
            &fx.sk[0],
            NodeId(0),
            1,
            10,
            None,
            None,
            vec![],
            Some(proof),
        );
        let collect = vec![ahead, plain_sd(&fx, 1, 1, 7), plain_sd(&fx, 2, 1, 7)];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert_eq!(sel.cid, 10);
    }

    #[test]
    fn invalid_decision_proof_is_ignored() {
        let fx = fixture(4, 1);
        let b = batch(3);
        let h = b.digest();
        // Proof with only 2 accepts is not a quorum.
        let accepts: Vec<Vote> = [0usize, 1]
            .iter()
            .map(|&i| {
                Vote::sign(&fx.sk[i], VotePhase::Accept, NodeId(i as u32), 9, 0, h)
            })
            .collect();
        let proof = crate::messages::DecisionProof {
            cid: 9,
            hash: h,
            votes: accepts,
        };
        let ahead = StopData::sign(
            &fx.sk[0],
            NodeId(0),
            1,
            10,
            None,
            None,
            vec![],
            Some(proof),
        );
        let collect = vec![ahead, plain_sd(&fx, 1, 1, 7), plain_sd(&fx, 2, 1, 7)];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert_eq!(sel.cid, 7);
    }

    #[test]
    fn slot_report_certificate_binds_later_slot() {
        use crate::messages::SlotReport;
        let fx = fixture(4, 1);
        let b_later = batch(8);
        let h_later = b_later.digest();
        // All replicas sit at frontier 5, but one reports a certified
        // WRITE for in-flight slot 7 (an ACCEPT quorum may exist there).
        let cert = write_cert(&fx, &[0, 1, 2], 7, 0, h_later);
        let report = SlotReport {
            cid: 7,
            last_write: Some((0, h_later)),
            value: Some(b_later.clone()),
            write_cert: cert,
        };
        let holder = StopData::sign_with_slots(
            &fx.sk[0],
            NodeId(0),
            1,
            5,
            None,
            None,
            vec![],
            vec![report],
            None,
        );
        let collect = vec![holder, plain_sd(&fx, 1, 1, 5), plain_sd(&fx, 2, 1, 5)];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert_eq!(sel.cid, 5);
        assert!(sel.bound.is_none());
        // Contiguous rebind range 6..=7: slot 6 is an unbound gap, slot
        // 7 carries the certified value.
        assert_eq!(sel.extra.len(), 2);
        assert_eq!(sel.extra[0].0, 6);
        assert!(sel.extra[0].1.is_none());
        assert_eq!(sel.extra[1].0, 7);
        let bound = sel.extra[1].1.as_ref().unwrap();
        assert_eq!(bound.hash, h_later);
        assert_eq!(bound.value, Some(b_later.clone()));

        // A compliant SYNC: any frontier batch, empty gap at 6, the
        // bound value verbatim at 7.
        let good = [
            SlotRebind {
                cid: 6,
                batch: Batch::empty(),
            },
            SlotRebind {
                cid: 7,
                batch: b_later.clone(),
            },
        ];
        validate_sync_window(&collect, 1, 5, &batch(1), &good, &fx.quorums, &fx.vk).unwrap();

        // Omitting the bound slot, swapping its value, or padding the
        // gap with requests is rejected.
        assert!(
            validate_sync_window(&collect, 1, 5, &batch(1), &[], &fx.quorums, &fx.vk).is_err()
        );
        let swapped = [
            good[0].clone(),
            SlotRebind {
                cid: 7,
                batch: batch(9),
            },
        ];
        assert!(validate_sync_window(
            &collect, 1, 5, &batch(1), &swapped, &fx.quorums, &fx.vk
        )
        .is_err());
        let padded = [
            SlotRebind {
                cid: 6,
                batch: batch(2),
            },
            good[1].clone(),
        ];
        assert!(validate_sync_window(
            &collect, 1, 5, &batch(1), &padded, &fx.quorums, &fx.vk
        )
        .is_err());
    }

    #[test]
    fn undersized_slot_report_certificate_does_not_bind() {
        use crate::messages::SlotReport;
        let fx = fixture(4, 1);
        let b = batch(8);
        let report = SlotReport {
            cid: 6,
            last_write: Some((0, b.digest())),
            value: Some(b),
            write_cert: write_cert(&fx, &[0, 1], 6, 0, batch(8).digest()),
        };
        let holder = StopData::sign_with_slots(
            &fx.sk[0],
            NodeId(0),
            1,
            5,
            None,
            None,
            vec![],
            vec![report],
            None,
        );
        let collect = vec![holder, plain_sd(&fx, 1, 1, 5), plain_sd(&fx, 2, 1, 5)];
        let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
        assert!(sel.extra.is_empty());
        // And the plain-frontier wrapper still accepts the window.
        validate_sync_window(&collect, 1, 5, &batch(1), &[], &fx.quorums, &fx.vk).unwrap();
    }

    #[test]
    fn wheat_weighted_certificates() {
        // With weights [2,2,1,1,1] and quorum weight 5, a certificate
        // from {0, 1, 4} (weight 5) binds, but {2, 3, 4} (weight 3)
        // does not.
        let sk: Vec<SigningKey> = (0..5)
            .map(|i| SigningKey::from_seed(format!("wheat-{i}").as_bytes()))
            .collect();
        let vk: Vec<PinnedKey> = sk.iter().map(|k| PinnedKey::new(*k.verifying_key())).collect();
        let quorums = QuorumSystem::wheat_binary(5, 1).unwrap();
        let fx = Fixture {
            sk,
            vk,
            quorums,
        };
        let b = batch(4);
        let h = b.digest();

        for (voters, should_bind) in [(vec![0usize, 1, 4], true), (vec![2usize, 3, 4], false)] {
            let cert = write_cert(&fx, &voters, 2, 0, h);
            let holder = StopData::sign(
                &fx.sk[0],
                NodeId(0),
                1,
                2,
                Some((0, h)),
                Some(b.clone()),
                cert,
                None,
            );
            let collect = vec![
                holder,
                plain_sd(&fx, 1, 1, 2),
                plain_sd(&fx, 2, 1, 2),
                plain_sd(&fx, 3, 1, 2),
            ];
            let sel = select_window(&collect, 1, &fx.quorums, &fx.vk).unwrap();
            assert_eq!(sel.bound.is_some(), should_bind, "voters {voters:?}");
        }
    }
}
