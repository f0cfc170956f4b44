//! Flight-dump → per-transaction timeline merge, exercised by
//! `tests/trace_viewchange.rs`.
//!
//! Phase boundaries (propose, WRITE quorum, decide, sign) are defined
//! at the replica that *led the deciding proposal*, so deltas of
//! adjacent boundaries telescope and the phase sum equals
//! deliver − submit exactly. Before PR 7 the merge hardcoded
//! `geo-node-0`; that breaks the moment a regency change moves the
//! leadership. Now every replica's `Propose` events (which carry the
//! regency in `b`, and are re-recorded when a sync re-binds a slot to a
//! new regency) vote on a per-cid *deciding regency* — the highest
//! regency any replica saw proposed for that cid — and the boundaries
//! are read from that regency's leader (`regency % n`). A tx that rode
//! through a view change is therefore attributed to the new leader's
//! re-proposal, keeping per-tx phase attribution exact at any pipeline
//! depth.

use hlf_obs::EventKind;
use hlf_obs::FlightDump;
use std::collections::{BTreeMap, HashMap};

/// One fully-attributed transaction timeline (all times are virtual
/// microseconds since sim start).
pub struct Timeline {
    pub trace: u64,
    pub client: u32,
    pub seq: u64,
    pub cid: u64,
    pub block: u64,
    /// Regency of the deciding proposal for `cid`.
    pub regency: u64,
    /// Replica the boundaries were read from (`regency % n`).
    pub leader: usize,
    pub submit_us: u64,
    pub deliver_us: u64,
    /// relay, write, accept, sign, collect — in order.
    pub phases: [u64; 5],
}

/// Per-replica consensus/signing boundary events.
#[derive(Default)]
struct NodeEvents {
    /// (cid, regency) → propose timestamp.
    propose: HashMap<(u64, u64), u64>,
    /// cid → latest WRITE-quorum timestamp (re-binds re-collect votes,
    /// so the deciding quorum is the last one).
    quorum: HashMap<u64, u64>,
    /// cid → decide timestamp.
    decide: HashMap<u64, u64>,
    /// block number → signature-done timestamp.
    sign_done: HashMap<u64, u64>,
}

/// Joins the per-recorder dumps into complete per-transaction
/// timelines. Incomplete transactions (in flight at run end, evicted
/// from a ring, or decided on a crashed leader that never signed) are
/// skipped.
pub fn merge_timelines(dumps: &[FlightDump]) -> Vec<Timeline> {
    let mut tx_cid: HashMap<u64, u64> = HashMap::new();
    let mut deciding_regency: HashMap<u64, u64> = HashMap::new();
    let mut nodes: BTreeMap<usize, NodeEvents> = BTreeMap::new();
    let mut submit_us: HashMap<u64, (u64, u32, u64)> = HashMap::new();
    let mut deliver_us: HashMap<u64, (u64, u64)> = HashMap::new();

    for dump in dumps {
        if let Some(index) = dump
            .node
            .strip_prefix("geo-node-")
            .and_then(|s| s.parse::<usize>().ok())
        {
            let node = nodes.entry(index).or_default();
            for e in &dump.events {
                match e.kind {
                    EventKind::TxInBatch => {
                        tx_cid.insert(e.a, e.b);
                    }
                    EventKind::Propose => {
                        let r = deciding_regency.entry(e.a).or_insert(e.b);
                        *r = (*r).max(e.b);
                        node.propose.insert((e.a, e.b), e.at_us);
                    }
                    EventKind::WriteQuorum => {
                        let at = node.quorum.entry(e.a).or_insert(e.at_us);
                        *at = (*at).max(e.at_us);
                    }
                    EventKind::Decide => {
                        node.decide.insert(e.a, e.at_us);
                    }
                    EventKind::SignDone => {
                        node.sign_done.insert(e.a, e.at_us);
                    }
                    _ => {}
                }
            }
        } else if dump.node.starts_with("geo-frontend-") {
            for e in &dump.events {
                match e.kind {
                    EventKind::Submit => {
                        submit_us.insert(e.a, (e.at_us, e.b as u32, e.c));
                    }
                    EventKind::Deliver => {
                        deliver_us.insert(e.a, (e.at_us, e.b));
                    }
                    _ => {}
                }
            }
        }
    }
    let n = nodes.keys().max().map(|&i| i + 1).unwrap_or(0);
    if n == 0 {
        return Vec::new();
    }

    let mut timelines = Vec::new();
    for (&trace, &(submitted, client, seq)) in &submit_us {
        let Some(&(delivered, block)) = deliver_us.get(&trace) else {
            continue; // still in flight at run end
        };
        let Some(&cid) = tx_cid.get(&trace) else {
            continue; // evicted from every replica ring
        };
        let Some(&regency) = deciding_regency.get(&cid) else {
            continue;
        };
        let leader = regency as usize % n;
        let Some(node) = nodes.get(&leader) else {
            continue;
        };
        let (Some(&p), Some(&w), Some(&d), Some(&s)) = (
            node.propose.get(&(cid, regency)),
            node.quorum.get(&cid),
            node.decide.get(&cid),
            node.sign_done.get(&block),
        ) else {
            continue; // boundary lost (e.g. the leader crashed mid-slot)
        };
        timelines.push(Timeline {
            trace,
            client,
            seq,
            cid,
            block,
            regency,
            leader,
            submit_us: submitted,
            deliver_us: delivered,
            phases: [
                p.saturating_sub(submitted),
                w.saturating_sub(p),
                d.saturating_sub(w),
                s.saturating_sub(d),
                delivered.saturating_sub(s),
            ],
        });
    }
    timelines.sort_by_key(|t| (t.submit_us, t.trace));
    timelines
}
